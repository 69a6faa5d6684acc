package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// gateWriter lets the debug-listener test read run's output while the run is
// still producing it, and parks the run on its first write containing gate —
// a loopback deployment finishes in milliseconds, so without the gate the
// listener would be closed before the test could scrape it.
type gateWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	gate    string
	reached chan struct{} // closed when gate first appears
	release chan struct{} // writes block after the gate until Release
	relOnce sync.Once
	gated   bool
}

// Release unparks a writer blocked on the gate; safe to call repeatedly.
func (w *gateWriter) Release() { w.relOnce.Do(func() { close(w.release) }) }

func newGateWriter(gate string) *gateWriter {
	return &gateWriter{gate: gate, reached: make(chan struct{}), release: make(chan struct{})}
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	n, err := w.buf.Write(p)
	hit := !w.gated && strings.Contains(string(p), w.gate)
	if hit {
		w.gated = true
	}
	w.mu.Unlock()
	if hit {
		close(w.reached)
		<-w.release
	}
	return n, err
}

func (w *gateWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestRunLiveDeployment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-servers", "2", "-clients", "3", "-msgs", "3"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"group", "formed", "delivered 9 messages", "transport counters:", "done"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	checkSingleSyncRound(t, s)
}

func TestRunLiveTraceReportsSingleSyncRound(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-servers", "1", "-clients", "3", "-msgs", "2"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	checkSingleSyncRound(t, out.String())
}

// checkSingleSyncRound asserts the run's reconfiguration trace shows the
// paper's one-round property: group formation is failure-free, so every
// completed view change in the emitted timeline took exactly one sync round.
func checkSingleSyncRound(t *testing.T, s string) {
	t.Helper()
	idx := strings.Index(s, "reconfiguration trace:")
	if idx < 0 {
		t.Fatalf("output missing reconfiguration trace section:\n%s", s)
	}
	trace := s[idx:]
	for _, want := range []string{"trace=", "view_install", "(sync_rounds=1)"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace section missing %q:\n%s", want, trace)
		}
	}
	if strings.Contains(trace, "sync_rounds=0") {
		t.Errorf("trace section reports a completed view with no sync round:\n%s", trace)
	}
}

func TestRunLiveDebugListener(t *testing.T) {
	// Park the run at its final report, scrape the listener while every
	// metric is populated, then release it to finish.
	out := newGateWriter("reconfiguration trace:")
	t.Cleanup(out.Release)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-servers", "2", "-clients", "3", "-msgs", "3", "-debug-addr", "127.0.0.1:0"}, out)
	}()
	select {
	case <-out.reached:
	case err := <-done:
		t.Fatalf("run finished without reaching the trace section (err=%v):\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("run never reached the trace section:\n%s", out.String())
	}

	var addr string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "debug listener on ") {
			addr = strings.Fields(strings.TrimPrefix(line, "debug listener on "))[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no debug listener line in output:\n%s", out.String())
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(b)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		"vsgm_view_change_latency_seconds_bucket",
		"vsgm_reconfigurations_total",
		"vsgm_link_dials_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if statusz := get("/statusz"); !strings.Contains(statusz, `vsgm_server_attempts_total{server=\"s00\"}`) || strings.Contains(statusz, `"status"`) {
		t.Errorf("/statusz is not the server's series alone:\n%s", statusz)
	}

	out.Release()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "done") {
		t.Errorf("output missing done:\n%s", out.String())
	}
}

func TestRunLiveValidatesFlags(t *testing.T) {
	if err := run([]string{"-clients", "0"}, new(bytes.Buffer)); err == nil {
		t.Fatal("zero clients accepted")
	}
}

package obs

import (
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("vsgm_test_total", "help", L("node", "p00"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same name+labels returns the same storage.
	if c2 := reg.Counter("vsgm_test_total", "help", L("node", "p00")); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels are a different series.
	if c3 := reg.Counter("vsgm_test_total", "help", L("node", "p01")); c3 == c {
		t.Fatal("distinct labels shared a counter")
	}
	g := reg.Gauge("vsgm_test_gauge", "help")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestNilRegistryHandlesWork(t *testing.T) {
	var reg *Registry
	reg.Counter("x", "").Inc()
	reg.Gauge("y", "").Set(3)
	reg.Histogram("z", "", nil).Observe(0.5)
	reg.RegisterCollector("o", func() []Sample { return nil })
	reg.Detach("o")
	if s := reg.Snapshot(); len(s.Samples) != 0 {
		t.Fatal("nil registry produced samples")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 0.5, 1.5, 1.5, 3, 3, 3, 6, 6, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Fatalf("count = %d, want 10", s.Count)
	}
	if math.Abs(s.Sum-125) > 1e-9 {
		t.Fatalf("sum = %v, want 125", s.Sum)
	}
	// Rank 5 of 10 lands in the (2,4] bucket (cum before: 4, bucket: 3).
	p50 := s.Quantile(0.50)
	if p50 <= 2 || p50 > 4 {
		t.Fatalf("p50 = %v, want in (2,4]", p50)
	}
	// The +Inf bucket clamps to the largest finite bound.
	if p99 := s.Quantile(0.99); p99 != 8 {
		t.Fatalf("p99 = %v, want clamp to 8", p99)
	}
	if q := (HistogramSnapshot{Bounds: []float64{1}, Buckets: []int64{0, 0}}).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

// TestConcurrentUpdatesAndSnapshots is the -race exercise: counters,
// gauges, and histograms updated from many goroutines while snapshots,
// Prometheus rendering, and JSON rendering run concurrently.
func TestConcurrentUpdatesAndSnapshots(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCollector("side", func() []Sample {
		return []Sample{{Name: "vsgm_side_gauge", Kind: KindGauge, Value: 1}}
	})
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("vsgm_conc_total", "c")
			g := reg.Gauge("vsgm_conc_gauge", "g")
			h := reg.Histogram("vsgm_conc_hist", "h", nil)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i%100) / 1000)
				if i%64 == 0 {
					// Churn registration from multiple goroutines too.
					reg.Counter("vsgm_conc_total", "c", L("w", string(rune('a'+w)))).Inc()
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = reg.Snapshot()
				var sb strings.Builder
				_ = reg.WritePrometheus(&sb)
				_ = reg.WriteJSON(&sb)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("vsgm_conc_total", "c").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if h := reg.Histogram("vsgm_conc_hist", "h", nil).Snapshot(); h.Count != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count, workers*iters)
	}
}

func TestDetachFreezesCollector(t *testing.T) {
	reg := NewRegistry()
	live := int64(1)
	var mu sync.Mutex
	reg.RegisterCollector("node/p00", func() []Sample {
		mu.Lock()
		defer mu.Unlock()
		return []Sample{{Name: "vsgm_live_value", Kind: KindGauge, Value: float64(live)}}
	})
	mu.Lock()
	live = 42
	mu.Unlock()
	reg.Detach("node/p00")
	mu.Lock()
	live = -1 // post-close mutation must not be visible
	mu.Unlock()
	snap := reg.Snapshot()
	found := false
	for _, s := range snap.Samples {
		if s.Name == "vsgm_live_value" {
			found = true
			if s.Value != 42 {
				t.Fatalf("frozen sample = %v, want 42", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("frozen collector sample missing from snapshot")
	}
	reg.Detach("node/p00") // idempotent
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("vsgm_frames_total", "Frames sent.", L("node", "p00")).Add(3)
	reg.Counter("vsgm_frames_total", "Frames sent.", L("node", "p01")).Add(5)
	reg.Gauge("vsgm_mem_bytes", "Resident bytes.").Set(1024)
	h := reg.Histogram("vsgm_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE vsgm_frames_total counter",
		`vsgm_frames_total{node="p00"} 3`,
		`vsgm_frames_total{node="p01"} 5`,
		"# TYPE vsgm_mem_bytes gauge",
		"vsgm_mem_bytes 1024",
		"# TYPE vsgm_lat_seconds histogram",
		`vsgm_lat_seconds_bucket{le="0.1"} 1`,
		`vsgm_lat_seconds_bucket{le="1"} 2`,
		`vsgm_lat_seconds_bucket{le="+Inf"} 3`,
		"vsgm_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per metric name, even with several series.
	if n := strings.Count(out, "# TYPE vsgm_frames_total"); n != 1 {
		t.Errorf("TYPE header repeated %d times", n)
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("vsgm_x_total", "x").Inc()
	tr := NewTracer(reg)
	srv, err := ServeDebug("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "vsgm_x_total 1") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/statusz"); !strings.Contains(out, `"metrics"`) || strings.Contains(out, `"status"`) {
		t.Errorf("/statusz is not metrics and histograms alone:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	_ = get("/tracez")
}

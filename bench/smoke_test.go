package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The benchmark keeps its scratch files under bench/out relative to the
// checkout's root, so the tests run from there as the real runs do.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up loopback clusters")
	}
	var out bytes.Buffer
	code, err := run([]string{"-smoke", "-seed", "3"}, &out)
	if code != 0 || err != nil {
		t.Fatalf("smoke: exit %d, %v\n%s", code, err, out.String())
	}
	report := out.String()
	for _, w := range workloadNames {
		if !strings.Contains(report, "== "+w+", untraced") {
			t.Errorf("no untraced run of %s in the report", w)
		}
	}
	if strings.Contains(report, "PROBLEM") {
		t.Errorf("a smoke run reported a problem:\n%s", report)
	}

	// Every metric BENCHMARK.json declares must be printed by name.
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []gate `json:"end_to_end"`
		PerLayer []gate `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, g := range append(spec.EndToEnd, spec.PerLayer...) {
		if !strings.Contains(report, "\n"+g.Name+" ") {
			t.Errorf("metric %s is declared in BENCHMARK.json but was not printed", g.Name)
		}
	}
}

func TestSingleRunPrintsTheResultObjectLast(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up a simulator world")
	}
	var out bytes.Buffer
	code, err := run([]string{"--workload", wlKV, "--seed", "9", "--seconds", "0.2", "--trace", "0"}, &out)
	if code != 0 || err != nil {
		t.Fatalf("exit %d, %v\n%s", code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result %+v", res)
	}
	for _, name := range []string{"ops_per_s", "op_p50_us", "op_mean_us", "rss_peak_mb", "setup_s"} {
		if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %+v, want a positive value", name, m)
		}
	}
	if len(res.Metrics) != 5 {
		t.Errorf("an untraced run must print the end-to-end metrics and nothing else, got %d", len(res.Metrics))
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	var out bytes.Buffer
	if code, err := run([]string{"--workload", "nope"}, &out); code == 0 || err == nil {
		t.Errorf("exit %d, %v", code, err)
	}
}

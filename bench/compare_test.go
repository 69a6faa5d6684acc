package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testSpec = `{
  "workloads": [{"name": "hit", "why": "x"}, {"name": "miss", "why": "y"}],
  "end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
  ]
}`

// writeSet records ten runs per workload; scale multiplies the throughput and
// divides nothing else, so a scale below 1 is a pure throughput regression.
func writeSet(t *testing.T, dir, name string, scale float64, correct bool) string {
	t.Helper()
	path := filepath.Join(dir, name)
	for _, w := range []string{"hit", "miss"} {
		for seed := int64(1); seed <= 10; seed++ {
			wiggle := 1 + float64(seed-5)/500
			r := record{Workload: w, Seed: seed, Seconds: 20, Result: result{
				Correct: correct, Attempted: 100, Metrics: map[string]metricValue{
					"ops_per_s": {1000 * scale * wiggle, "1/s"},
					"op_p50_us": {50 * wiggle, "us"},
					"setup_s":   {0.002 * (1 + float64(seed%3)), "s"}, // wide spread: exempt
				}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeSet(t, dir, "a.json", 1, true)
	same := writeSet(t, dir, "b.json", 0.97, true)
	slow := writeSet(t, dir, "c.json", 0.85, true)
	wrong := writeSet(t, dir, "d.json", 1, false)

	var out bytes.Buffer
	if code, err := compareSets(base, same, spec, &out); code != 0 || err != nil {
		t.Fatalf("3%% inside a 10%% bound must pass: code %d, %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "+3.0%") {
		t.Errorf("report does not show the 3%% difference:\n%s", out.String())
	}
	if strings.Contains(out.String(), "unresolved") {
		t.Errorf("setup_s is exempt from the spread check:\n%s", out.String())
	}

	out.Reset()
	code, err := compareSets(base, slow, spec, &out)
	if code == 0 || err == nil {
		t.Fatalf("a 15%% throughput loss must breach a 10%% bound:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "BREACH"); got != 2 {
		t.Errorf("want one breach per workload on ops_per_s only, got %d:\n%s", got, out.String())
	}
	// A faster B is never a breach, whatever the size.
	out.Reset()
	if code, _ := compareSets(slow, base, spec, &out); code != 0 {
		t.Errorf("an improvement was reported as a breach:\n%s", out.String())
	}
	out.Reset()
	if code, _ := compareSets(base, wrong, spec, &out); code == 0 {
		t.Errorf("a set with incorrect runs must not pass:\n%s", out.String())
	}
	if code, _ := compareSets(base, filepath.Join(dir, "nope.json"), spec, &out); code == 0 {
		t.Error("a missing file must not pass")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	line, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"x": {1.5, "us"}}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":1.5,"unit":"us"}}}`
	if string(line) != want {
		t.Errorf("result line %s, want %s", line, want)
	}
}

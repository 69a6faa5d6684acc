package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gate `json:"end_to_end"`
}

type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the acceptance check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// values collects one metric of one workload from the untraced runs of a set.
func values(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Result.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// worsening is how much worse b is than a as a share of a: positive is worse.
func worsening(g gate, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if g.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, per workload and end-to-end metric, both sets' medians
// and quartile spreads, how much worse B's median is than A's, and the bound;
// it exits non-zero when a median breaches its bound, a run of either set was
// not correct, or a metric is missing from a set.
func compareSets(pathA, pathB, specPath string, out io.Writer) (int, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return 2, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return 2, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return 2, err
	}
	breaches := 0
	for _, set := range []struct {
		path string
		recs []record
	}{{pathA, a}, {pathB, b}} {
		for _, r := range set.recs {
			if !r.Result.Correct || r.Result.Failed > 0 {
				breaches++
				fmt.Fprintf(out, "BREACH %s: %s seed %d was not correct (%d of %d failed)\n",
					set.path, r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted)
			}
		}
	}
	fmt.Fprintf(out, "%-13s %-12s %-5s %14s %7s %14s %7s %8s %6s\n",
		"workload", "metric", "unit", "median A", "iqr A", "median B", "iqr B", "B worse", "bound")
	for _, w := range spec.Workloads {
		for _, g := range spec.EndToEnd {
			va, vb := values(a, w.Name, g.Name), values(b, w.Name, g.Name)
			if len(va) == 0 || len(vb) == 0 {
				breaches++
				fmt.Fprintf(out, "BREACH %s %s: %d runs in A, %d in B\n", w.Name, g.Name, len(va), len(vb))
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := worsening(g, a2, b2)
			verdict := ""
			switch {
			case worse > g.Bound:
				breaches++
				verdict = "  BREACH"
			case g.Name != "setup_s" && ((a3-a1)/a2 > g.Bound || (b3-b1)/b2 > g.Bound):
				verdict = "  unresolved: spread wider than the bound"
			}
			fmt.Fprintf(out, "%-13s %-12s %-5s %14.4f %6.1f%% %14.4f %6.1f%% %+7.1f%% %5.0f%%%s\n",
				w.Name, g.Name, g.Unit, a2, 100*(a3-a1)/a2, b2, 100*(b3-b1)/b2, 100*worse, 100*g.Bound, verdict)
		}
	}
	if breaches > 0 {
		return 1, fmt.Errorf("%d breach(es)", breaches)
	}
	return 0, nil
}

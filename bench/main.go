// Command bench is the repository's wall-clock benchmark: it brings up real
// clusters in-process, drives four named workloads from a seeded load
// generator, checks the outputs, and prints every end-to-end and per-layer
// metric by name with its unit. See README.md beside this file.
//
//	sh bench/run.sh                                  all four workloads, timed then traced
//	sh bench/run.sh --workload kv_mixed --seed 7 --seconds 20 --trace 0
//	sh bench/run.sh -compare A.json B.json           two recorded result sets, gated
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// result is the object a single run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a result-set file: a run's arguments and its result.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Result   result  `json:"result"`
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+") and print its result object as the last line; empty runs all four, timed then traced")
		seed     = fs.Int64("seed", 1, "seeds every generated input: payload filler, key choice, read/write mix")
		seconds  = fs.Float64("seconds", 20, "how long one run measures")
		trace    = fs.Int("trace", 0, "0: untraced timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke    = fs.Bool("smoke", false, "all four workloads at 300 ms each, then one traced run whose reference passes light every layer")
		recordTo = fs.String("record", "", "append this run's arguments and result as one JSON line to this file")
		compare  = fs.Bool("compare", false, "compare two recorded result sets (two file arguments) against the bounds in BENCHMARK.json")
		spec     = fs.String("benchmark-json", "BENCHMARK.json", "with -compare: where the bounds are")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil // the flag package has already said why
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare needs two result-set files")
		}
		return compareSets(fs.Arg(0), fs.Arg(1), *spec, out)
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("-seconds must be positive and -trace 0 or 1")
	}

	// Pin the goroutine-per-link transport engine for everything gated; the
	// environment variable rather than live.ReactorOff, so this still compiles
	// if the reactor is ever deleted. README.md has the measurements behind it.
	os.Setenv("VSGM_REACTOR", "off")
	fmt.Fprintf(out, "seed %d; GOMAXPROCS %d; all TCP traffic crosses the host's loopback interface, no delay injected\n",
		*seed, runtime.GOMAXPROCS(0))

	if *smoke {
		for _, w := range workloadNames {
			if err := smokeRun(w, *seed, 0, out); err != nil {
				return 1, err
			}
		}
		// One traced run is enough: it runs its own workload traced and the
		// others it does not cover as traced reference passes.
		return 0, smokeRun(wlBulk, *seed, 1, out)
	}
	if *workload == "" {
		for _, w := range workloadNames {
			for tr := 0; tr <= 1; tr++ {
				if _, code, err := runOne(w, *seed, *seconds, tr, out); err != nil {
					return code, err
				}
			}
		}
		return 0, nil
	}
	res, code, err := runOne(*workload, *seed, *seconds, *trace, out)
	if err != nil && res == nil {
		return code, err
	}
	if *recordTo != "" {
		if rerr := appendRecord(*recordTo, record{*workload, *seed, *seconds, *trace, *res}); rerr != nil {
			return 1, rerr
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		return 1, jerr
	}
	fmt.Fprintf(out, "%s\n", line)
	return code, err
}

// smokeRun is a 300 ms run that must come out correct.
func smokeRun(workload string, seed int64, trace int, out io.Writer) error {
	res, _, err := runOne(workload, seed, 0.3, trace, out)
	if err != nil {
		return err
	}
	if !res.Correct || res.Failed > 0 {
		return fmt.Errorf("%s: smoke run not correct (%d of %d failed)", workload, res.Failed, res.Attempted)
	}
	return nil
}

// runOne runs one workload once, prints its metrics, and returns its result.
// A stalled run still returns what it measured, with a non-zero exit code.
func runOne(workload string, seed int64, seconds float64, trace int, out io.Writer) (*result, int, error) {
	var (
		ms  metrics
		sum = &tally{}
		err error
		own metrics
	)
	if trace == 1 {
		fmt.Fprintf(out, "\n== %s, traced, %.3g s: per-layer metrics ==\n", workload, seconds)
		ms, sum, err = perLayer(workload, seed, seconds)
	} else {
		fmt.Fprintf(out, "\n== %s, untraced, %.3g s: end-to-end metrics ==\n", workload, seconds)
		var p *pass
		p, err = runPass(workload, seed, seconds, false)
		if p == nil {
			return nil, 2, err
		}
		sum.add(p)
		ms = p.endToEnd()
		own = metrics{}
		p.named(own)
	}
	printMetrics(out, ms)
	if own != nil {
		fmt.Fprintf(out, "-- the same run under this workload's own metric names --\n")
		printMetrics(out, own)
	}
	for _, s := range sum.problems {
		fmt.Fprintf(out, "PROBLEM %s\n", s)
	}
	res := &result{
		Correct:   len(sum.problems) == 0 && err == nil,
		Attempted: max(sum.attempted, 1),
		Failed:    sum.failed,
		Metrics:   make(map[string]metricValue, len(ms)),
	}
	for name, m := range ms {
		res.Metrics[name] = metricValue{m.value, m.unit}
	}
	if errors.Is(err, errStalled) {
		path := dumpStacks(workload)
		return res, 3, fmt.Errorf("%s: a wait outlived its deadline; goroutines dumped to %s: %w", workload, path, err)
	}
	if err != nil {
		return res, 1, err
	}
	return res, 0, nil
}

func printMetrics(out io.Writer, ms metrics) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		if m.value == absent && m.unit != "%" {
			fmt.Fprintf(out, "%-40s %14s %-6s n=%d\n", name, "absent", m.unit, m.n)
			continue
		}
		fmt.Fprintf(out, "%-40s %14.4f %-6s n=%d\n", name, m.value, m.unit, m.n)
	}
}

// dumpStacks writes every goroutine's stack where a stalled run can be
// diagnosed from, and returns the path.
func dumpStacks(workload string) string {
	path := filepath.Join(scratchRoot, workload+".stacks")
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "(not written: " + err.Error() + ")"
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "(not written: " + err.Error() + ")"
	}
	return path
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

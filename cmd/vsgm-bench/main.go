// Command vsgm-bench runs the reproduction experiments E1-E12 (see DESIGN.md
// Section 4) and prints their result tables. It regenerates the measured
// numbers recorded in EXPERIMENTS.md.
//
// Usage:
//
//	vsgm-bench                 # run every experiment
//	vsgm-bench -exp E1,E4      # run selected experiments
//	vsgm-bench -markdown       # emit GitHub-flavored markdown tables
//	vsgm-bench -seed 7 -reps 3 # change the environment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vsgm/internal/experiments"
	"vsgm/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vsgm-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vsgm-bench", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list the experiments and exit")
		expList   = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		markdown  = fs.Bool("markdown", false, "emit markdown tables")
		seed      = fs.Int64("seed", 42, "simulation seed")
		reps      = fs.Int("reps", 5, "repetitions per data point")
		latency   = fs.Duration("latency", 10*time.Millisecond, "base link latency")
		jitter    = fs.Duration("jitter", 5*time.Millisecond, "link latency jitter (±)")
		mRound    = fs.Duration("membership-round", 10*time.Millisecond, "membership agreement round duration")
		debugAddr = fs.String("debug-addr", "", "serve run progress on /metrics and /statusz plus pprof on this address while the experiments run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The debug listener is chiefly a pprof surface for profiling the
	// simulator under experiment load; the registry's completion counter
	// lets a long sweep be watched from outside.
	var reg *obs.Registry // stays nil without -debug-addr; nil handles still work
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		dbg, err := obs.ServeDebug(*debugAddr, reg, nil)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(out, "debug listener on %s (/metrics /statusz /debug/pprof)\n", dbg.Addr())
	}
	expsDone := reg.Counter("vsgm_bench_experiments_completed_total", "Experiments finished by this vsgm-bench run.")

	if *list {
		for _, s := range experiments.All() {
			fmt.Fprintf(out, "%-4s %s\n", s.ID, s.Title)
		}
		return nil
	}

	p := experiments.Params{
		Seed:            *seed,
		Latency:         *latency,
		Jitter:          *jitter,
		MembershipRound: *mRound,
		Reps:            *reps,
	}

	var specs []experiments.Spec
	if *expList == "" {
		specs = experiments.All()
	} else {
		for _, id := range strings.Split(*expList, ",") {
			s, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			specs = append(specs, s)
		}
	}

	for i, s := range specs {
		start := time.Now()
		table, err := s.Run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		expsDone.Inc()
		if *markdown {
			fmt.Fprint(out, table.Markdown())
		} else {
			if i > 0 {
				fmt.Fprintln(out)
			}
			fmt.Fprint(out, table.Render())
			fmt.Fprintf(out, "(ran in %v)\n", time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

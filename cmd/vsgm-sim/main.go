// Command vsgm-sim runs one deterministic whole-system scenario — group
// formation, steady-state traffic, optional partition/merge, churn, and
// crash/recovery — and verifies the execution against every specification
// checker. It prints a summary of the run.
//
// Usage:
//
//	vsgm-sim -n 5 -msgs 50 -partition -crash -seed 7
//	vsgm-sim -n 5 -reconfig-trace            # per-endpoint reconfiguration timelines
//	vsgm-sim -n 5 -debug-addr 127.0.0.1:8080 # live /metrics, /statusz, /tracez, pprof
//
// With -reconfig-trace every reconfiguration is stamped with a trace id and
// the run ends with per-endpoint timelines (start_change → sync → view) in
// virtual time; for a fixed seed the timelines are deterministic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/obs"
	"vsgm/internal/sim"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vsgm-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vsgm-sim", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 5, "number of end-points")
		msgs      = fs.Int("msgs", 20, "multicasts per member per phase")
		seed      = fs.Int64("seed", 1, "simulation seed")
		partition = fs.Bool("partition", false, "split the group in half and merge it back")
		crash     = fs.Bool("crash", false, "crash and recover one member")
		churn     = fs.Int("churn", 0, "number of cascading joins to inject")
		latency   = fs.Duration("latency", 10*time.Millisecond, "base link latency")
		jitter    = fs.Duration("jitter", 5*time.Millisecond, "link latency jitter (±)")
		level     = fs.String("level", "gcs", "automaton level: wv, vs, or gcs")
		verbose   = fs.Bool("v", false, "print every application event")
		trace     = fs.Bool("trace", false, "dump the full external-event trace at the end")
		ack       = fs.Int("ack", 0, "stability-ack interval (0 disables within-view GC)")
		hierarchy = fs.Int("hierarchy", 0, "two-tier sync hierarchy group size (0 = flat)")
		smallSync = fs.Bool("small-sync", false, "enable the §5.2.4 sync-message optimizations")
		reconfTr  = fs.Bool("reconfig-trace", false, "trace every reconfiguration and print per-endpoint timelines (virtual time)")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /statusz, /tracez and pprof on this address while the simulation runs (implies -reconfig-trace)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var lvl core.Level
	switch *level {
	case "wv":
		lvl = core.LevelWV
	case "vs":
		lvl = core.LevelVS
	case "gcs":
		lvl = core.LevelGCS
	default:
		return fmt.Errorf("unknown level %q (want wv, vs, or gcs)", *level)
	}
	suite := spec.SuiteFor(lvl, spec.WithTrace())

	total := *n + *churn
	cfg := sim.Config{
		Procs:              sim.ProcIDs(total),
		Level:              lvl,
		Latency:            sim.UniformLatency{Base: *latency, Jitter: *jitter},
		MembershipRound:    *latency,
		Seed:               *seed,
		Suite:              suite,
		AckInterval:        *ack,
		HierarchyGroupSize: *hierarchy,
		SmallSync:          *smallSync,
	}

	// Reconfiguration tracing reads the cluster's virtual clock, so timelines
	// and the view-change latency histogram are in simulated time and stay
	// deterministic for a fixed seed. The cluster is created below; the
	// tracer only consults the clock once events start flowing.
	var tracer *obs.Tracer
	var simNow func() time.Duration
	if *reconfTr || *debugAddr != "" {
		reg := obs.NewRegistry()
		tracer = obs.NewTracer(reg, obs.WithNow(func() time.Time {
			base := time.Unix(0, 0).UTC()
			if simNow == nil {
				return base
			}
			return base.Add(simNow())
		}))
		cfg.TraceFor = func(p types.ProcID) core.ProtocolTrace { return tracer.ForEndpoint(p) }
		if *debugAddr != "" {
			dbg, err := obs.ServeDebug(*debugAddr, reg, tracer)
			if err != nil {
				return fmt.Errorf("debug listener: %w", err)
			}
			defer dbg.Close()
			fmt.Fprintf(out, "debug listener on %s (/metrics /statusz /tracez /debug/pprof)\n", dbg.Addr())
		}
	}
	if *verbose {
		cfg.OnAppEvent = func(p types.ProcID, ev core.Event) {
			fmt.Fprintf(out, "  %s: %s\n", p, ev)
		}
	}
	c, err := sim.NewCluster(cfg)
	if err != nil {
		return err
	}
	simNow = c.Now
	procs := c.Procs()
	members := types.NewProcSet(procs[:*n]...)

	fmt.Fprintf(out, "forming group of %d (level %s, seed %d)\n", *n, lvl, *seed)
	v, d, err := c.ReconfigureTo(members)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  installed %s in %v\n", v, d)

	sendPhase := func(tag string, senders types.ProcSet) error {
		for i := 0; i < *msgs; i++ {
			for _, p := range senders.Sorted() {
				if _, err := c.Send(p, []byte(fmt.Sprintf("%s-%d", tag, i))); err != nil {
					return fmt.Errorf("send from %s: %w", p, err)
				}
			}
		}
		return c.Run()
	}
	if err := sendPhase("steady", members); err != nil {
		return err
	}
	fmt.Fprintf(out, "steady phase: %d messages delivered\n", c.Metrics().Delivered)

	if *partition {
		mid := *n / 2
		left := types.NewProcSet(procs[:mid]...)
		right := types.NewProcSet(procs[mid:*n]...)
		fmt.Fprintf(out, "partitioning %s | %s\n", left, right)
		if _, err := c.Partition(left, right); err != nil {
			return err
		}
		if err := sendPhase("partitioned", left); err != nil {
			return err
		}
		c.HealConnectivity()
		v, d, err := c.ReconfigureTo(members)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "merged back into %s in %v\n", v, d)
	}

	if *crash {
		victim := procs[*n-1]
		fmt.Fprintf(out, "crashing %s\n", victim)
		if err := c.Crash(victim); err != nil {
			return err
		}
		survivors := members.Minus(types.NewProcSet(victim))
		if _, _, err := c.ReconfigureTo(survivors); err != nil {
			return err
		}
		if err := sendPhase("degraded", survivors); err != nil {
			return err
		}
		if err := c.Recover(victim); err != nil {
			return err
		}
		v, d, err := c.ReconfigureTo(members)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "recovered and rejoined %s in %v\n", v, d)
	}

	final := members
	if *churn > 0 {
		fmt.Fprintf(out, "injecting %d cascading joins\n", *churn)
		for i := 1; i <= *churn; i++ {
			set := types.NewProcSet(procs[:*n+i]...)
			if err := c.StartChange(set); err != nil {
				return err
			}
			if _, err := c.DeliverView(set); err != nil {
				return err
			}
			final = set
		}
		if err := c.Run(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  group stabilized at %d members; views installed in total: %d\n",
			final.Len(), c.Metrics().ViewInstalls)
	}

	stats := c.Network().Stats()
	fmt.Fprintf(out, "\nsummary after %v of virtual time:\n", c.Now())
	fmt.Fprintf(out, "  app multicasts: %d, deliveries: %d, views installed: %d\n",
		c.Metrics().Sent, c.Metrics().Delivered, c.Metrics().ViewInstalls)
	fmt.Fprintf(out, "  wire traffic: app=%d view=%d sync=%d fwd=%d (bytes=%d)\n",
		stats.Sent.App, stats.Sent.View, stats.Sent.Sync, stats.Sent.Fwd, stats.SentBytes)

	if err := suite.Err(); err != nil {
		return fmt.Errorf("SPECIFICATION VIOLATIONS:\n%w", err)
	}
	fmt.Fprintln(out, "  all specification checkers passed")

	if tracer != nil {
		fmt.Fprintln(out, "\nreconfiguration trace (virtual time):")
		tracer.RenderTimeline(out)
	}

	if *trace {
		fmt.Fprintf(out, "\nexecution trace (%d external events):\n%s",
			len(suite.Trace()), spec.RenderTrace(suite.Trace()))
	}

	if !*partition && !*crash {
		// In quiescent runs the final view is stable: check Property 4.2.
		finalView := c.Endpoint(final.Sorted()[0]).CurrentView()
		if err := spec.CheckLiveness(suite.Trace(), finalView); err != nil {
			return fmt.Errorf("liveness: %w", err)
		}
		fmt.Fprintln(out, "  liveness (Property 4.2) holds for the final view")
	}
	return nil
}

// Command vsgm-soak runs the long-soak chaos harness (internal/soak): the
// simulated cluster, the large-population sampled-checking world, or the
// live TCP cluster — each under randomized, scheduled adversarial phases
// with the executable specification suite attached throughout.
//
// Usage:
//
//	vsgm-soak -mode sim -duration 5s -seed 7
//	vsgm-soak -mode world -scenario world-arbitrary
//	vsgm-soak -mode live -duration 60s
//	vsgm-soak -mode shard -scenario reshard-under-churn
//	vsgm-soak -mode all -duration 30s       # one soak of each kind
//
// Every run logs its replay seed; rerun with -seed (or VSGM_SEED) to replay
// the identical chaos schedule. On a violation the full report — replay
// seed, chaos schedule, violations, and the reconfiguration trace timeline
// — is written to the -report path (a temp-dir default otherwise) and the
// path is printed. -force-violation demonstrates that pipeline end to end.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vsgm/internal/randseed"
	"vsgm/internal/soak"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vsgm-soak:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vsgm-soak", flag.ContinueOnError)
	var (
		mode     = fs.String("mode", "sim", "soak to run: sim, world, live, shard, or all")
		duration = fs.Duration("duration", 0, "soak duration (0 = each mode's default; virtual time for sim/world/shard, wall time for live)")
		seed     = fs.Int64("seed", 0, "replay seed (0 = auto; VSGM_SEED overrides)")
		scenario = fs.String("scenario", "", "named scenario mix (default: the mode's own)")
		report   = fs.String("report", "", "write the report here (default: only on violation, to a temp path)")
		force    = fs.Bool("force-violation", false, "inject a fabricated violation to demonstrate the report pipeline")
		quiet    = fs.Bool("q", false, "suppress per-phase progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Seed resolution: an explicit -seed wins, then VSGM_SEED, then the
	// clock. Whatever is chosen is logged so the run replays.
	runSeed := *seed
	if runSeed == 0 {
		runSeed, _ = randseed.Pick(time.Now().UnixNano())
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
	}
	progress := logf
	if *quiet {
		progress = nil
	}

	var scen *soak.Scenario
	if *scenario != "" {
		var err error
		if scen, err = soak.ScenarioByName(*scenario); err != nil {
			return err
		}
	}

	// Each -mode's soak, in the order -mode all runs them.
	type runner struct {
		mode string
		run  func() (*soak.Report, error)
	}
	runners := []runner{
		{"sim", func() (*soak.Report, error) {
			return soak.RunSim(soak.SimConfig{Duration: *duration, Seed: runSeed, Scenario: scen, ForceViolation: *force, Log: progress})
		}},
		{"world", func() (*soak.Report, error) {
			return soak.RunWorld(soak.WorldConfig{Duration: *duration, Seed: runSeed, Scenario: scen, ForceViolation: *force, Log: progress})
		}},
		{"live", func() (*soak.Report, error) {
			return soak.RunLive(soak.LiveConfig{Duration: *duration, Seed: runSeed, Scenario: scen, ForceViolation: *force, Log: progress})
		}},
		{"shard", func() (*soak.Report, error) {
			return soak.RunShard(soak.ShardConfig{Duration: *duration, Seed: runSeed, Scenario: scen, Log: progress})
		}},
	}
	if *mode != "all" {
		i := slices.IndexFunc(runners, func(r runner) bool { return r.mode == *mode })
		if i < 0 {
			return fmt.Errorf("unknown mode %q (want sim, world, live, shard, or all)", *mode)
		}
		runners = runners[i : i+1]
	}
	failed := false
	for _, r := range runners {
		logf("soak %s: seed %d (replay with -seed %d or %s=%d)", r.mode, runSeed, runSeed, randseed.EnvVar, runSeed)
		rep, err := r.run()
		if err != nil {
			return fmt.Errorf("soak %s: %w", r.mode, err)
		}
		fmt.Fprint(out, rep.Render())
		if path := reportPath(*report, len(runners) > 1, runSeed, rep); path != "" {
			if werr := rep.WriteFile(path); werr != nil {
				return fmt.Errorf("soak %s: write report: %w", r.mode, werr)
			}
			fmt.Fprintf(out, "report written to %s\n", path)
		}
		if !rep.OK() {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("invariant violations detected (see report above; replay with -seed %d)", runSeed)
	}
	return nil
}

// reportPath decides where (and whether) to persist the report: an explicit
// -report path always persists; otherwise only violated runs do, to a
// deterministic temp-dir artifact named after the mode and replay seed.
func reportPath(explicit string, multi bool, seed int64, rep *soak.Report) string {
	if explicit != "" {
		if multi { // -mode all: one artifact per mode
			return explicit + "." + rep.Mode
		}
		return explicit
	}
	if rep.OK() {
		return ""
	}
	return filepath.Join(os.TempDir(), fmt.Sprintf("vsgm-soak-%s-seed%d.report", rep.Mode, seed))
}

// Command vsgm-soak runs the long-soak chaos harness (internal/soak): the
// live TCP cluster — membership servers and attach-protocol clients on
// loopback sockets with file-backed server state — under randomized,
// scheduled adversarial phases with the executable specification suite
// attached throughout.
//
// Usage:
//
//	vsgm-soak -duration 60s -seed 7
//	vsgm-soak -scenario live-arbitrary
//	vsgm-soak -scenario live-detector -duration 30s
//
// Every run logs its replay seed; rerun with -seed (or VSGM_SEED) to replay
// the chaos schedule. On a violation the full report — replay seed, chaos
// schedule, violations, and the reconfiguration trace timeline — is written
// to the -report path (a temp-dir default otherwise) and the path is
// printed. -force-violation demonstrates that pipeline end to end.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
		duration = fs.Duration("duration", 0, "wall-time budget of the phase loop (0 = 20s)")
		seed     = fs.Int64("seed", 0, "replay seed (0 = auto; VSGM_SEED overrides)")
		scenario = fs.String("scenario", "", "named scenario mix (default: live-default)")
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

	logf("soak: seed %d (replay with -seed %d or %s=%d)", runSeed, runSeed, randseed.EnvVar, runSeed)
	rep, err := soak.RunLive(soak.LiveConfig{Duration: *duration, Seed: runSeed, Scenario: scen, ForceViolation: *force, Log: progress})
	if err != nil {
		return fmt.Errorf("soak: %w", err)
	}
	fmt.Fprint(out, rep.Render())
	if path := reportPath(*report, runSeed, rep); path != "" {
		if err := rep.WriteFile(path); err != nil {
			return fmt.Errorf("soak: write report: %w", err)
		}
		fmt.Fprintf(out, "report written to %s\n", path)
	}
	if !rep.OK() {
		return fmt.Errorf("invariant violations detected (see report above; replay with -seed %d)", runSeed)
	}
	return nil
}

// reportPath decides where (and whether) to persist the report: an explicit
// -report path always persists; otherwise only violated runs do, to a
// deterministic temp-dir artifact named after the replay seed.
func reportPath(explicit string, seed int64, rep *soak.Report) string {
	if explicit != "" {
		return explicit
	}
	if rep.OK() {
		return ""
	}
	return filepath.Join(os.TempDir(), fmt.Sprintf("vsgm-soak-seed%d.report", seed))
}

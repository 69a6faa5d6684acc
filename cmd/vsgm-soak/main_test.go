package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vsgm/internal/randseed"
)

// TestRunLiveSoakSmoke runs a live soak whose phase budget is spent at boot:
// the cluster forms, stabilizes and passes its checkers.
func TestRunLiveSoakSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the soak's state root
	var buf bytes.Buffer
	if err := run([]string{"-duration", "1ms", "-seed", "7", "-q"}, &buf); err != nil {
		t.Fatalf("live soak failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "seed 7") {
		t.Fatalf("output does not log the replay seed:\n%s", out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("output does not report a clean run:\n%s", out)
	}
}

// TestRunForcedViolationWritesReport forces a fabricated Local Monotonicity
// violation into a live soak whose phase budget is spent at boot, and checks
// that the report holds everything a post-mortem needs — the violation, the
// replay seed, the chaos schedule and the reconfiguration trace timeline —
// and that the artifact on disk is the report the run printed.
func TestRunForcedViolationWritesReport(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the state root a violated run keeps
	report := filepath.Join(t.TempDir(), "soak.report")
	var buf bytes.Buffer
	err := run([]string{
		"-duration", "1ms", "-seed", "7",
		"-force-violation", "-report", report, "-q",
	}, &buf)
	if err == nil {
		t.Fatalf("forced violation did not fail the run:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), report) {
		t.Fatalf("violation output does not print the report path:\n%s", buf.String())
	}
	b, rerr := os.ReadFile(report)
	if rerr != nil {
		t.Fatalf("report artifact missing: %v", rerr)
	}
	for _, want := range []string{
		"FAIL",
		"seed 7",
		"Local Monotonicity",
		"replay: " + randseed.EnvVar + "=7",
		"chaos schedule:",
		"forced-violation",
		"reconfiguration trace timeline:",
		"view_install",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("report lacks %q:\n%s", want, b)
		}
	}
	if !strings.Contains(buf.String(), string(b)) {
		t.Fatalf("artifact on disk is not the report the run printed:\n%s", b)
	}
}

// TestRunRejectsUnknownMode checks that vsgm-soak, which runs only the live
// soak, refuses a -mode argument instead of silently running the live soak
// for a script written against the old per-mode command line.
func TestRunRejectsUnknownMode(t *testing.T) {
	for _, mode := range []string{"bogus", "sim", "world", "shard"} {
		var buf bytes.Buffer
		if err := run([]string{"-mode", mode}, &buf); err == nil {
			t.Fatalf("unknown mode %q accepted", mode)
		}
	}
}

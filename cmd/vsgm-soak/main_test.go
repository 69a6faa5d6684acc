package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunShardSoakSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-mode", "shard", "-duration", "200ms", "-seed", "7", "-q"}, &buf); err != nil {
		t.Fatalf("shard soak failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "seed 7") {
		t.Fatalf("output does not log the replay seed:\n%s", out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("output does not report a clean run:\n%s", out)
	}
}

func TestRunForcedViolationWritesReport(t *testing.T) {
	report := filepath.Join(t.TempDir(), "soak.report")
	var buf bytes.Buffer
	err := run([]string{
		"-mode", "shard", "-duration", "100ms", "-seed", "7",
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
	for _, want := range []string{"seed", "7"} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("report lacks %q:\n%s", want, b)
		}
	}
}

func TestRunRejectsUnknownMode(t *testing.T) {
	for _, mode := range []string{"bogus", "sim", "world"} {
		var buf bytes.Buffer
		if err := run([]string{"-mode", mode}, &buf); err == nil {
			t.Fatalf("unknown mode %q accepted", mode)
		}
	}
}

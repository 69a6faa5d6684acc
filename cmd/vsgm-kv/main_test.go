package main

import (
	"bytes"
	"strings"
	"testing"
)

func runScript(t *testing.T, args []string, script string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, strings.NewReader(script), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return out.String()
}

// TestKVSmoke is the console smoke test: one scripted pass over every
// command family — routed writes and reads, both reshard kinds, crash and
// recovery, partition and heal — ending in the full verification pass.
func TestKVSmoke(t *testing.T) {
	out := runScript(t, []string{"-shards", "2", "-slots", "16", "-seed", "7"}, `
set color blue
set fruit mango
set city lisbon
get color
where color
map
reshard slots 0 3 0 1
reshard group 1 s1-p01 s1-p03 s1-p04
set after reshard
get after
crash 0 s0-p01
set during crash
recover 0 s0-p01
partition 0 s0-p00 s0-p02 | s0-p01
set split brain
heal 0
del fruit
get fruit
stats
verify
quit
`)
	for _, want := range []string{
		`color = "blue"`,
		"map epoch now 2",   // slot move bumps 1 -> 2
		"map epoch now 3",   // group move bumps 2 -> 3
		`after = "reshard"`, // writes land after resharding
		"recovered from its store (synced=true)",
		"fruit is unset", // delete observed
		"all specification checkers pass",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("smoke output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "! ") {
		t.Errorf("smoke script hit an error:\n%s", out)
	}
}

func TestKVRoutedSetGet(t *testing.T) {
	out := runScript(t, []string{"-shards", "3", "-slots", "16"}, `
set alpha 1
set beta 2
set gamma 3
get alpha
get beta
get gamma
verify
quit
`)
	for _, want := range []string{`alpha = "1"`, `beta = "2"`, `gamma = "3"`, "all specification checkers pass"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestKVSlotReshardMovesData(t *testing.T) {
	// Move every slot of shard 0 except the last one it owns, then verify
	// the acknowledged writes survive wherever they landed.
	out := runScript(t, []string{"-shards", "2", "-slots", "8"}, `
set k0 a
set k1 b
set k2 c
reshard slots 0 2 0 1
get k0
get k1
get k2
verify
quit
`)
	for _, want := range []string{`k0 = "a"`, `k1 = "b"`, `k2 = "c"`, "acknowledged writes intact"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestKVErrorsAreReportedNotFatal(t *testing.T) {
	out := runScript(t, []string{"-shards", "2"}, `
get
bogus
crash 9 s9-p00
reshard slots 0 99 0 1
quit
`)
	for _, want := range []string{"usage: get <key>", "unknown command", "no shard 9", "aborted"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing error %q:\n%s", want, out)
		}
	}
}

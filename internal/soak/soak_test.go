package soak

import (
	"math/rand"
	"testing"
	"time"

	"vsgm/internal/randseed"
)

// logReplay prints the seed line every randomized soak test emits, so a
// failure in CI can be replayed exactly (see docs/TESTING.md).
func logReplay(t *testing.T, seed int64) {
	t.Helper()
	t.Logf("PRNG seed %d (replay: %s=%d go test -run '%s' ./internal/soak)",
		seed, randseed.EnvVar, seed, t.Name())
}

func TestScenarioPickIsWeightedAndDeterministic(t *testing.T) {
	sc := LiveScenario()
	counts := make(map[PhaseKind]int)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		counts[sc.pick(rng)]++
	}
	for _, w := range sc.Weights {
		if counts[w.Kind] == 0 {
			t.Errorf("phase %s (weight %d) never drawn in 2000 picks", w.Kind, w.Weight)
		}
	}
	if counts[PhaseTraffic] <= counts[PhaseFlashCrowd] {
		t.Errorf("weight 4 phase drawn %d times, weight 2 phase %d times — weighting inverted",
			counts[PhaseTraffic], counts[PhaseFlashCrowd])
	}
	// Same seed, same stream.
	a, b := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		if sc.pick(a) != sc.pick(b) {
			t.Fatal("same seed produced different phase streams")
		}
	}
}

// TestScenarioValidateRejectsUnsupportedPhase holds the mix and the phase
// table to each other: every kind the mix weighs has a body, and every body
// is drawn.
func TestScenarioValidateRejectsUnsupportedPhase(t *testing.T) {
	weighed := make(map[PhaseKind]bool)
	for _, w := range LiveScenario().Weights {
		if phases[w.Kind] == nil {
			t.Errorf("the mix weighs phase %q, which has no body", w.Kind)
		}
		if w.Weight <= 0 {
			t.Errorf("the mix weighs phase %q at %d, so it is never drawn", w.Kind, w.Weight)
		}
		weighed[w.Kind] = true
	}
	for kind := range phases {
		if !weighed[kind] {
			t.Errorf("phase %q has a body the mix never draws", kind)
		}
	}
}

// TestLiveSoakSmoke runs a short live-cluster soak over real TCP loopback
// sockets. Long by nature; -short skips it (make check runs it via the
// soak-smoke target, make soak runs the full-duration version).
func TestLiveSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak: skipped under -short (run make soak-smoke or make soak)")
	}
	seed, _ := randseed.Pick(47)
	logReplay(t, seed)
	rep, err := RunLive(LiveConfig{Duration: 5 * time.Second, Seed: seed, StateRoot: t.TempDir(), Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("live soak violated the spec:\n%s", rep.Render())
	}
	if len(rep.Schedule.Steps) == 0 {
		t.Fatal("live soak executed no phases")
	}
	t.Logf("live soak: %d phases in %v", len(rep.Schedule.Steps), rep.Elapsed.Round(time.Millisecond))
}

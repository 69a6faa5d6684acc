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
	counts := make(map[string]int)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		counts[pickPhase(rng).kind]++
	}
	for _, ph := range livePhases {
		if counts[ph.kind] == 0 {
			t.Errorf("phase %s (weight %d) never drawn in 2000 picks", ph.kind, ph.weight)
		}
	}
	if counts["traffic"] <= counts["flash-crowd"] {
		t.Errorf("weight 4 phase drawn %d times, weight 2 phase %d times — weighting inverted",
			counts["traffic"], counts["flash-crowd"])
	}
	// Same seed, same stream.
	a, b := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		if pickPhase(a).kind != pickPhase(b).kind {
			t.Fatal("same seed produced different phase streams")
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

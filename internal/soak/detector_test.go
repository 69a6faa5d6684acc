package soak

import (
	"testing"
	"time"

	"vsgm/internal/randseed"
)

// TestDetectorSmokeFlappingLink is the seeded flapping-link slice: a live soak whose every chaos phase flaps one
// server-server link faster than an undamped detector stabilizes. The run
// must stay within the bounded-churn budget (spec.CheckChurn over the
// whole trace) AND the damping machinery must actually engage — flap
// crossings observed and at least one rejoin quarantine imposed — so a
// regression that silently disables damping fails the test even while the
// cluster happens to survive.
func TestDetectorSmokeFlappingLink(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak: skipped under -short")
	}
	seed, _ := randseed.Pick(67)
	logReplay(t, seed)
	sc := &Scenario{Name: "flap-smoke", Weights: []Weight{{PhaseFlappingLink, 1}}}
	rep, err := RunLive(LiveConfig{
		Duration:    4 * time.Second,
		Seed:        seed,
		StateRoot:   t.TempDir(),
		Scenario:    sc,
		ChurnBudget: 6,
		Log:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("flapping-link soak violated the spec:\n%s", rep.Render())
	}
	if len(rep.Schedule.Steps) == 0 {
		t.Fatal("soak executed no flapping phases")
	}
	if rep.DetectorFlaps < 2 {
		t.Fatalf("detector saw only %d flap crossings across %d flapping phases — suspicion never fired",
			rep.DetectorFlaps, len(rep.Schedule.Steps))
	}
	if rep.DetectorQuarantines < 1 {
		t.Fatalf("flap damping never engaged: %d flaps but 0 rejoin quarantines", rep.DetectorFlaps)
	}
	t.Logf("flapping-link soak: %d phases, %d transitions, %d flaps, %d quarantines in %v",
		len(rep.Schedule.Steps), rep.ChaosTransitions, rep.DetectorFlaps, rep.DetectorQuarantines,
		rep.Elapsed.Round(time.Millisecond))
}

// TestDetectorSmokeGrayFailure drives the gray-failure phase: one direction
// of a server-server link is blocked, and the reachability-bitmap
// reconciliation must converge every server on a symmetric verdict (the
// phase itself asserts no server keeps both ends of the broken pairing and
// that the verdict holds without oscillating). The report must additionally
// show the gray downgrade machinery fired.
func TestDetectorSmokeGrayFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak: skipped under -short")
	}
	seed, _ := randseed.Pick(71)
	logReplay(t, seed)
	sc := &Scenario{Name: "gray-smoke", Weights: []Weight{{PhaseGrayFailure, 1}}}
	rep, err := RunLive(LiveConfig{
		Duration:  3 * time.Second,
		Seed:      seed,
		StateRoot: t.TempDir(),
		Scenario:  sc,
		Log:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("gray-failure soak violated the spec:\n%s", rep.Render())
	}
	if len(rep.Schedule.Steps) == 0 {
		t.Fatal("soak executed no gray-failure phases")
	}
	if rep.DetectorGrayDrops < 1 {
		t.Fatalf("gray reconciliation never fired across %d gray-failure phases", len(rep.Schedule.Steps))
	}
	t.Logf("gray-failure soak: %d phases, %d gray downgrades in %v",
		len(rep.Schedule.Steps), rep.DetectorGrayDrops, rep.Elapsed.Round(time.Millisecond))
}

// TestLiveSoakClientScramble concentrates on the client half of
// arbitrary-state convergence: every phase scrambles a live client's
// in-memory identifier watermarks, and the run's final CheckConvergence
// must still hold — the node either self-clamps impossible values or
// re-floats huge ones through its attach claim. Closes the client-side
// injection gap left open by the server-side scramble phases.
func TestLiveSoakClientScramble(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak: skipped under -short")
	}
	seed, _ := randseed.Pick(73)
	logReplay(t, seed)
	sc := &Scenario{Name: "client-scramble-smoke", Weights: []Weight{
		{PhaseClientScramble, 3},
		{PhaseTraffic, 1},
	}}
	rep, err := RunLive(LiveConfig{
		Duration:  3 * time.Second,
		Seed:      seed,
		StateRoot: t.TempDir(),
		Scenario:  sc,
		Log:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("client-scramble soak violated the spec:\n%s", rep.Render())
	}
	scrambles := 0
	for _, st := range rep.Schedule.Steps {
		if st.Kind == PhaseClientScramble {
			scrambles++
		}
	}
	if scrambles == 0 {
		t.Fatal("soak executed no client-scramble phases")
	}
	t.Logf("client-scramble soak: %d scrambles in %d phases, %v",
		scrambles, len(rep.Schedule.Steps), rep.Elapsed.Round(time.Millisecond))
}

package soak

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vsgm/internal/obs"
	"vsgm/internal/randseed"
	"vsgm/internal/spec"
	"vsgm/internal/types"
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

func TestScenarioValidateRejectsUnsupportedPhase(t *testing.T) {
	_, err := drive(settings{seed: 1, scenario: LiveScenario()}, func(chaos) (*world, error) {
		return &world{phases: map[PhaseKind]func(time.Duration) error{
			PhaseTraffic: func(time.Duration) error { return nil },
		}}, nil
	})
	if err == nil {
		t.Fatal("the loop accepted a scenario with phases its world cannot execute")
	}
	if _, err := ScenarioByName("no-such-mix"); err == nil {
		t.Fatal("unknown scenario name resolved")
	}
	if sc, err := ScenarioByName("live-default"); err != nil || sc.Name != "live-default" {
		t.Fatalf("live-default did not resolve: %v", err)
	}
}

// TestDriveForcedViolationReportsTimeline runs the shared loop over a stub
// world whose tracer holds one reconfiguration, forces a fabricated Local
// Monotonicity violation, and checks the report dumps everything a
// post-mortem needs: the violation, the replay seed, the chaos schedule, and
// the reconfiguration trace timeline.
func TestDriveForcedViolationReportsTimeline(t *testing.T) {
	var now time.Duration
	tracer := obs.NewTracer(obs.NewRegistry(), obs.WithNow(func() time.Time { return time.Unix(0, 0).Add(now) }))
	et := tracer.ForEndpoint("p00")
	et.StartChange(types.StartChange{ID: 1})
	et.ViewInstalled(types.NewView(2, types.NewProcSet("p00"), map[types.ProcID]types.StartChangeID{"p00": 1}))
	suite := spec.FullSuite()
	s := settings{duration: 30 * time.Millisecond, seed: 5, force: true,
		scenario: &Scenario{Name: "stub", Weights: []Weight{{PhaseTraffic, 1}}}}
	rep, err := drive(s, func(ch chaos) (*world, error) {
		return &world{
			phases: map[PhaseKind]func(time.Duration) error{
				PhaseTraffic: func(at time.Duration) error {
					ch.sched.Note(at, PhaseTraffic, "nothing sent")
					now += 10 * time.Millisecond
					return nil
				},
			},
			now:       func() time.Duration { return now },
			stabilize: func() error { return nil },
			verdict:   func(*Report) error { return suite.Err() },
			victim:    func() types.ProcID { return "p00" },
			record:    suite.OnEvent,
			tracer:    tracer,
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("forced violation not reported")
	}
	out := rep.Render()
	for _, want := range []string{
		"FAIL",
		"Local Monotonicity",
		"replay: " + randseed.EnvVar + "=5",
		"chaos schedule:",
		"forced-violation",
		"reconfiguration trace timeline:",
		"view_install",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("violation report missing %q:\n%s", want, out)
		}
	}
	path := filepath.Join(t.TempDir(), "report.txt")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != out {
		t.Fatalf("artifact on disk does not match the rendered report (err=%v)", err)
	}
}

// TestLiveSoakArbitraryState is the live-cluster arbitrary-state soak: WAL
// scrambles through the fsck/repair path and in-memory record scrambles
// through the sanitizer, asserting bounded reconvergence throughout. Long
// by nature; -short skips it.
func TestLiveSoakArbitraryState(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak: skipped under -short (run make soak-smoke or make soak)")
	}
	seed, _ := randseed.Pick(59)
	logReplay(t, seed)
	rep, err := RunLive(LiveConfig{Duration: 5 * time.Second, Seed: seed, StateRoot: t.TempDir(),
		Scenario: LiveArbitraryScenario(), Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("arbitrary-state live soak violated the spec:\n%s", rep.Render())
	}
	if len(rep.Schedule.Steps) == 0 {
		t.Fatal("live soak executed no phases")
	}
	t.Logf("arbitrary-state live soak: %d phases in %v", len(rep.Schedule.Steps), rep.Elapsed.Round(time.Millisecond))
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

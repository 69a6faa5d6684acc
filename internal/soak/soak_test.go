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
	sc := ShardScenario()
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
	if counts[PhaseTraffic] <= counts[PhaseReshardGroup] {
		t.Errorf("weight 4 phase drawn %d times, weight 2 phase %d times — weighting inverted",
			counts[PhaseTraffic], counts[PhaseReshardGroup])
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
	if _, err := RunShard(ShardConfig{Duration: time.Millisecond, Seed: 1, Scenario: LiveScenario()}); err == nil {
		t.Fatal("shard runner accepted a scenario with live phases it cannot execute")
	}
	if _, err := ScenarioByName("no-such-mix"); err == nil {
		t.Fatal("unknown scenario name resolved")
	}
	if sc, err := ScenarioByName("live-default"); err != nil || sc.Name != "live-default" {
		t.Fatalf("live-default did not resolve: %v", err)
	}
}

// TestSimSoakScheduleReplays runs the virtual-time soak twice on one seed
// and demands bit-identical chaos schedules — the reproducibility contract
// behind every logged seed.
func TestSimSoakScheduleReplays(t *testing.T) {
	t.Run("shard", func(t *testing.T) {
		var schedules [2]string
		for i := range schedules {
			rep, err := RunShard(ShardConfig{Duration: 300 * time.Millisecond, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			schedules[i] = rep.Schedule.Render()
		}
		if schedules[0] != schedules[1] {
			t.Fatalf("same seed produced different schedules:\n--- first\n%s--- second\n%s", schedules[0], schedules[1])
		}
	})
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
	s := settings{mode: "stub", duration: 30 * time.Millisecond, seed: 5, force: true,
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

// TestShardSoakDefault runs the sharded-KV soak under the default mixed
// scenario: client traffic through the epoch-cached router, both reshard
// kinds with traffic between their steps, partitions and crash/recovery —
// and the no-lost-acknowledged-writes checker as the verdict.
func TestShardSoakDefault(t *testing.T) {
	seed, _ := randseed.Pick(61)
	logReplay(t, seed)
	dur := 800 * time.Millisecond // virtual time
	if testing.Short() {
		dur = 400 * time.Millisecond
	}
	rep, err := RunShard(ShardConfig{Duration: dur, Seed: seed, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("shard soak violated the spec:\n%s", rep.Render())
	}
	if len(rep.Schedule.Steps) == 0 {
		t.Fatal("shard soak executed no phases")
	}
	if rep.EventsChecked == 0 {
		t.Fatal("shard soak acknowledged no writes — nothing was checked")
	}
}

// TestShardSoakReshardUnderChurn is the acceptance slice from the issue: a
// seeded reshard-under-churn run — crashes, recoveries, and partitions
// injected between the steps of in-flight reshards — must end with every
// acknowledged write still readable at its owning shard.
func TestShardSoakReshardUnderChurn(t *testing.T) {
	seed := int64(1009) // fixed: this is the acceptance slice, not a fuzz run
	logReplay(t, seed)
	dur := 900 * time.Millisecond // virtual time
	if testing.Short() {
		dur = 500 * time.Millisecond
	}
	rep, err := RunShard(ShardConfig{
		Duration: dur, Seed: seed, Shards: 3,
		Scenario: ReshardUnderChurnScenario(), Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("reshard-under-churn soak lost acknowledged writes:\n%s", rep.Render())
	}
	if rep.EventsChecked == 0 {
		t.Fatal("churn soak acknowledged no writes — nothing was checked")
	}
	t.Logf("reshard-under-churn: %d phases, %d acked writes verified", len(rep.Schedule.Steps), rep.EventsChecked)
}

package soak

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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
	sc := SimScenario()
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
	if counts[PhaseTraffic] <= counts[PhaseOscillate] {
		t.Errorf("weight 4 phase drawn %d times, weight 1 phase %d times — weighting inverted",
			counts[PhaseTraffic], counts[PhaseOscillate])
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
	if _, err := RunSim(SimConfig{Duration: time.Millisecond, Seed: 1, Scenario: WorldScenario()}); err == nil {
		t.Fatal("sim runner accepted a scenario with flash-crowd phases it cannot execute")
	}
	if _, err := ScenarioByName("no-such-mix"); err == nil {
		t.Fatal("unknown scenario name resolved")
	}
	if sc, err := ScenarioByName("live-default"); err != nil || sc.Name != "live-default" {
		t.Fatalf("live-default did not resolve: %v", err)
	}
}

// TestSimSoakScheduleReplays runs the same seeded sim soak twice and
// demands bit-identical chaos schedules — the reproducibility contract
// behind every logged seed.
func TestSimSoakScheduleReplays(t *testing.T) {
	run := func() string {
		rep, err := RunSim(SimConfig{Duration: 300 * time.Millisecond, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Schedule.Render()
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("same seed produced different schedules:\n--- first\n%s--- second\n%s", first, second)
	}
}

func TestSimSoak(t *testing.T) {
	seed, _ := randseed.Pick(23)
	logReplay(t, seed)
	dur := 2 * time.Second // virtual time
	if testing.Short() {
		dur = 400 * time.Millisecond
	}
	rep, err := RunSim(SimConfig{Duration: dur, Seed: seed, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("sim soak violated the spec:\n%s", rep.Render())
	}
	if len(rep.Schedule.Steps) < 5 {
		t.Fatalf("soak ran only %d phases over %v of virtual time", len(rep.Schedule.Steps), dur)
	}
}

// TestSimSoakWithStabilityAcks is the sim soak with within-view garbage
// collection on, as every live end-point runs: partitions, crashes and view
// races while members acknowledge every other delivery and drop the slots
// the view has acknowledged. A collector that frees a slot some member still
// needs forwarded, or counts an acknowledgment against the wrong view, ends
// as a spec violation or a wedged view change here.
func TestSimSoakWithStabilityAcks(t *testing.T) {
	seed, _ := randseed.Pick(29)
	logReplay(t, seed)
	dur := time.Second // virtual time
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	rep, err := RunSim(SimConfig{Duration: dur, Seed: seed, AckInterval: 2, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("sim soak with stability acks violated the spec:\n%s", rep.Render())
	}
}

// TestSimSoakForcedViolationReport forces a fabricated Local Monotonicity
// violation and checks the report dumps everything a post-mortem needs:
// the violation, the replay seed, the chaos schedule, and the
// reconfiguration trace timeline.
func TestSimSoakForcedViolationReport(t *testing.T) {
	rep, err := RunSim(SimConfig{Duration: 200 * time.Millisecond, Seed: 5, ForceViolation: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("forced violation not reported")
	}
	out := rep.Render()
	for _, want := range []string{
		"FAIL",
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

// TestWorldSoakSampled drives the large-population client-server soak with
// sampled spec checking. The full population (10k endpoints, the paper's
// scalability regime) runs outside -short; -short keeps a smaller crowd so
// the tier-1 suite stays fast.
func TestWorldSoakSampled(t *testing.T) {
	seed, _ := randseed.Pick(31)
	logReplay(t, seed)
	cfg := WorldConfig{Duration: 6 * time.Second, Seed: seed, Clients: 10000, SampleEvery: 100, Log: t.Logf}
	if testing.Short() {
		cfg = WorldConfig{Duration: 1500 * time.Millisecond, Seed: seed, Clients: 600, SampleEvery: 10, Log: t.Logf}
	}
	rep, err := RunWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("world soak violated the spec:\n%s", rep.Render())
	}
	if rep.EventsChecked >= rep.EventsSeen {
		t.Fatalf("sampling had no effect: checked %d of %d events", rep.EventsChecked, rep.EventsSeen)
	}
	if rep.EventsChecked == 0 {
		t.Fatal("sampling kept no events at all")
	}
	if len(rep.Schedule.Steps) == 0 {
		t.Fatal("soak executed no phases")
	}
	t.Logf("world soak: population %d, %d/%d events checked, %d phases",
		rep.Population, rep.EventsChecked, rep.EventsSeen, len(rep.Schedule.Steps))
}

func TestWorldSoakForcedViolationReport(t *testing.T) {
	rep, err := RunWorld(WorldConfig{Duration: 300 * time.Millisecond, Seed: 3, Clients: 60, SampleEvery: 5, ForceViolation: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("forced violation not reported")
	}
	out := rep.Render()
	for _, want := range []string{"FAIL", "sampled checking: every 5th endpoint", "replay: " + randseed.EnvVar + "=3", "chaos schedule:"} {
		if !strings.Contains(out, want) {
			t.Errorf("violation report missing %q:\n%s", want, out)
		}
	}
}

// TestWorldSoakArbitraryState drives the arbitrary-state scenario: most
// phases scramble retained identifier records with fully random 64-bit
// patterns or resurrect corrupted counters, and the run must still converge
// to one agreed full view within the spec checker's round budget.
func TestWorldSoakArbitraryState(t *testing.T) {
	seed, _ := randseed.Pick(53)
	logReplay(t, seed)
	cfg := WorldConfig{Duration: 4 * time.Second, Seed: seed, Clients: 2000, SampleEvery: 20,
		Scenario: WorldArbitraryScenario(), Log: t.Logf}
	if testing.Short() {
		cfg.Duration = 1200 * time.Millisecond
		cfg.Clients = 300
		cfg.SampleEvery = 5
	}
	rep, err := RunWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("arbitrary-state world soak violated the spec:\n%s", rep.Render())
	}
	if len(rep.Schedule.Steps) == 0 {
		t.Fatal("soak executed no phases")
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

package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// reconfigScenario is the hard window the paper's algorithm targets: a
// group forms, every member multicasts, and — with all of that traffic
// still undelivered — the membership announces and commits a change. Every
// interleaving of app messages, view messages, synchronization messages,
// and membership notifications must satisfy all specifications and converge.
func reconfigScenario(members, survivors types.ProcSet) Scenario {
	return func(c *Cluster) error {
		if err := c.StartChange(members); err != nil {
			return err
		}
		if _, err := c.DeliverView(members); err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		for _, p := range members.Sorted() {
			if _, err := c.Send(p, []byte("m-"+string(p))); err != nil {
				return err
			}
		}
		// Without draining: the change races the application traffic.
		if err := c.StartChange(survivors); err != nil {
			return err
		}
		v, err := c.DeliverView(survivors)
		if err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		for _, p := range survivors.Sorted() {
			if got := c.Endpoint(p).CurrentView(); !got.Equal(v) {
				return fmt.Errorf("%s stabilized in %s, want %s", p, got, v)
			}
		}
		return nil
	}
}

func TestExhaustiveTwoProcessReconfiguration(t *testing.T) {
	budget := 15_000
	if testing.Short() {
		budget = 1_000
	}
	members := types.NewProcSet("a", "b")
	res, err := Exhaustive(Config{Procs: []types.ProcID{"a", "b"}},
		reconfigScenario(members, members), budget)
	if err != nil {
		t.Fatalf("after %d schedules: %v", res.Schedules, err)
	}
	if !res.Exhausted {
		t.Logf("schedule tree larger than the budget; ran %d schedules", res.Schedules)
	}
	if res.Schedules < 10 {
		t.Fatalf("only %d schedules explored; the scenario has real nondeterminism", res.Schedules)
	}
	t.Logf("explored %d schedules (exhausted=%v)", res.Schedules, res.Exhausted)
}

func TestExhaustiveMemberLeaves(t *testing.T) {
	members := types.NewProcSet("a", "b", "c")
	survivors := types.NewProcSet("a", "b")
	res, err := Exhaustive(Config{Procs: []types.ProcID{"a", "b", "c"}},
		reconfigScenario(members, survivors), 3_000)
	if err != nil {
		t.Fatalf("after %d schedules: %v", res.Schedules, err)
	}
	t.Logf("explored %d schedules (exhausted=%v)", res.Schedules, res.Exhausted)
}

func TestExplorerDetectsInjectedViolation(t *testing.T) {
	// Sanity: the explorer actually fails when the scenario's assertions
	// fail — a scenario that claims a wrong final view must be reported.
	members := types.NewProcSet("a", "b")
	scenario := func(c *Cluster) error {
		if err := c.StartChange(members); err != nil {
			return err
		}
		if _, err := c.DeliverView(members); err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		return fmt.Errorf("injected failure")
	}
	_, err := Exhaustive(Config{Procs: []types.ProcID{"a", "b"}}, scenario, 100)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v, want the injected failure", err)
	}
}

func TestExhaustiveHierarchyThreeMembers(t *testing.T) {
	budget := 4_000
	if testing.Short() {
		budget = 500
	}
	procs := []types.ProcID{"a", "b", "c"}
	members := types.NewProcSet(procs...)
	cfg := Config{Procs: procs, HierarchyGroupSize: 2}
	res, err := Exhaustive(cfg, reconfigScenario(members, members), budget)
	if err != nil {
		t.Fatalf("after %d schedules: %v", res.Schedules, err)
	}
	t.Logf("explored %d hierarchy schedules (exhausted=%v)", res.Schedules, res.Exhausted)
}

// TestExhaustiveFormationTreeSize pins the size of the smallest complete
// schedule tree: two members forming one view. The count depends only on the
// channels the engine lists and the order they fill in, so a scheduler change
// that drops, merges, or adds a choice shows up here first.
func TestExhaustiveFormationTreeSize(t *testing.T) {
	members := types.NewProcSet("a", "b")
	res, err := Exhaustive(Config{Procs: []types.ProcID{"a", "b"}}, func(c *Cluster) error {
		if err := c.StartChange(members); err != nil {
			return err
		}
		if _, err := c.DeliverView(members); err != nil {
			return err
		}
		return c.Run()
	}, 100_000)
	if err != nil {
		t.Fatalf("after %d schedules: %v", res.Schedules, err)
	}
	if !res.Exhausted || res.Schedules != 280 {
		t.Fatalf("explored %d schedules (exhausted=%v), want exactly 280, exhausted", res.Schedules, res.Exhausted)
	}
}

// serverWorldSchedule runs one schedule of a server-world script: a fresh
// deployment of cfg's shape with an end-point for every client and a fresh
// full suite. The script draws its own choices from the chooser. Unclocked,
// the engine is handed the chooser too before the script starts; clocked,
// the engine runs on its virtual clock from a seed drawn first.
func serverWorldSchedule(cfg ServerWorldConfig, clocked bool, script func(w *ServerWorld, draw func(int) int) error) func(choose func(int) int) error {
	return func(choose func(int) int) error {
		suite := spec.FullSuite(spec.WithTrace())
		cfg.Suite = suite
		cfg.WithEndpoints = true
		if clocked {
			cfg.Seed = int64(choose(1 << 31))
		}
		w, err := NewServerWorld(cfg)
		if err != nil {
			return err
		}
		if !clocked {
			w.choose = choose
		}
		if err := script(w, choose); err != nil {
			return err
		}
		return suite.Err()
	}
}

// TestRunForUnderChooser pins RunFor's answer when the chooser has replaced
// the clock: an error, with nothing run, so the steps still wait for Run.
func TestRunForUnderChooser(t *testing.T) {
	c, err := NewCluster(Config{Procs: []types.ProcID{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	c.choose = (&chooser{}).choose
	ran := false
	c.At(0, func() { ran = true })
	if err := c.RunFor(time.Second); err == nil {
		t.Fatal("RunFor under the chooser returned no error")
	}
	if ran || c.Now() != 0 {
		t.Fatalf("RunFor under the chooser ran steps (ran=%v) or moved the clock (now=%v)", ran, c.Now())
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Run left the timer step queued")
	}
}

package explore

import (
	"fmt"
	"strings"
	"testing"

	"vsgm/internal/types"
)

// reconfigScenario is the hard window the paper's algorithm targets: a
// group forms, every member multicasts, and — with all of that traffic
// still undelivered — the membership announces and commits a change. Every
// interleaving of app messages, view messages, synchronization messages,
// and membership notifications must satisfy all specifications and converge.
func reconfigScenario(members, survivors types.ProcSet) Scenario {
	return func(w *World) error {
		if err := w.StartChange(members); err != nil {
			return err
		}
		if _, err := w.DeliverView(members); err != nil {
			return err
		}
		if err := w.Drain(); err != nil {
			return err
		}
		for _, p := range members.Sorted() {
			if _, err := w.Send(p, []byte("m-"+string(p))); err != nil {
				return err
			}
		}
		// Without draining: the change races the application traffic.
		if err := w.StartChange(survivors); err != nil {
			return err
		}
		v, err := w.DeliverView(survivors)
		if err != nil {
			return err
		}
		if err := w.Drain(); err != nil {
			return err
		}
		for _, p := range survivors.Sorted() {
			if got := w.Endpoint(p).CurrentView(); !got.Equal(v) {
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

func TestSwarmThreeProcesses(t *testing.T) {
	members := types.NewProcSet("a", "b", "c")
	runs := 300
	if testing.Short() {
		runs = 50
	}
	res, err := Swarm(Config{Procs: []types.ProcID{"a", "b", "c"}},
		reconfigScenario(members, members), runs, 1)
	if err != nil {
		t.Fatalf("after %d schedules: %v", res.Schedules, err)
	}
}

func TestSwarmCascadingChange(t *testing.T) {
	// Two changes committed back to back: schedules where the second
	// start_change overtakes the first view exercise the obsolete-view
	// skipping logic under every interleaving.
	procs := []types.ProcID{"a", "b", "c"}
	all := types.NewProcSet(procs...)
	pair := types.NewProcSet("a", "b")
	scenario := func(w *World) error {
		if err := w.StartChange(pair); err != nil {
			return err
		}
		if _, err := w.DeliverView(pair); err != nil {
			return err
		}
		if err := w.Drain(); err != nil {
			return err
		}
		if _, err := w.Send("a", []byte("x")); err != nil {
			return err
		}
		if err := w.StartChange(all); err != nil {
			return err
		}
		if _, err := w.DeliverView(all); err != nil {
			return err
		}
		// Cascade before anyone can settle.
		if err := w.StartChange(all); err != nil {
			return err
		}
		v, err := w.DeliverView(all)
		if err != nil {
			return err
		}
		if err := w.Drain(); err != nil {
			return err
		}
		for _, p := range procs {
			if got := w.Endpoint(p).CurrentView(); !got.Equal(v) {
				return fmt.Errorf("%s stabilized in %s, want %s", p, got, v)
			}
		}
		return nil
	}
	runs := 300
	if testing.Short() {
		runs = 50
	}
	if _, err := Swarm(Config{Procs: procs}, scenario, runs, 7); err != nil {
		t.Fatal(err)
	}
}

func TestExplorerDetectsInjectedViolation(t *testing.T) {
	// Sanity: the explorer actually fails when the scenario's assertions
	// fail — a scenario that claims a wrong final view must be reported.
	members := types.NewProcSet("a", "b")
	scenario := func(w *World) error {
		if err := w.StartChange(members); err != nil {
			return err
		}
		if _, err := w.DeliverView(members); err != nil {
			return err
		}
		if err := w.Drain(); err != nil {
			return err
		}
		return fmt.Errorf("injected failure")
	}
	_, err := Exhaustive(Config{Procs: []types.ProcID{"a", "b"}}, scenario, 100)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v, want the injected failure", err)
	}
}

func TestSwarmHierarchyAndOptimizations(t *testing.T) {
	// Model-check the extensions together: the two-tier hierarchy, the
	// §5.2.4 small/elided syncs, and stability acks, under every explored
	// interleaving of a reconfiguration with in-flight traffic.
	procs := []types.ProcID{"a", "b", "c", "d"}
	members := types.NewProcSet(procs...)
	survivors := types.NewProcSet("a", "b", "c")
	runs := 250
	if testing.Short() {
		runs = 40
	}
	cfg := Config{
		Procs:              procs,
		SmallSync:          true,
		AckInterval:        1,
		HierarchyGroupSize: 2,
	}
	if _, err := Swarm(cfg, reconfigScenario(members, survivors), runs, 11); err != nil {
		t.Fatal(err)
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

func TestSwarmCrashDuringReconfiguration(t *testing.T) {
	// A member crashes while the change that would have included it is in
	// flight; the membership then excludes it. Every interleaving of the
	// doomed change's traffic with the corrective change must stay safe
	// and converge.
	procs := []types.ProcID{"a", "b", "c"}
	all := types.NewProcSet(procs...)
	survivors := types.NewProcSet("a", "b")
	scenario := func(w *World) error {
		if err := w.StartChange(all); err != nil {
			return err
		}
		if _, err := w.DeliverView(all); err != nil {
			return err
		}
		if err := w.Drain(); err != nil {
			return err
		}
		if _, err := w.Send("a", []byte("x")); err != nil {
			return err
		}
		if _, err := w.Send("c", []byte("doomed")); err != nil {
			return err
		}
		if err := w.StartChange(all); err != nil {
			return err
		}
		// c dies mid-change; the membership corrects to the survivors.
		if err := w.Crash("c"); err != nil {
			return err
		}
		if err := w.StartChange(survivors); err != nil {
			return err
		}
		v, err := w.DeliverView(survivors)
		if err != nil {
			return err
		}
		if err := w.Drain(); err != nil {
			return err
		}
		for _, p := range survivors.Sorted() {
			if got := w.Endpoint(p).CurrentView(); !got.Equal(v) {
				return fmt.Errorf("%s stabilized in %s, want %s", p, got, v)
			}
		}
		return nil
	}
	runs := 300
	if testing.Short() {
		runs = 50
	}
	if _, err := Swarm(Config{Procs: procs}, scenario, runs, 13); err != nil {
		t.Fatal(err)
	}
	// The same churn with within-view collection on: the survivors must
	// still be able to forward what the crashed member's peers lack.
	if _, err := Swarm(Config{Procs: procs, AckInterval: 1}, scenario, runs, 17); err != nil {
		t.Fatalf("with stability acks: %v", err)
	}
}

func TestSwarmRecoveryRejoin(t *testing.T) {
	procs := []types.ProcID{"a", "b"}
	all := types.NewProcSet(procs...)
	scenario := func(w *World) error {
		if err := w.StartChange(all); err != nil {
			return err
		}
		if _, err := w.DeliverView(all); err != nil {
			return err
		}
		if err := w.Drain(); err != nil {
			return err
		}
		if err := w.Crash("b"); err != nil {
			return err
		}
		if err := w.StartChange(types.NewProcSet("a")); err != nil {
			return err
		}
		if _, err := w.DeliverView(types.NewProcSet("a")); err != nil {
			return err
		}
		if err := w.Drain(); err != nil {
			return err
		}
		if err := w.Recover("b"); err != nil {
			return err
		}
		if err := w.StartChange(all); err != nil {
			return err
		}
		v, err := w.DeliverView(all)
		if err != nil {
			return err
		}
		if err := w.Drain(); err != nil {
			return err
		}
		for _, p := range procs {
			if got := w.Endpoint(p).CurrentView(); !got.Equal(v) {
				return fmt.Errorf("%s stabilized in %s, want %s", p, got, v)
			}
		}
		return nil
	}
	res, err := Exhaustive(Config{Procs: procs}, scenario, 3000)
	if err != nil {
		t.Fatalf("after %d schedules: %v", res.Schedules, err)
	}
	t.Logf("explored %d crash/recovery schedules (exhausted=%v)", res.Schedules, res.Exhausted)
}

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
	scenario := func(c *Cluster) error {
		if err := c.StartChange(pair); err != nil {
			return err
		}
		if _, err := c.DeliverView(pair); err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		if _, err := c.Send("a", []byte("x")); err != nil {
			return err
		}
		if err := c.StartChange(all); err != nil {
			return err
		}
		if _, err := c.DeliverView(all); err != nil {
			return err
		}
		// Cascade before anyone can settle.
		if err := c.StartChange(all); err != nil {
			return err
		}
		v, err := c.DeliverView(all)
		if err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		for _, p := range procs {
			if got := c.Endpoint(p).CurrentView(); !got.Equal(v) {
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
	scenario := func(c *Cluster) error {
		if err := c.StartChange(all); err != nil {
			return err
		}
		if _, err := c.DeliverView(all); err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		if _, err := c.Send("a", []byte("x")); err != nil {
			return err
		}
		if _, err := c.Send("c", []byte("doomed")); err != nil {
			return err
		}
		if err := c.StartChange(all); err != nil {
			return err
		}
		// c dies mid-change; the membership corrects to the survivors.
		if err := c.Crash("c"); err != nil {
			return err
		}
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
	scenario := func(c *Cluster) error {
		if err := c.StartChange(all); err != nil {
			return err
		}
		if _, err := c.DeliverView(all); err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		if err := c.Crash("b"); err != nil {
			return err
		}
		if err := c.StartChange(types.NewProcSet("a")); err != nil {
			return err
		}
		if _, err := c.DeliverView(types.NewProcSet("a")); err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		if err := c.Recover("b"); err != nil {
			return err
		}
		if err := c.StartChange(all); err != nil {
			return err
		}
		v, err := c.DeliverView(all)
		if err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		for _, p := range procs {
			if got := c.Endpoint(p).CurrentView(); !got.Equal(v) {
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
// two-server deployment with one end-point client per server and a fresh
// full suite, its engine handed the chooser before the script starts.
func serverWorldSchedule(script func(w *ServerWorld) error) func(choose func(int) int) error {
	return func(choose func(int) int) error {
		suite := spec.FullSuite(spec.WithTrace())
		w, err := NewServerWorld(ServerWorldConfig{
			Servers:          2,
			ClientsPerServer: 1,
			Suite:            suite,
			WithEndpoints:    true,
		})
		if err != nil {
			return err
		}
		w.choose = choose
		if err := script(w); err != nil {
			return err
		}
		return suite.Err()
	}
}

// TestSwarmServerWorld explores the membership servers' own protocol with
// the end-points above it: server-to-server proposals, server-to-client
// notifications and client traffic interleave freely through a boot, a view
// change with multicasts in flight, a partition and a heal. Every schedule
// must satisfy the full suite and end in one shared view of both clients.
func TestSwarmServerWorld(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 40
	}
	res, err := swarm(serverWorldSchedule(func(w *ServerWorld) error {
		if err := w.Boot(); err != nil {
			return err
		}
		for _, cid := range w.Clients() {
			if _, err := w.Send(cid, []byte("m-"+string(cid))); err != nil {
				return err
			}
		}
		if err := w.TriggerChange(); err != nil {
			return err
		}
		s := w.Servers()
		if err := w.PartitionServers(types.NewProcSet(s[0]), types.NewProcSet(s[1])); err != nil {
			return err
		}
		if err := w.HealServers(); err != nil {
			return err
		}
		all := types.NewProcSet(w.Clients()...)
		first := w.Endpoint(w.Clients()[0]).CurrentView()
		for _, cid := range w.Clients() {
			if got := w.Endpoint(cid).CurrentView(); !got.Members.Equal(all) || !got.Equal(first) {
				return fmt.Errorf("%s stabilized in %s, want one shared view of %s", cid, got, all)
			}
		}
		return nil
	}), runs, 3)
	if err != nil {
		t.Fatalf("after %d schedules: %v", res.Schedules, err)
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

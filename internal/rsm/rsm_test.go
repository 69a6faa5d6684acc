package rsm_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/rsm"
	"vsgm/internal/shard"
	"vsgm/internal/sim"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// world wires one replica (over a shard KV machine) per cluster member.
type world struct {
	c        *sim.Cluster
	replicas map[types.ProcID]*rsm.Replica
	stores   map[types.ProcID]*shard.Machine
}

func newWorld(t *testing.T, n int, seed int64, bootstrap func(types.ProcID) bool, opts ...func(*sim.Config)) *world {
	t.Helper()
	w := &world{
		replicas: make(map[types.ProcID]*rsm.Replica),
		stores:   make(map[types.ProcID]*shard.Machine),
	}
	cfg := sim.Config{
		Procs:           sim.ProcIDs(n),
		Latency:         sim.UniformLatency{Base: 10 * time.Millisecond, Jitter: 5 * time.Millisecond},
		MembershipRound: 10 * time.Millisecond,
		Seed:            seed,
		Suite:           spec.FullSuite(),
		OnAppEvent: func(p types.ProcID, ev core.Event) {
			if r := w.replicas[p]; r != nil {
				if err := r.HandleEvent(ev); err != nil {
					t.Errorf("replica %s: %v", p, err)
				}
			}
		},
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	c, err := sim.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.c = c
	for _, p := range c.Procs() {
		p := p
		store := shard.NewMachine(nil)
		r, err := rsm.NewReplica(rsm.Config{
			ID:        p,
			Machine:   store,
			Bootstrap: bootstrap(p),
			Send: func(payload []byte) error {
				_, err := c.Send(p, payload)
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		w.replicas[p] = r
		w.stores[p] = store
	}
	return w
}

func (w *world) assertConverged(t *testing.T, members types.ProcSet) {
	t.Helper()
	var ref string
	var refProc types.ProcID
	for i, p := range members.Sorted() {
		if !w.replicas[p].Synced() {
			t.Fatalf("replica %s is not synced", p)
		}
		fp := w.stores[p].Fingerprint()
		if i == 0 {
			ref, refProc = fp, p
			continue
		}
		if fp != ref {
			t.Fatalf("state diverged: %s has %q, %s has %q", p, fp, refProc, ref)
		}
	}
}

func TestReplicationSteadyState(t *testing.T) {
	w := newWorld(t, 3, 31, func(types.ProcID) bool { return true })
	all := types.NewProcSet(w.c.Procs()...)
	if _, _, err := w.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		p := w.c.Procs()[i%3]
		if err := w.replicas[p].Propose(shard.EncodeSet(fmt.Sprintf("k%d", i), string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	w.assertConverged(t, all)
	if got := w.stores[w.c.Procs()[0]].Len(); got != 10 {
		t.Errorf("store has %d keys, want 10", got)
	}
}

func TestStateTransferToJoiner(t *testing.T) {
	// p02 is a late joiner with no state; the transitional set tells the
	// founders it needs a snapshot.
	w := newWorld(t, 3, 37, func(p types.ProcID) bool { return p != "p02" })
	procs := w.c.Procs()
	founders := types.NewProcSet(procs[0], procs[1])
	if _, _, err := w.c.ReconfigureTo(founders); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.replicas[procs[0]].Propose(shard.EncodeSet(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	if w.replicas[procs[2]].Synced() {
		t.Fatal("joiner should not be synced before joining")
	}

	all := types.NewProcSet(procs...)
	if _, _, err := w.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	w.assertConverged(t, all)
	if got, want := w.stores[procs[2]].Len(), 5; got != want {
		t.Errorf("joiner store has %d keys, want %d", got, want)
	}

	// The joiner participates after syncing.
	if err := w.replicas[procs[2]].Propose(shard.EncodeSet("late", "yes")); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	w.assertConverged(t, all)
	if v, ok := w.stores[procs[0]].Get("late"); !ok || v != "yes" {
		t.Errorf("founder store missing joiner's update, got %q ok=%v", v, ok)
	}
}

func TestNoStateTransferWhenMovingTogether(t *testing.T) {
	// When all members move together (T == members), Virtual Synchrony
	// guarantees identical state and the replicas skip the snapshot
	// exchange entirely — the paper's Section 4.1.2 motivation.
	w := newWorld(t, 3, 41, func(types.ProcID) bool { return true })
	all := types.NewProcSet(w.c.Procs()...)
	if _, _, err := w.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	if err := w.replicas[w.c.Procs()[0]].Propose(shard.EncodeSet("a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}

	applied := make(map[types.ProcID]int64)
	for _, p := range w.c.Procs() {
		applied[p] = w.replicas[p].Applied()
	}
	// Same-membership reconfiguration: everyone moves together.
	if _, _, err := w.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	w.assertConverged(t, all)
	for _, p := range w.c.Procs() {
		if got := w.replicas[p].Applied(); got != applied[p] {
			t.Errorf("%s applied %d new commands across a together-move, want 0", p, got-applied[p])
		}
	}
}

func TestPartitionMergeAdoptsDeterministicState(t *testing.T) {
	w := newWorld(t, 4, 43, func(types.ProcID) bool { return true })
	procs := w.c.Procs()
	all := types.NewProcSet(procs...)
	if _, _, err := w.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	if err := w.replicas[procs[0]].Propose(shard.EncodeSet("shared", "0")); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}

	left := types.NewProcSet(procs[0], procs[1])
	right := types.NewProcSet(procs[2], procs[3])
	if _, err := w.c.Partition(left, right); err != nil {
		t.Fatal(err)
	}
	// Divergent updates on the two sides.
	if err := w.replicas[procs[0]].Propose(shard.EncodeSet("left", "L")); err != nil {
		t.Fatal(err)
	}
	if err := w.replicas[procs[2]].Propose(shard.EncodeSet("right", "R")); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	w.assertConverged(t, left)
	w.assertConverged(t, right)

	// Merge: all four replicas converge on one deterministic state.
	w.c.HealConnectivity()
	if _, _, err := w.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	w.assertConverged(t, all)
}

func TestReplicationOverHierarchicalSyncs(t *testing.T) {
	// The full application stack (RSM over total order over the GCS) on top
	// of the two-tier hierarchy extension: a 6-member store with groups of
	// 2 converges through a partition/merge exactly like the flat
	// configuration.
	w := newWorld(t, 6, 53, func(types.ProcID) bool { return true },
		func(cfg *sim.Config) { cfg.HierarchyGroupSize = 2 })
	procs := w.c.Procs()
	all := types.NewProcSet(procs...)
	if _, _, err := w.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := w.replicas[procs[i]].Propose(shard.EncodeSet(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	w.assertConverged(t, all)

	left := types.NewProcSet(procs[0], procs[1], procs[2])
	right := types.NewProcSet(procs[3], procs[4], procs[5])
	if _, err := w.c.Partition(left, right); err != nil {
		t.Fatal(err)
	}
	if err := w.replicas[procs[0]].Propose(shard.EncodeSet("left", "L")); err != nil {
		t.Fatal(err)
	}
	if err := w.replicas[procs[4]].Propose(shard.EncodeSet("right", "R")); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	w.c.HealConnectivity()
	if _, _, err := w.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	w.assertConverged(t, all)
	if got := w.stores[procs[0]].Len(); got < 6 {
		t.Errorf("store lost keys across the merge: %d", got)
	}
}

// recordingMachine is a KV machine that also records every command it
// applies, as "sender:command", in order.
type recordingMachine struct {
	*shard.Machine
	applied *[]string
}

func (m recordingMachine) Apply(sender types.ProcID, cmd []byte) {
	*m.applied = append(*m.applied, fmt.Sprintf("%s:%q", sender, cmd))
	m.Machine.Apply(sender, cmd)
}

func TestReplicatedLogOrderIsIdentical(t *testing.T) {
	// Concurrent proposals from all members over the full stack: every
	// replica applies exactly the same (sender, command) sequence.
	applied := make(map[types.ProcID]*[]string)
	replicas := make(map[types.ProcID]*rsm.Replica)
	c, err := sim.NewCluster(sim.Config{
		Procs:           sim.ProcIDs(3),
		Latency:         sim.UniformLatency{Base: 10 * time.Millisecond, Jitter: 8 * time.Millisecond},
		MembershipRound: 10 * time.Millisecond,
		Seed:            61,
		OnAppEvent: func(p types.ProcID, ev core.Event) {
			if r := replicas[p]; r != nil {
				if err := r.HandleEvent(ev); err != nil {
					t.Errorf("replica %s: %v", p, err)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Procs() {
		p := p
		applied[p] = new([]string)
		replicas[p], err = rsm.NewReplica(rsm.Config{
			ID: p, Machine: recordingMachine{shard.NewMachine(nil), applied[p]}, Bootstrap: true,
			Send: func(b []byte) error {
				_, err := c.Send(p, b)
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	all := types.NewProcSet(c.Procs()...)
	if _, _, err := c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for _, p := range c.Procs() {
			if err := replicas[p].Propose(shard.EncodeSet(string(p), fmt.Sprint(round))); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RunFor(3 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := 15
	ref := strings.Join(*applied[c.Procs()[0]], "|")
	for _, p := range c.Procs() {
		if len(*applied[p]) != want {
			t.Errorf("%s applied %d commands, want %d", p, len(*applied[p]), want)
		}
		if strings.Join(*applied[p], "|") != ref {
			t.Errorf("%s apply order diverged", p)
		}
	}
}

// TestStaleBelieverRejoinDoesNotClobberState is the stale-believer merge
// regression: a member reconfigured out of the group never sees the views
// that excluded it, so it still thinks it is synced in its ancient view.
// When readmitted, its transitional set is a singleton and it publishes its
// stale snapshot — which must LOSE to the surviving group's snapshot (the
// higher leaving-view identifier wins), not clobber every replica with
// state from before its exclusion.
func TestStaleBelieverRejoinDoesNotClobberState(t *testing.T) {
	w := newWorld(t, 4, 61, func(p types.ProcID) bool { return p != "p03" })
	procs := w.c.Procs()
	original := types.NewProcSet(procs[0], procs[1], procs[2])
	if _, _, err := w.c.ReconfigureTo(original); err != nil {
		t.Fatal(err)
	}
	if err := w.replicas[procs[0]].Propose(shard.EncodeSet("survivor", "old")); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}

	// Exclude p00. It keeps its old view and still believes it is synced.
	rehomed := types.NewProcSet(procs[1], procs[2], procs[3])
	if _, _, err := w.c.ReconfigureTo(rehomed); err != nil {
		t.Fatal(err)
	}
	if err := w.replicas[procs[1]].Propose(shard.EncodeSet("survivor", "new")); err != nil {
		t.Fatal(err)
	}
	if err := w.replicas[procs[1]].Propose(shard.EncodeSet("post-exclusion", "yes")); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.replicas[procs[0]].Synced() {
		t.Fatal("excluded member should still believe it is synced (it never saw a newer view)")
	}

	// Readmit the stale believer alongside the survivors.
	all := types.NewProcSet(procs...)
	if _, _, err := w.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	if err := w.c.Run(); err != nil {
		t.Fatal(err)
	}
	w.assertConverged(t, all)
	for _, p := range procs {
		if v, ok := w.stores[p].Get("survivor"); !ok || v != "new" {
			t.Errorf("%s: survivor=%q ok=%v, want \"new\" — stale believer clobbered the group", p, v, ok)
		}
		if v, ok := w.stores[p].Get("post-exclusion"); !ok || v != "yes" {
			t.Errorf("%s: post-exclusion write lost (got %q ok=%v)", p, v, ok)
		}
	}
}

func TestNewReplicaValidation(t *testing.T) {
	send := func([]byte) error { return nil }
	if _, err := rsm.NewReplica(rsm.Config{Send: send, Machine: shard.NewMachine(nil)}); err == nil {
		t.Error("missing ID accepted")
	}
	if _, err := rsm.NewReplica(rsm.Config{ID: "p", Machine: shard.NewMachine(nil)}); err == nil {
		t.Error("missing Send accepted")
	}
	if _, err := rsm.NewReplica(rsm.Config{ID: "p", Send: send}); err == nil {
		t.Error("missing Machine accepted")
	}
	r, err := rsm.NewReplica(rsm.Config{ID: "p", Send: send, Machine: shard.NewMachine(nil), Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.ID() != "p" || !r.Synced() || r.Applied() != 0 {
		t.Error("fresh replica state wrong")
	}
	if !r.CurrentView().Equal(types.InitialView("p")) {
		t.Errorf("view = %s", r.CurrentView())
	}
}

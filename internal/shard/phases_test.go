package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vsgm/internal/randseed"
	"vsgm/internal/types"
)

// worldPhaseRun is one schedule of the sharded KV's phase vocabulary over a
// World: client writes through an epoch-cached Router, both reshard kinds
// with traffic or faults between their steps, quorum partitions, and
// crash/recovery. Every draw comes from the schedule's one rand.Rand and the
// World runs on its own virtual clock, so a schedule replays from its seed.
type worldPhaseRun struct {
	w       *World
	router  *Router
	rng     *rand.Rand
	phases  []string // the executed phases, with their draws
	nextKey int
	nextID  int
	bounced int // writes refused as retryable
}

// worldPhases runs one schedule of n phases from seed on a fresh World of two
// or three shards and ends it as a soak run stabilized: every shard healed to
// its group, every cluster run to quiescence, the acknowledgment ledger
// verified, then Close, which is the world's checkers' verdict. It returns
// the executed phase list, on failure too, and a digest of the end state
// (every replica's fingerprint, the map epoch and the acknowledgment count).
func worldPhases(seed int64, n int) (phases []string, digest string, err error) {
	rng := rand.New(rand.NewSource(seed))
	w, err := NewWorld(WorldConfig{Shards: 2 + rng.Intn(2), Seed: seed})
	if err != nil {
		return nil, "", err
	}
	r := &worldPhaseRun{w: w, router: NewRouter(w, 0), rng: rng}
	weighted := []struct {
		weight int
		run    func() error
	}{
		{4, r.traffic},
		{2, r.reshardGroup},
		{2, r.reshardSlots},
		{3, r.reshardChurn},
		{2, func() error { return r.partitionHeal(r.shard()) }},
		{2, func() error { return r.crashRestart(r.shard()) }},
	}
	for i := 0; i < n && err == nil; i++ {
		pick := rng.Intn(15)
		for _, ph := range weighted {
			if pick < ph.weight {
				err = ph.run()
				break
			}
			pick -= ph.weight
		}
	}
	if err == nil {
		digest, err = r.stabilize()
	}
	return r.phases, digest, errors.Join(err, w.Close())
}

// note records one executed phase.
func (r *worldPhaseRun) note(format string, args ...any) {
	r.phases = append(r.phases, fmt.Sprintf(format, args...))
}

// stabilize heals every shard to its (possibly re-homed) group, runs every
// cluster to quiescence, and checks that no acknowledged write was lost,
// that each reads back through the schedule's router, whose map the
// reshards left behind, and that something was written.
func (r *worldPhaseRun) stabilize() (string, error) {
	for _, id := range r.w.ShardIDs() {
		if err := r.w.HealShard(id, r.w.Group(id)); err != nil {
			return "", fmt.Errorf("shard %d did not stabilize: %w", id, err)
		}
	}
	if err := r.w.RunAll(); err != nil {
		return "", err
	}
	if err := r.w.VerifyAcked(); err != nil {
		return "", err
	}
	for _, a := range r.w.Acks() {
		if v, found, err := r.router.Get(a.Key); err != nil || found != !a.Deleted || (found && v != a.Value) {
			return "", fmt.Errorf("read of acknowledged %s=%q through the router: %q found=%v err=%v", a.Key, a.Value, v, found, err)
		}
	}
	if r.w.AckedWrites() == 0 {
		return "", fmt.Errorf("no write acknowledged (%d bounced): nothing was checked", r.bounced)
	}
	var b strings.Builder
	for _, id := range r.w.ShardIDs() {
		g := r.w.groups[id]
		for _, p := range g.procs {
			fmt.Fprintf(&b, "%s[%s]\n", p, g.machines[p].Fingerprint())
		}
	}
	fmt.Fprintf(&b, "epoch %d, %d acknowledged\n", r.w.CommittedMap().Epoch, r.w.AckedWrites())
	return b.String(), nil
}

// write issues n client writes through the router, a third of them rewriting
// an earlier key. A write bounced as retryable (a migrating slot, a shard
// briefly below quorum, a redirect storm while reshards move the map under
// this router) is counted: the client was never told it took.
func (r *worldPhaseRun) write(n int) error {
	for i := 0; i < n; i++ {
		var key string
		if r.nextKey > 0 && r.rng.Intn(3) == 0 {
			key = fmt.Sprintf("k%04d", r.rng.Intn(r.nextKey))
		} else {
			key = fmt.Sprintf("k%04d", r.nextKey)
			r.nextKey++
		}
		err := r.router.Set(key, fmt.Sprintf("v%d", r.rng.Int31()))
		switch {
		case errors.Is(err, ErrResharding), errors.Is(err, ErrUnavailable), errors.Is(err, ErrRedirectLoop):
			r.bounced++
		case err != nil:
			return fmt.Errorf("write %s: %w", key, err)
		}
	}
	return nil
}

// shard draws a shard id.
func (r *worldPhaseRun) shard() int {
	ids := r.w.ShardIDs()
	return ids[r.rng.Intn(len(ids))]
}

// traffic is a burst of client writes.
func (r *worldPhaseRun) traffic() error {
	n := 4 + r.rng.Intn(8)
	r.note("traffic %d", n)
	return r.write(n)
}

// groupMove draws a MoveGroup proposal: a new group of the same size from the
// shard's process universe, different from the current one.
func (r *worldPhaseRun) groupMove() (Reshard, bool) {
	id := r.shard()
	universe := r.w.GroupProcs(id)
	size := r.w.Group(id).Len()
	r.rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	next := types.NewProcSet(universe[:size]...)
	if next.Equal(r.w.Group(id)) {
		return Reshard{}, false
	}
	r.nextID++
	return Reshard{ID: fmt.Sprintf("mg-%d", r.nextID), Kind: MoveGroup, Shard: id, NewGroup: next.Sorted()}, true
}

// slotMove draws a MoveSlots proposal of one to three slots between two
// distinct shards, never stripping the source of its last slot.
func (r *worldPhaseRun) slotMove() (Reshard, bool) {
	ids := r.w.ShardIDs()
	src := ids[r.rng.Intn(len(ids))]
	dst := ids[r.rng.Intn(len(ids))]
	for dst == src {
		dst = ids[r.rng.Intn(len(ids))]
	}
	m := r.w.CommittedMap()
	owned := m.SlotsOwned(src)
	if len(owned) <= 1 {
		return Reshard{}, false
	}
	lo := owned[r.rng.Intn(len(owned)-1)]
	hi := min(lo+r.rng.Intn(3), len(m.Slots)-1)
	r.nextID++
	return Reshard{ID: fmt.Sprintf("ms-%d", r.nextID), Kind: MoveSlots, Shard: src, Dst: dst, SlotLo: lo, SlotHi: hi}, true
}

// reshard steps one proposal to completion, calling between after every
// step. A rejected proposal or a step failure under faults ends in a clean
// abort, which is legal: the ledger must still verify at the end.
func (r *worldPhaseRun) reshard(prop Reshard, between func() error) error {
	rs := NewResharder(r.w, prop)
	for {
		done, err := rs.Step()
		if err != nil {
			r.note("abort %s", prop.ID)
			return nil
		}
		if done {
			return nil
		}
		if err := between(); err != nil {
			return err
		}
	}
}

// trickle is the traffic between a reshard's steps.
func (r *worldPhaseRun) trickle() error { return r.write(1 + r.rng.Intn(3)) }

func (r *worldPhaseRun) reshardGroup() error {
	prop, ok := r.groupMove()
	if !ok {
		return r.traffic()
	}
	r.note("reshard-group %s: shard %d to %v", prop.ID, prop.Shard, prop.NewGroup)
	return r.reshard(prop, r.trickle)
}

func (r *worldPhaseRun) reshardSlots() error {
	prop, ok := r.slotMove()
	if !ok {
		return r.traffic()
	}
	r.note("reshard-slots %s: [%d,%d] shard %d to %d", prop.ID, prop.SlotLo, prop.SlotHi, prop.Shard, prop.Dst)
	return r.reshard(prop, r.trickle)
}

// reshardChurn runs a reshard of either kind with traffic between its steps
// and, one step in four each, a crash/recover or a partition/heal of a drawn
// shard while the handoff is in flight.
func (r *worldPhaseRun) reshardChurn() error {
	move := r.slotMove
	if r.rng.Intn(2) == 0 {
		move = r.groupMove
	}
	prop, ok := move()
	if !ok {
		return r.traffic()
	}
	r.note("reshard-churn %s (%s)", prop.ID, prop.Kind)
	return r.reshard(prop, func() error {
		if err := r.trickle(); err != nil {
			return err
		}
		switch r.rng.Intn(4) {
		case 0:
			return r.crashRestart(r.shard())
		case 1:
			return r.partitionHeal(r.shard())
		}
		return nil
	})
}

// crashRestart crashes one member of the shard's group while the survivors
// hold quorum, writes around the hole, then recovers it from its store and
// reconfigures it back in.
func (r *worldPhaseRun) crashRestart(id int) error {
	group := r.w.Group(id)
	if group.Len()-1 < group.Len()/2+1 {
		return r.write(2)
	}
	members := group.Sorted()
	p := members[r.rng.Intn(len(members))]
	r.note("crash-restart shard %d %s", id, p)
	if err := r.w.CrashReplica(id, p); err != nil {
		return err
	}
	if err := r.write(2); err != nil {
		return err
	}
	if err := r.w.RecoverReplica(id, p); err != nil {
		return err
	}
	return r.w.ReconfigureShard(id, group)
}

// partitionHeal splits the shard's group into a drawn majority and minority,
// writes through the majority, then heals.
func (r *worldPhaseRun) partitionHeal(id int) error {
	group := r.w.Group(id)
	if group.Len() < 3 {
		return r.write(2)
	}
	members := group.Sorted()
	r.rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	quorum := group.Len()/2 + 1
	maj, minority := types.NewProcSet(members[:quorum]...), types.NewProcSet(members[quorum:]...)
	r.note("partition-heal shard %d: %s | %s", id, maj, minority)
	if err := r.w.PartitionShard(id, maj, minority); err != nil {
		return err
	}
	if err := r.write(3); err != nil {
		return err
	}
	return r.w.HealShard(id, group)
}

// worldPhaseCount is the length of every TestWorldPhases schedule.
const worldPhaseCount = 12

// TestWorldPhases swarms the sharded KV's phase vocabulary over fresh Worlds
// of two or three shards: client writes, group and slot reshards with writes
// or crashes and partitions between their steps, quorum partitions and
// crash/recovery. Schedule i runs from seed+i; every one must keep the spec
// suites, the durable stores and every acknowledged write intact.
func TestWorldPhases(t *testing.T) {
	seed, _ := randseed.Pick(61)
	runs := 64
	if testing.Short() {
		runs = 16
	}
	for i := int64(0); i < int64(runs); i++ {
		phases, _, err := worldPhases(seed+i, worldPhaseCount)
		if err != nil {
			t.Fatalf("schedule seed %d (replay: %s=%d go test -run '%s' ./internal/shard): %v\nphases:\n  %s",
				seed+i, randseed.EnvVar, seed+i, t.Name(), err, strings.Join(phases, "\n  "))
		}
	}
}

// TestWorldPhasesReplay runs one schedule twice: the phase lists and the end
// states (every replica's state, the map epoch, the acknowledgment count)
// must match, or a logged seed would not replay its failure.
func TestWorldPhasesReplay(t *testing.T) {
	seed, _ := randseed.Pick(42)
	var phases [2][]string
	var digests [2]string
	for i := range digests {
		var err error
		if phases[i], digests[i], err = worldPhases(seed, worldPhaseCount); err != nil {
			t.Fatalf("schedule seed %d: %v", seed, err)
		}
	}
	if a, b := strings.Join(phases[0], "\n"), strings.Join(phases[1], "\n"); a != b {
		t.Fatalf("schedule seed %d ran different phases:\n--- first\n%s\n--- second\n%s", seed, a, b)
	}
	if digests[0] != digests[1] {
		t.Fatalf("schedule seed %d ended in different states:\n--- first\n%s--- second\n%s", seed, digests[0], digests[1])
	}
}

package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vsgm/internal/spec"
	"vsgm/internal/types"
)

func newTestWorld(t *testing.T, cfg WorldConfig) *World {
	t.Helper()
	if cfg.Slots == 0 {
		cfg.Slots = 16
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeOnCleanup(t, w)
	return w
}

// closeOnCleanup closes w when the test ends, after every cleanup registered
// later, and fails the test on its checkers' verdict or a store's close
// error.
func closeOnCleanup(tb testing.TB, w *World) {
	tb.Cleanup(func() {
		if err := w.Close(); err != nil {
			tb.Errorf("world close: %v", err)
		}
	})
}

// TestWorldCloseIsTheVerdict: Close reads the world's checkers, so a world
// cannot be closed past a violation. A membership view with a regressing
// identifier planted in the meta-group's suite fails Close; a second Close
// does nothing.
func TestWorldCloseIsTheVerdict(t *testing.T) {
	w, err := NewWorld(WorldConfig{Shards: 1, Slots: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := w.metaProcs[0]
	w.metaSuite.OnEvent(spec.EMView{P: p, View: types.NewView(
		0, types.NewProcSet(p), map[types.ProcID]types.StartChangeID{p: 1},
	)})
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "Local Monotonicity") {
		t.Fatalf("Close after a regressing meta view = %v, want a Local Monotonicity violation", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// keyForShard finds a key the map routes to the wanted shard.
func keyForShard(t *testing.T, m Map, shard int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("k%04d", i)
		if m.ShardForKey(k) == shard {
			return k
		}
	}
	t.Fatalf("no key found for shard %d", shard)
	return ""
}

// keyInSlotRange finds a key hashing into [lo,hi].
func keyInSlotRange(t *testing.T, m Map, lo, hi int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("r%04d", i)
		if s := m.SlotOf(k); s >= lo && s <= hi {
			return k
		}
	}
	t.Fatalf("no key found for slots [%d,%d]", lo, hi)
	return ""
}

func TestWorldBasicOpsThroughRouter(t *testing.T) {
	w := newTestWorld(t, WorldConfig{Shards: 2, Seed: 101})
	r := NewRouter(w, 0)
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("key%02d", i)
		if err := r.Set(k, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("key%02d", i)
		v, ok, err := r.Get(k)
		if err != nil || !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s = %q ok=%v err=%v", k, v, ok, err)
		}
	}
	if err := r.Del("key00"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r.Get("key00"); err != nil || ok {
		t.Fatalf("deleted key still present (err %v)", err)
	}
	if err := w.VerifyAcked(); err != nil {
		t.Fatal(err)
	}
	// Both shards served something (24 keys over 16 slots: overwhelmingly
	// likely, and deterministic for this seed/key set).
	for _, id := range w.ShardIDs() {
		if w.groups[id].ops.Value() == 0 {
			t.Errorf("shard %d served no ops", id)
		}
	}
}

func TestMoveGroupReshardKeepsAckedWrites(t *testing.T) {
	w := newTestWorld(t, WorldConfig{Shards: 2, Seed: 103})
	r := NewRouter(w, 0)
	for i := 0; i < 16; i++ {
		if err := r.Set(fmt.Sprintf("mg%02d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	epochBefore := w.CommittedMap().Epoch

	// Re-home shard 0 onto a group overlapping in one member only.
	procs := w.GroupProcs(0)
	newGroup := []types.ProcID{procs[2], procs[3], procs[4]}
	rs := NewResharder(w, Reshard{ID: "mg-1", Kind: MoveGroup, Shard: 0, NewGroup: newGroup})
	if err := rs.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.CommittedMap().Epoch; got != epochBefore+1 {
		t.Fatalf("epoch %d, want %d", got, epochBefore+1)
	}
	if !w.Group(0).Equal(types.NewProcSet(newGroup...)) {
		t.Fatalf("shard 0 group %s, want %v", w.Group(0), newGroup)
	}
	// The joiners hold the full state, marker included.
	for _, p := range newGroup {
		if got := w.Machine(0, p).LastMarker(); got != "mg-1" {
			t.Errorf("%s lacks handoff marker (has %q)", p, got)
		}
	}
	if err := w.VerifyAcked(); err != nil {
		t.Fatal(err)
	}
	// The re-homed shard keeps serving.
	if err := r.Set("after-move", "y"); err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyAcked(); err != nil {
		t.Fatal(err)
	}
	if w.reg != nil && w.mRounds.Value() != 1 {
		t.Errorf("reshard rounds %d, want 1", w.mRounds.Value())
	}
}

func TestMoveSlotsReshardRedirectsStaleClient(t *testing.T) {
	w := newTestWorld(t, WorldConfig{Shards: 2, Seed: 107})
	stale := NewRouter(w, 0)
	initial := w.CommittedMap()
	lo, hi := 0, 3
	moved := keyInSlotRange(t, initial, lo, hi)
	if initial.ShardForKey(moved) != 0 {
		t.Fatalf("slots [0,3] should start on shard 0")
	}
	if err := stale.Set(moved, "before"); err != nil {
		t.Fatal(err)
	}

	rs := NewResharder(w, Reshard{ID: "ms-1", Kind: MoveSlots, Shard: 0, Dst: 1, SlotLo: lo, SlotHi: hi})
	if err := rs.Run(); err != nil {
		t.Fatal(err)
	}
	after := w.CommittedMap()
	if after.ShardForKey(moved) != 1 {
		t.Fatalf("moved key still routed to shard %d", after.ShardForKey(moved))
	}

	// The stale client still holds the old map: its write bounces off shard
	// 0, refreshes, and lands on shard 1.
	wrongBefore := w.mWrong.Value()
	if err := stale.Set(moved, "after"); err != nil {
		t.Fatal(err)
	}
	if stale.Redirects() == 0 || w.mWrong.Value() == wrongBefore {
		t.Fatal("stale client should have been redirected")
	}
	if stale.Epoch() != after.Epoch {
		t.Fatalf("router cached epoch %d, want %d", stale.Epoch(), after.Epoch)
	}
	v, ok, err := stale.Get(moved)
	if err != nil || !ok || v != "after" {
		t.Fatalf("read-after-reshard: %q ok=%v err=%v", v, ok, err)
	}
	// The moved value survived and the source pruned its copy.
	if err := w.VerifyAcked(); err != nil {
		t.Fatal(err)
	}
	p := w.Group(0).Sorted()[0]
	if _, held := w.Machine(0, p).Get(moved); held {
		t.Error("source shard still holds the moved key after prune")
	}
	if w.mHandoff.Value() == 0 {
		t.Error("handoff bytes metric did not move")
	}
}

func TestStaleEpochSpanningTwoReshards(t *testing.T) {
	w := newTestWorld(t, WorldConfig{Shards: 2, Seed: 109})
	stale := NewRouter(w, 0)
	initial := w.CommittedMap()
	k01 := keyInSlotRange(t, initial, 0, 1) // shard 0 → shard 1 (reshard A)
	k89 := keyInSlotRange(t, initial, 8, 9) // shard 1 → shard 0 (reshard B)
	if err := stale.Set(k01, "one"); err != nil {
		t.Fatal(err)
	}
	if err := stale.Set(k89, "two"); err != nil {
		t.Fatal(err)
	}
	cachedEpoch := stale.Epoch()

	for _, r := range []Reshard{
		{ID: "span-a", Kind: MoveSlots, Shard: 0, Dst: 1, SlotLo: 0, SlotHi: 1},
		{ID: "span-b", Kind: MoveSlots, Shard: 1, Dst: 0, SlotLo: 8, SlotHi: 9},
	} {
		if err := NewResharder(w, r).Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.CommittedMap().Epoch; got != cachedEpoch+2 {
		t.Fatalf("epoch %d, want %d", got, cachedEpoch+2)
	}

	// The client's map is now two epochs stale and wrong about both keys.
	if err := stale.Set(k01, "one'"); err != nil {
		t.Fatal(err)
	}
	// After the first redirect the map is fresh; the second key routes
	// correctly on the first try.
	if err := stale.Set(k89, "two'"); err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyAcked(); err != nil {
		t.Fatal(err)
	}
	if got := stale.Epoch(); got != cachedEpoch+2 {
		t.Fatalf("router ended on epoch %d, want %d", got, cachedEpoch+2)
	}
}

// bouncingBackend always answers ErrWrongShard — a server whose map never
// agrees with ours.
type bouncingBackend struct {
	m     Map
	calls int
}

func (b *bouncingBackend) Do(int, int64, KVOp) (Result, error) {
	b.calls++
	return Result{}, ErrWrongShard
}

func (b *bouncingBackend) FetchMap() (Map, error) { return b.m, nil }

func TestRouterRedirectLoopBound(t *testing.T) {
	m := testMap(t, 2)
	b := &bouncingBackend{m: m}
	r := NewRouter(b, 3)
	err := r.Set("k", "v")
	if !errors.Is(err, ErrRedirectLoop) {
		t.Fatalf("err = %v, want ErrRedirectLoop", err)
	}
	if b.calls != 4 { // initial attempt + maxRedirects retries
		t.Fatalf("backend called %d times, want 4", b.calls)
	}
}

func TestConcurrentReshardProposalsSerialized(t *testing.T) {
	w := newTestWorld(t, WorldConfig{Shards: 2, Seed: 113})
	a := NewResharder(w, Reshard{ID: "c-a", Kind: MoveSlots, Shard: 0, Dst: 1, SlotLo: 0, SlotHi: 1})
	if _, err := a.Step(); err != nil { // begin only: a holds shard 0 and 1
		t.Fatal(err)
	}
	b := NewResharder(w, Reshard{ID: "c-b", Kind: MoveSlots, Shard: 1, Dst: 0, SlotLo: 8, SlotHi: 9})
	if err := b.Run(); !errors.Is(err, ErrRejected) {
		t.Fatalf("second concurrent proposal: err = %v, want ErrRejected", err)
	}
	// The loser's failure must not abort the winner: a runs to completion.
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	// With a committed and the shards free, b's proposal is accepted now.
	b2 := NewResharder(w, Reshard{ID: "c-b2", Kind: MoveSlots, Shard: 1, Dst: 0, SlotLo: 8, SlotHi: 9})
	if err := b2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.MetaMachineView().Rejected(); got != 1 {
		t.Errorf("meta rejected count %d, want 1", got)
	}
	if err := w.VerifyAcked(); err != nil {
		t.Fatal(err)
	}
}

func TestWritesToMigratingSlotBounceThenLand(t *testing.T) {
	w := newTestWorld(t, WorldConfig{Shards: 2, Seed: 127})
	r := NewRouter(w, 0)
	initial := w.CommittedMap()
	moved := keyInSlotRange(t, initial, 0, 3)
	if err := r.Set(moved, "v0"); err != nil {
		t.Fatal(err)
	}

	rs := NewResharder(w, Reshard{ID: "mid-1", Kind: MoveSlots, Shard: 0, Dst: 1, SlotLo: 0, SlotHi: 3})
	for i := 0; i < 2; i++ { // begin + snapshot: the range is now migrating
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Set(moved, "v1"); !errors.Is(err, ErrResharding) {
		t.Fatalf("write to migrating slot: err = %v, want ErrResharding", err)
	}
	// Reads still serve from the source during the handoff.
	if v, ok, err := r.Get(moved); err != nil || !ok || v != "v0" {
		t.Fatalf("read during handoff: %q ok=%v err=%v", v, ok, err)
	}
	if err := rs.Run(); err != nil {
		t.Fatal(err)
	}
	// Retry after cutover: redirected to the new owner and acknowledged.
	if err := r.Set(moved, "v1"); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := r.Get(moved); !ok || v != "v1" {
		t.Fatalf("post-cutover read %q ok=%v", v, ok)
	}
	if err := w.VerifyAcked(); err != nil {
		t.Fatal(err)
	}
}

func TestQuorumPartitionPreservesAckedWrites(t *testing.T) {
	w := newTestWorld(t, WorldConfig{Shards: 2, Seed: 131})
	r := NewRouter(w, 0)
	k := keyForShard(t, w.CommittedMap(), 0)
	if err := r.Set(k, "before"); err != nil {
		t.Fatal(err)
	}

	group := w.Group(0).Sorted()
	maj := types.NewProcSet(group[0], group[1])
	min := types.NewProcSet(group[2])
	if err := w.PartitionShard(0, maj, min); err != nil {
		t.Fatal(err)
	}
	// The minority replica is demoted: it must not be authoritative.
	if w.Replica(0, group[2]).Authoritative() {
		t.Fatal("minority replica still authoritative")
	}
	// Writes keep flowing through the majority and are acknowledged.
	if err := r.Set(k, "during"); err != nil {
		t.Fatal(err)
	}

	if err := w.HealShard(0, types.NewProcSet(group...)); err != nil {
		t.Fatal(err)
	}
	// The merge must adopt the primary component's state — the acknowledged
	// write survives on every replica, including the rejoined minority.
	if err := w.VerifyAcked(); err != nil {
		t.Fatal(err)
	}
	if v, ok := w.Machine(0, group[2]).Get(k); !ok || v != "during" {
		t.Fatalf("rejoined minority reads %q ok=%v, want %q", v, ok, "during")
	}
}

func TestCrashRecoverReplicaRejoins(t *testing.T) {
	w := newTestWorld(t, WorldConfig{Shards: 2, Seed: 137})
	r := NewRouter(w, 0)
	k := keyForShard(t, w.CommittedMap(), 0)
	if err := r.Set(k, "v1"); err != nil {
		t.Fatal(err)
	}
	group := w.Group(0).Sorted()
	victim := group[2]
	if err := w.CrashReplica(0, victim); err != nil {
		t.Fatal(err)
	}
	if err := r.Set(k, "v2"); err != nil { // survivors keep serving
		t.Fatal(err)
	}
	if err := w.RecoverReplica(0, victim); err != nil {
		t.Fatal(err)
	}
	if err := w.ReconfigureShard(0, types.NewProcSet(group...)); err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyAcked(); err != nil {
		t.Fatal(err)
	}
	if v, ok := w.Machine(0, victim).Get(k); !ok || v != "v2" {
		t.Fatalf("recovered replica reads %q ok=%v, want v2", v, ok)
	}
}

// TestWriteDuringPendingChangeIsNotAcknowledged: a write proposed while its
// group's membership change is announced but not yet installed waits behind
// the flush, so it has not applied when the group quiesces. The front door
// must answer ErrUnavailable rather than acknowledge it; once the view
// installs, the queued write applies and nothing acknowledged is missing.
func TestWriteDuringPendingChangeIsNotAcknowledged(t *testing.T) {
	w := newTestWorld(t, WorldConfig{Shards: 1, Seed: 149})
	g := w.groups[0]
	if err := g.c.StartChange(g.current); err != nil {
		t.Fatal(err)
	}
	if err := g.c.Run(); err != nil { // the members flush and block
		t.Fatal(err)
	}
	k := keyForShard(t, w.CommittedMap(), 0)
	if _, err := w.Do(0, 0, KVOp{Op: "set", Key: k, Value: "pending"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write during a pending change: err = %v, want ErrUnavailable", err)
	}
	if w.AckedWrites() != 0 {
		t.Fatalf("%d writes acknowledged during a pending change", w.AckedWrites())
	}
	if _, err := g.c.DeliverView(g.current); err != nil {
		t.Fatal(err)
	}
	if err := w.RunAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyAcked(); err != nil {
		t.Fatal(err)
	}
}

// TestCutoverRefusesMembersWithoutTheMarker: a group move cuts over only to
// a view whose every member applied the reshard's handoff marker. A move
// whose marker never rode the shard's total order aborts at cutover, and the
// map stays where it was.
func TestCutoverRefusesMembersWithoutTheMarker(t *testing.T) {
	w := newTestWorld(t, WorldConfig{Shards: 2, Seed: 151})
	if err := NewRouter(w, 0).Set(keyForShard(t, w.CommittedMap(), 0), "v"); err != nil {
		t.Fatal(err)
	}
	epoch := w.CommittedMap().Epoch
	next := w.GroupProcs(0)[2:5]
	rs := NewResharder(w, Reshard{ID: "mg-unmarked", Kind: MoveGroup, Shard: 0, NewGroup: next})
	for rs.StepName() != "marker" {
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	rs.next++ // the marker step never runs
	if _, err := rs.Step(); err == nil || !strings.Contains(err.Error(), "lacks handoff marker") {
		t.Fatalf("cutover without the marker: err = %v, want a missing-marker abort", err)
	}
	if got := w.MetaMachineView().Outcome("mg-unmarked"); got != OutcomeAborted {
		t.Fatalf("outcome %q, want %q", got, OutcomeAborted)
	}
	if got := w.CommittedMap().Epoch; got != epoch {
		t.Fatalf("map epoch moved from %d to %d on an aborted move", epoch, got)
	}
}

// TestWorldWriteCostDoesNotGrowWithAge drives one World far past the point
// where anything kept per write, or rewritten per fixed number of writes,
// would show, and asserts by count, not by clock: the snapshot bytes a replica
// writes per acknowledged write are no higher late than early, and never more
// than twice the log that paid for them, while the state triples in between;
// the acknowledgment ledger holds one entry per key, not per write.
func TestWorldWriteCostDoesNotGrowWithAge(t *testing.T) {
	if testing.Short() {
		t.Skip("200k replicated writes")
	}
	w := newTestWorld(t, WorldConfig{Shards: 1, Seed: 131})
	var stores []*countingStore
	for _, p := range w.Group(0).Sorted() {
		m := w.Machine(0, p)
		cs := &countingStore{Store: m.store}
		m.store = cs
		stores = append(stores, cs)
	}
	const keys, early, late = 30_000, 20_000, 200_000
	r := NewRouter(w, 0)
	rng := rand.New(rand.NewSource(131))
	value := strings.Repeat("v", 200)
	snapshotBytesPerWrite := func(writes int) (float64, int) {
		t.Helper()
		for n := int(w.AckedWrites()); n < writes; n++ {
			if err := r.Set(fmt.Sprintf("k%05d", rng.Intn(keys)), fmt.Sprintf("%s%d", value, n)); err != nil {
				t.Fatal(err)
			}
		}
		var snap, log int64
		for _, cs := range stores {
			if cs.appends != writes {
				t.Fatalf("a replica logged %d commands for %d acknowledged writes", cs.appends, writes)
			}
			if cs.snaps < 3 {
				t.Fatalf("only %d compactions after %d writes: too few to compare rates", cs.snaps, writes)
			}
			if cs.snapBytes > 2*cs.logBytes {
				t.Errorf("after %d writes a replica has written %d bytes of snapshots for %d bytes of log", writes, cs.snapBytes, cs.logBytes)
			}
			snap += cs.snapBytes
			log += cs.logBytes
		}
		return float64(snap) / float64(len(stores)) / float64(writes), w.Machine(0, w.Group(0).Min()).Len()
	}
	young, keysYoung := snapshotBytesPerWrite(early)
	old, keysOld := snapshotBytesPerWrite(late)
	t.Logf("snapshot bytes per write: %.0f after %d writes (%d keys), %.0f after %d (%d keys)", young, early, keysYoung, old, late, keysOld)
	if keysOld < 2*keysYoung {
		t.Fatalf("state grew from %d to %d keys; the test wants it at least doubled", keysYoung, keysOld)
	}
	if old > 2*young {
		t.Errorf("a write costs %.0f snapshot bytes after %d writes, %.0f after %d: the cost grows with the World's age", old, late, young, early)
	}
	if got := w.AckedWrites(); got != late {
		t.Errorf("AckedWrites() = %d, want %d", got, late)
	}
	if got := len(w.Acks()); got != keysOld {
		t.Errorf("the ledger holds %d acknowledgments for %d keys after %d writes", got, keysOld, late)
	}
	if err := w.VerifyAcked(); err != nil {
		t.Error(err)
	}
}

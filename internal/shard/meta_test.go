package shard

import (
	"testing"

	"vsgm/internal/types"
)

func testMap(t *testing.T, shards int) Map {
	t.Helper()
	groups := make(map[int][]types.ProcID, shards)
	for id := 0; id < shards; id++ {
		groups[id] = ShardProcs(id, 3)
	}
	m, err := NewUniformMap(16, groups)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUniformMapCoversAllSlots(t *testing.T) {
	m := testMap(t, 3)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, owner := range m.Slots {
		counts[owner]++
	}
	if len(counts) != 3 {
		t.Fatalf("expected 3 owners, got %v", counts)
	}
	for id, n := range counts {
		if n < 16/3 || n > 16/3+1 {
			t.Errorf("shard %d owns %d slots, want near-uniform", id, n)
		}
	}
}

func TestSlotForKeyDeterministic(t *testing.T) {
	for _, key := range []string{"", "a", "user:42", "zzz"} {
		s := SlotForKey(key, 64)
		if s < 0 || s >= 64 {
			t.Fatalf("slot %d out of range for %q", s, key)
		}
		if SlotForKey(key, 64) != s {
			t.Fatalf("hash not deterministic for %q", key)
		}
	}
}

func apply(m *MetaMachine, cmd []byte) { m.Apply("test", cmd) }

func TestMetaMachineConcurrentProposalsSecondRejected(t *testing.T) {
	m := NewMetaMachine(testMap(t, 2))
	a := Reshard{ID: "r-a", Kind: MoveSlots, Shard: 0, Dst: 1, SlotLo: 0, SlotHi: 3}
	b := Reshard{ID: "r-b", Kind: MoveSlots, Shard: 0, Dst: 1, SlotLo: 4, SlotHi: 7}
	apply(m, EncodeBegin(a))
	apply(m, EncodeBegin(b)) // same source shard: loses the race
	if got := m.Outcome("r-a"); got != OutcomeAccepted {
		t.Fatalf("first proposal outcome %q, want accepted", got)
	}
	if got := m.Outcome("r-b"); got == OutcomeAccepted || got == "" {
		t.Fatalf("second proposal outcome %q, want a rejection", got)
	}
	if m.Rejected() != 1 {
		t.Fatalf("rejected count %d, want 1", m.Rejected())
	}
	// After the first commits, the shard is free again.
	apply(m, EncodeCommit(a))
	if got := m.Outcome("r-a"); got != OutcomeCommitted {
		t.Fatalf("outcome %q, want committed", got)
	}
	apply(m, EncodeBegin(b))
	if got := m.Outcome("r-b"); got != OutcomeAccepted {
		t.Fatalf("retried proposal outcome %q, want accepted", got)
	}
}

func TestMetaMachineRejectsConflictingDestination(t *testing.T) {
	m := NewMetaMachine(testMap(t, 3))
	apply(m, EncodeBegin(Reshard{ID: "r-a", Kind: MoveSlots, Shard: 0, Dst: 2, SlotLo: 0, SlotHi: 1}))
	// Shard 1 is untouched by r-a, but its destination collides with r-a's.
	apply(m, EncodeBegin(Reshard{ID: "r-b", Kind: MoveSlots, Shard: 1, Dst: 2, SlotLo: 6, SlotHi: 7}))
	if got := m.Outcome("r-b"); got == OutcomeAccepted {
		t.Fatal("proposal with a busy destination shard should be rejected")
	}
	// A move between two uninvolved shards is fine.
	apply(m, EncodeBegin(Reshard{ID: "r-c", Kind: MoveGroup, Shard: 1, NewGroup: ShardProcs(1, 3)}))
	if got := m.Outcome("r-c"); got != OutcomeAccepted {
		t.Fatalf("independent proposal outcome %q, want accepted", got)
	}
}

func TestMetaMachineCommitFlipsOwnershipAndEpoch(t *testing.T) {
	m := NewMetaMachine(testMap(t, 2))
	before := m.CurrentMap()
	moved := before.SlotsOwned(0)[:2]
	r := Reshard{ID: "r-1", Kind: MoveSlots, Shard: 0, Dst: 1, SlotLo: moved[0], SlotHi: moved[1]}
	apply(m, EncodeBegin(r))
	apply(m, EncodeCommit(r))
	after := m.CurrentMap()
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("epoch %d, want %d", after.Epoch, before.Epoch+1)
	}
	for _, s := range moved {
		if after.Slots[s] != 1 {
			t.Errorf("slot %d still owned by %d", s, after.Slots[s])
		}
	}
}

func TestMetaMachineStaleCommitIgnored(t *testing.T) {
	m := NewMetaMachine(testMap(t, 2))
	r := Reshard{ID: "r-1", Kind: MoveGroup, Shard: 0, NewGroup: ShardProcs(0, 4)}
	apply(m, EncodeBegin(r))
	apply(m, EncodeAbort(r))
	before := m.CurrentMap()
	apply(m, EncodeCommit(r)) // aborted proposal: must not commit
	if got := m.CurrentMap().Epoch; got != before.Epoch {
		t.Fatalf("stale commit moved the epoch to %d", got)
	}
	if got := m.Outcome("r-1"); got != OutcomeAborted {
		t.Fatalf("outcome %q, want aborted", got)
	}
}

func TestMetaMachineSnapshotRoundTrip(t *testing.T) {
	m := NewMetaMachine(testMap(t, 2))
	apply(m, EncodeBegin(Reshard{ID: "r-1", Kind: MoveGroup, Shard: 0, NewGroup: ShardProcs(0, 4)}))
	snap := m.Snapshot()
	m2 := NewMetaMachine(testMap(t, 2))
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m2.PendingFor(0) == nil {
		t.Fatal("pending reshard lost across snapshot round trip")
	}
	if m2.Outcome("r-1") != OutcomeAccepted {
		t.Fatal("outcome journal lost across snapshot round trip")
	}
}

package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vsgm/internal/types"
	"vsgm/internal/wal"
)

// frontDoor is a warm 4-shard × 3-replica World on FileStores whose keys are
// all present, with each key's shard resolved once, so a Do measures the
// World's own per-op work and nothing the test does around it.
type frontDoor struct {
	w      *World
	keys   []string
	shards []int
	epoch  int64
	value  string
}

// Short values keep the logs far below compactMinLog, so no compaction
// lands inside a measurement.
const (
	frontDoorKeys   = 64
	frontDoorWarmup = 2000
)

func newFrontDoor(tb testing.TB) *frontDoor {
	tb.Helper()
	w, err := NewWorld(WorldConfig{Shards: 4, Replicas: 3, Seed: 41, StateDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	closeOnCleanup(tb, w)
	m := w.CommittedMap()
	f := &frontDoor{w: w, epoch: m.Epoch, value: "value-01"}
	for i := 0; i < frontDoorKeys; i++ {
		k := fmt.Sprintf("k%04d", i)
		f.keys = append(f.keys, k)
		f.shards = append(f.shards, m.ShardForKey(k))
	}
	for i := 0; i < frontDoorWarmup; i++ {
		f.set(tb, i)
	}
	return f
}

func (f *frontDoor) set(tb testing.TB, i int) {
	j := i % len(f.keys)
	if _, err := f.w.Do(f.shards[j], f.epoch, KVOp{Op: "set", Key: f.keys[j], Value: f.value}); err != nil {
		tb.Fatal(err)
	}
}

func (f *frontDoor) get(tb testing.TB, i int) {
	j := i % len(f.keys)
	res, err := f.w.Do(f.shards[j], f.epoch, KVOp{Op: "get", Key: f.keys[j]})
	if err != nil || !res.Found {
		tb.Fatalf("get %s: found=%v err=%v", f.keys[j], res.Found, err)
	}
}

// Allocation ceilings of one acknowledged op on a warm World. A Set is the
// proposal's command, the total-order and VS messages of three replicas, their
// deliveries and applies; a Get reads one machine and allocates nothing.
const (
	setAllocCeiling = 19
	getAllocCeiling = 0
)

// TestWorldOpAllocs pins the front door's per-op allocations: a Set no more
// than setAllocCeiling, a Get none.
func TestWorldOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	f := newFrontDoor(t)
	i := 0
	set := testing.AllocsPerRun(500, func() { f.set(t, i); i++ })
	get := testing.AllocsPerRun(500, func() { f.get(t, i); i++ })
	t.Logf("allocations per op: set %.0f, get %.0f", set, get)
	if set > setAllocCeiling {
		t.Errorf("a Set allocates %.0f times, ceiling %d", set, setAllocCeiling)
	}
	if get > getAllocCeiling {
		t.Errorf("a Get allocates %.0f times, ceiling %d", get, getAllocCeiling)
	}
	if err := f.w.Check(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWorldSet times one acknowledged Set through World.Do on the warm
// World of TestWorldOpAllocs.
func BenchmarkWorldSet(b *testing.B) {
	f := newFrontDoor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.set(b, i)
	}
}

// BenchmarkWorldGet times one Get through World.Do on the same World.
func BenchmarkWorldGet(b *testing.B) {
	f := newFrontDoor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.get(b, i)
	}
}

// TestWorldSetAppendsOneRecordPerReplica counts what an acknowledged write
// costs the disk: one WAL record on every member replica, none on a spare.
// 100 short Sets stay far below compactMinLog, so no snapshot truncates a log.
func TestWorldSetAppendsOneRecordPerReplica(t *testing.T) {
	dir := t.TempDir()
	w := newTestWorld(t, WorldConfig{Shards: 2, Replicas: 3, Seed: 43, StateDir: dir})
	r := NewRouter(w, 0)
	const writes = 100
	for i := 0; i < writes; i++ {
		k := keyInShard(t, w.CommittedMap(), 0, i)
		if err := r.Set(k, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	members := w.Group(0)
	for _, p := range w.GroupProcs(0) {
		b, err := os.ReadFile(filepath.Join(dir, "s0", string(p), wal.LogName))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		scan := wal.ScanRecords(b)
		if len(scan.Damaged) > 0 {
			t.Fatalf("%s: %d damaged ranges in wal.log", p, len(scan.Damaged))
		}
		want := 0
		if members.Contains(p) {
			want = writes
		}
		if got := len(scan.Records); got != want {
			t.Errorf("%s (member %v): wal.log holds %d records after %d acknowledged writes, want %d",
				p, members.Contains(p), got, writes, want)
		}
	}
}

// keyInShard returns the i-th key, in the order k0000, k0001, ..., that the
// map routes to shard.
func keyInShard(t *testing.T, m Map, shard, i int) string {
	t.Helper()
	for n := 0; n < 100000; n++ {
		k := fmt.Sprintf("k%04d", n)
		if m.ShardForKey(k) != shard {
			continue
		}
		if i == 0 {
			return k
		}
		i--
	}
	t.Fatalf("fewer than %d keys route to shard %d", i, shard)
	return ""
}

// TestAuthoritativePrefersLowestMember: the front door serves from the
// authoritative member with the lowest identifier, across a crash and a
// partition.
func TestAuthoritativePrefersLowestMember(t *testing.T) {
	w := newTestWorld(t, WorldConfig{Shards: 1, Replicas: 5, Seed: 47})
	g := w.groups[0]
	want := func(when string, p types.ProcID) {
		t.Helper()
		got, r, ok := g.authoritative()
		if !ok || got != p || r != g.replicas[p] {
			t.Fatalf("%s: authoritative() = %s (ok %v), want %s", when, got, ok, p)
		}
	}
	want("boot", "s0-p00")
	if err := w.CrashReplica(0, "s0-p00"); err != nil {
		t.Fatal(err)
	}
	want("after crashing s0-p00", "s0-p01")
	// s0-p01 is cut off alone; the majority side is {p02, p03, p04}.
	minority := types.NewProcSet("s0-p01")
	majority := types.NewProcSet("s0-p02", "s0-p03", "s0-p04")
	if err := w.PartitionShard(0, minority, majority); err != nil {
		t.Fatal(err)
	}
	want("after partitioning s0-p01 away", "s0-p02")
}

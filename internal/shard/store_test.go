package shard

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vsgm/internal/obs"
	"vsgm/internal/spec"
	"vsgm/internal/wal"
)

func TestMachineColdRestartFromFileStore(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(st)
	m.Apply("p", EncodeSet("a", "1"))
	m.Apply("p", EncodeSet("b", "2"))
	m.Apply("p", EncodeDel("a"))
	if _, ok := m.Get("a"); ok {
		t.Fatal("deleted key still read back")
	}
	fp := m.Fingerprint()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2, err := LoadMachine(st2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Fingerprint() != fp {
		t.Fatalf("cold restart diverged: %q vs %q", m2.Fingerprint(), fp)
	}
	if _, ok := m2.Get("a"); ok {
		t.Fatal("deleted key resurrected by replay")
	}
}

// countingStore counts what a machine asks of its store.
type countingStore struct {
	Store
	appends, snaps      int
	logBytes, snapBytes int64
}

func (c *countingStore) AppendCommand(cmd []byte) error {
	c.appends++
	c.logBytes += int64(len(cmd))
	return c.Store.AppendCommand(cmd)
}

func (c *countingStore) WriteSnapshot(snap []byte) error {
	c.snaps++
	c.snapBytes += int64(len(snap))
	return c.Store.WriteSnapshot(snap)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestMachineRestartAfterSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := &countingStore{Store: fs}
	m := NewMachine(st)
	// Cross the byte threshold so snapshot + truncated WAL both matter: 50
	// keys of 4 KiB values compact to 200 KiB, so it is compactMinLog of log
	// that triggers, a little after 256 commands.
	value := strings.Repeat("v", 4<<10)
	var wrote int64
	for i := 0; st.snaps == 0; i++ {
		if wrote > 2*compactMinLog {
			t.Fatalf("no compaction after %d bytes of log", wrote)
		}
		if wrote > 0 && wrote <= compactMinLog && fs.Size() != wrote {
			t.Fatalf("the machine counts %d bytes of log, the log's records take %d", wrote, fs.Size())
		}
		cmd := EncodeSet(key(i%50), value+key(i))
		m.Apply("p", cmd)
		wrote += logSize(cmd)
	}
	if wrote <= compactMinLog {
		t.Fatalf("compacted after %d bytes of log, before the %d-byte threshold", wrote, compactMinLog)
	}
	if got := fileSize(t, filepath.Join(dir, wal.LogName)); got != 0 {
		t.Fatalf("log holds %d bytes after compaction", got)
	}
	for i := 0; i < 10; i++ {
		m.Apply("p", EncodeSet(key(i), "tail"))
	}
	if m.StoreErr() != nil {
		t.Fatal(m.StoreErr())
	}
	fp := m.Fingerprint()
	st.Close()

	st2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2, err := LoadMachine(st2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Fingerprint() != fp {
		t.Fatal("compacted restart diverged")
	}
	// The restarted replica compacts on the same rule: it knows how large the
	// snapshot it loaded is and how much log it replayed on top of it.
	if m2.snapBytes != fileSize(t, filepath.Join(dir, wal.SnapshotName))-wal.HeaderSize || m2.logBytes != fileSize(t, filepath.Join(dir, wal.LogName)) {
		t.Fatalf("reloaded accounting: snapshot %d, log %d; files: %d, %d", m2.snapBytes, m2.logBytes,
			fileSize(t, filepath.Join(dir, wal.SnapshotName))-wal.HeaderSize, fileSize(t, filepath.Join(dir, wal.LogName)))
	}
}

// TestCompactionFollowsSnapshotSize: once the state outgrows compactMinLog the
// log between two snapshots is as long as the last snapshot, so the snapshot
// bytes written per command stay bounded however large the state is; and a
// machine that adopted a transferred snapshot, or was loaded from disk,
// carries on from that snapshot's size.
func TestCompactionFollowsSnapshotSize(t *testing.T) {
	value := strings.Repeat("v", 8<<10)
	src := NewMachine(nil)
	for i := 0; i < 400; i++ { // 3.2 MiB of state
		src.Apply("p", EncodeSet(key(i), value))
	}
	snap := src.Snapshot()
	if len(snap) < 3*compactMinLog {
		t.Fatalf("snapshot is %d bytes, the test wants it well past compactMinLog", len(snap))
	}

	st := &countingStore{Store: NewMemStore()}
	m := NewMachine(st)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if st.snaps != 1 || m.snapBytes != int64(len(snap)) || m.logBytes != 0 {
		t.Fatalf("after Restore: %d snapshots, accounting %d/%d", st.snaps, m.snapBytes, m.logBytes)
	}
	overwrite := func(m *Machine, until func() bool) (wrote int64) {
		for i := 0; !until(); i++ {
			cmd := EncodeSet(key(i%400), value)
			m.Apply("p", cmd)
			wrote += logSize(cmd)
			if wrote > 3*int64(len(snap)) {
				t.Fatalf("no compaction after %d bytes of log over a %d-byte snapshot", wrote, len(snap))
			}
		}
		return wrote
	}
	wrote := overwrite(m, func() bool { return st.snaps == 2 })
	if wrote <= int64(len(snap)) {
		t.Fatalf("compacted after %d bytes of log over a %d-byte snapshot", wrote, len(snap))
	}

	// Half a snapshot of log, then a restart: the other half triggers.
	half := overwrite(m, func() bool { return m.logBytes > m.snapBytes/2 })
	st2 := &countingStore{Store: st.Store}
	m2, err := LoadMachine(st2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.logBytes != half || m2.snapBytes != m.snapBytes {
		t.Fatalf("reloaded accounting %d/%d, want %d/%d", m2.snapBytes, m2.logBytes, m.snapBytes, half)
	}
	rest := overwrite(m2, func() bool { return st2.snaps == 1 })
	if total := half + rest; total <= m.snapBytes || total > m.snapBytes+2*logSize(EncodeSet(key(0), value)) {
		t.Fatalf("reloaded machine compacted after %d bytes of log over a %d-byte snapshot", total, m.snapBytes)
	}
}

// TestReplayOverSnapshotThatCoversIt is the crash point WriteSnapshot's
// comment names: the new snapshot is renamed into place and the process dies
// before the log is truncated. The restart replays, over the snapshot, the
// very commands the snapshot was made from, and must end where it was.
func TestReplayOverSnapshotThatCoversIt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const nslots = 8
	var inRange, outOfRange string
	for i := 0; inRange == "" || outOfRange == ""; i++ {
		if k := key(i); SlotForKey(k, nslots) <= 3 {
			inRange = k
		} else {
			outOfRange = k
		}
	}
	m := NewMachine(st)
	for _, cmd := range [][]byte{
		EncodeSet("a", "1"),
		EncodeSet("b", "2"),
		EncodeDel("a"), // a replayed set of a must not bring it back
		EncodeSet(inRange, "pruned"),
		EncodeSet(outOfRange, "kept"),
		EncodeInstall(map[string]string{"b": "3", "c": "4"}),
		EncodeMarker("r-1"),
		EncodePrune(0, 3, nslots),
		EncodeMarker("r-2"),
		EncodeSet("c", "5"),
		[]byte("not a command"),
	} {
		m.Apply("p", cmd)
	}
	fp := m.Fingerprint()
	walPath := filepath.Join(dir, wal.LogName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := os.WriteFile(walPath, wal, 0o644); err != nil { // the truncate never happened
		t.Fatal(err)
	}

	st2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2, err := LoadMachine(st2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Fingerprint() != fp {
		t.Fatalf("replaying covered commands changed the state:\n%s\n%s", m2.Fingerprint(), fp)
	}
}

func TestStoreTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(st)
	m.Apply("p", EncodeSet("a", "1"))
	m.Apply("p", EncodeSet("b", "2"))
	st.Close()

	// Simulate a crash mid-append: chop bytes off the WAL tail.
	walPath := filepath.Join(dir, wal.LogName)
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2, err := LoadMachine(st2)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m2.Get("a"); !ok || v != "1" {
		t.Fatalf("intact prefix lost: a=%q ok=%v", v, ok)
	}
	if _, ok := m2.Get("b"); ok {
		t.Fatal("torn record should not replay")
	}
}

// TestStoreMidLogFlipCostsOneCommand: one flipped byte a tenth of the way
// into a replica's log costs the command it sits in, not every command after
// it, and the loss is reported and kept: one damaged range inside that
// record's bounds, its bytes in wal.quarantine.
func TestStoreMidLogFlipCostsOneCommand(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(st)
	const n = 100
	for i := 0; i < n; i++ {
		m.Apply("p", EncodeSet(key(i), fmt.Sprintf("value-%d", i)))
	}
	st.Close()

	walPath := filepath.Join(dir, wal.LogName)
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	at := len(b) / 10
	offsets := wal.ScanRecords(b).Offsets
	hit := 0 // the record the flipped byte sits in
	for hit+1 < len(offsets) && offsets[hit+1] <= at {
		hit++
	}
	lo, hi := offsets[hit], offsets[hit+1]
	b[at] ^= 0x01
	if err := os.WriteFile(walPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2, err := LoadMachine(st2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok := m2.Get(key(i))
		if i == hit && ok {
			t.Fatalf("the damaged command replayed: %s=%q", key(i), v)
		}
		if i != hit && (!ok || v != fmt.Sprintf("value-%d", i)) {
			t.Fatalf("%s=%q (found %v), lost to damage in command %d", key(i), v, ok, hit)
		}
	}
	rep := st2.RepairReport()
	if rep.DamagedRanges() != 1 || rep.DamagedBytes() > hi-lo || rep.RecordsRecovered() != n-1 {
		t.Fatalf("report does not show one damaged range inside record %d:\n%s", hit, rep)
	}
	q, err := os.ReadFile(filepath.Join(dir, wal.QuarantineName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(q, b[lo:hi]) {
		t.Fatalf("quarantine does not hold the damaged record's bytes as they were on disk:\n%q", q)
	}
}

// TestDamagedSnapshotIsQuarantinedAndCounted: a replica's snapshot is one
// record, so one flipped byte loses it whole and the replica boots from its
// log tail alone — the group's survivors repair it by state transfer. What
// must not happen is that this passes silently: the repair report names
// snapshot.bin, the original bytes are kept, and a World opened over the
// state directory scrapes the damage under that replica's labels and zero
// under everyone else's.
func TestDamagedSnapshotIsQuarantinedAndCounted(t *testing.T) {
	root := t.TempDir()
	const victim = "s0-p01"
	dir := filepath.Join(root, "s0", victim)
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(st)
	for i := 0; i < 20; i++ {
		m.Apply("p", EncodeSet(key(i), "v"))
	}
	if err := st.WriteSnapshot(m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	m.Apply("p", EncodeSet("tail", "kept"))
	st.Close()

	snapPath := filepath.Join(dir, wal.SnapshotName)
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), snap...)
	damaged[len(damaged)/2] ^= 0x10
	if err := os.WriteFile(snapPath, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	w, err := NewWorld(WorldConfig{Shards: 2, Seed: 1, StateDir: root})
	if err != nil {
		t.Fatal(err)
	}
	closeOnCleanup(t, w)
	rep := w.groups[0].stores[victim].(*FileStore).RepairReport()
	if len(rep.Files) != 2 || rep.Files[0].Name != wal.SnapshotName || rep.Files[0].DamagedRanges != 1 ||
		!rep.Files[0].Rewritten || rep.Files[1].DamagedRanges != 0 {
		t.Fatalf("report does not name snapshot.bin as the damaged file:\n%s", rep)
	}
	q, err := os.ReadFile(filepath.Join(dir, wal.QuarantineName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(q, damaged) {
		t.Fatal("quarantine does not hold the damaged snapshot's bytes")
	}
	replicas := 0
	for _, s := range w.Registry().Snapshot().Samples {
		if s.Name != "vsgm_wal_repair_damaged_ranges_total" {
			continue
		}
		replicas++
		want := 0.0
		if labelValue(s.Labels, "shard") == "0" && labelValue(s.Labels, "replica") == victim {
			want = 1
		}
		if s.Value != want {
			t.Errorf("vsgm_wal_repair_damaged_ranges_total%v = %v, want %v", s.Labels, s.Value, want)
		}
	}
	if want := 2 * len(w.GroupProcs(0)); replicas != want {
		t.Fatalf("%d replicas publish a repair outcome, want %d", replicas, want)
	}
}

func labelValue(labels []obs.Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// TestCrashPointsNeverLoseAnAckedWrite enumerates every crash a replica's
// recorded write sequence can end in — every byte-length prefix of its final
// log, which is every torn final record, bare and followed by a mapped
// window's zeros — through open → repair → LoadMachine, with each write
// acknowledged when its append returned. No acknowledged write whose record
// lies wholly inside the surviving prefix may be missing, no damage may reach
// past the torn record, and a second open must find the directory clean.
func TestCrashPointsNeverLoseAnAckedWrite(t *testing.T) {
	src := t.TempDir()
	st, err := NewFileStore(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(st)
	type write struct {
		ack spec.KVAck
		end int64 // log size once this write's record is whole; 0 = in the snapshot
	}
	var writes []write
	var logEnd int64
	apply := func(k, v string) {
		cmd := EncodeSet(k, v)
		deleted := v == ""
		if deleted {
			cmd = EncodeDel(k)
		}
		m.Apply("p", cmd)
		logEnd += logSize(cmd)
		writes = append(writes, write{spec.KVAck{Key: k, Value: v, Seq: int64(len(writes) + 1), Deleted: deleted}, logEnd})
	}
	for i := 0; i < 6; i++ {
		apply(key(i%4), fmt.Sprintf("before-%d", i))
	}
	if err := st.WriteSnapshot(m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := range writes {
		writes[i].end = 0
	}
	logEnd = 0
	for i := 0; i < 10; i++ {
		apply(key(i%5), fmt.Sprintf("after-%d", i))
	}
	apply(key(1), "") // a delete
	apply(key(2), "last")
	if m.StoreErr() != nil {
		t.Fatal(m.StoreErr())
	}
	st.Close()
	final, err := os.ReadFile(filepath.Join(src, wal.LogName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(final)) != logEnd {
		t.Fatalf("the log holds %d bytes, the writes account for %d", len(final), logEnd)
	}

	// A crash leaves the prefix bare (a log appended to by write(2)) or
	// followed by zeros to the end of the mapped window (a process killed
	// with the window mapped), whose span the log's final bytes fit in.
	forms := map[string]func(prefix []byte) []byte{
		"bare": func(prefix []byte) []byte { return prefix },
		"window": func(prefix []byte) []byte {
			b := make([]byte, 64<<10)
			copy(b, prefix)
			return b
		},
	}
	for name, form := range forms {
		for cut := 0; cut <= len(final); cut++ {
			dir := filepath.Join(t.TempDir(), "crashed")
			if err := wal.CloneDir(src, dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, wal.LogName), form(final[:cut]), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := NewFileStore(dir)
			if err != nil {
				t.Fatalf("%s cut %d: %v", name, cut, err)
			}
			if rep := st.RepairReport(); rep.DamagedRanges() > 1 {
				t.Fatalf("%s cut %d: damage beyond the torn record:\n%s", name, cut, rep)
			}
			got, err := LoadMachine(st)
			if err != nil {
				t.Fatalf("%s cut %d: %v", name, cut, err)
			}
			var acked []spec.KVAck
			for _, w := range writes {
				if w.end <= int64(cut) {
					acked = append(acked, w.ack)
				}
			}
			if err := spec.CheckNoLostAckedWrites(acked, got.Get); err != nil {
				t.Fatalf("%s cut %d of %d: %v", name, cut, len(final), err)
			}
			st.Close()
			st, err = NewFileStore(dir)
			if err != nil {
				t.Fatalf("%s cut %d, second open: %v", name, cut, err)
			}
			if rep := st.RepairReport(); rep.Damaged() {
				t.Fatalf("%s cut %d: second open is not clean:\n%s", name, cut, rep)
			}
			st.Close()
		}
	}
}

func TestMachineRestoreWritesThroughToStore(t *testing.T) {
	st := NewMemStore()
	src := NewMachine(nil)
	src.Apply("p", EncodeSet("x", "42"))
	src.Apply("p", EncodeMarker("r-1"))

	dst := NewMachine(st)
	if err := dst.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadMachine(st)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := reloaded.Get("x"); !ok || v != "42" {
		t.Fatal("state transfer not durable")
	}
	if reloaded.LastMarker() != "r-1" {
		t.Fatal("handoff marker not durable")
	}
}

// TestRestoreOfNothingOverNothingWritesNothing: a founding replica adopts the
// empty state over a store nothing was ever written to, and that alone costs
// no snapshot. Anything in the store, or in the machine's past, does.
func TestRestoreOfNothingOverNothingWritesNothing(t *testing.T) {
	empty := NewMachine(nil).Snapshot()
	reloadsEmpty := func(st Store) {
		t.Helper()
		m, err := LoadMachine(st)
		if err != nil || m.Fingerprint() != "" {
			t.Fatalf("store reloads as %q (%v), want the empty state", m.Fingerprint(), err)
		}
	}

	st := &countingStore{Store: NewMemStore()}
	if err := NewMachine(st).Restore(empty); err != nil {
		t.Fatal(err)
	}
	if st.snaps != 0 {
		t.Errorf("adopting nothing over an empty store wrote %d snapshots", st.snaps)
	}
	reloadsEmpty(st)

	// A store left over from an earlier life is not empty, whatever the
	// machine in front of it believes.
	st = &countingStore{Store: NewMemStore()}
	NewMachine(st).Apply("p", EncodeSet("stale", "1"))
	if err := NewMachine(st).Restore(empty); err != nil {
		t.Fatal(err)
	}
	if st.snaps != 1 {
		t.Errorf("adopting nothing over a store with a log wrote %d snapshots, want 1", st.snaps)
	}
	reloadsEmpty(st)

	// Nor is one the machine itself has written to.
	st = &countingStore{Store: NewMemStore()}
	m := NewMachine(st)
	m.Apply("p", EncodeSet("k", "v"))
	if err := m.Restore(empty); err != nil {
		t.Fatal(err)
	}
	if st.snaps != 1 {
		t.Errorf("adopting nothing after a write wrote %d snapshots, want 1", st.snaps)
	}
	reloadsEmpty(st)
}

func TestRangeSnapshotAndPrune(t *testing.T) {
	m := NewMachine(nil)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, k := range keys {
		m.Apply("p", EncodeSet(k, "v"))
	}
	const nslots = 8
	snap := m.RangeSnapshot(0, 3, nslots)
	for k := range snap {
		if s := SlotForKey(k, nslots); s > 3 {
			t.Fatalf("key %q (slot %d) outside requested range", k, s)
		}
	}
	m.Apply("p", EncodePrune(0, 3, nslots))
	for _, k := range keys {
		_, ok := m.Get(k)
		inRange := SlotForKey(k, nslots) <= 3
		if inRange && ok {
			t.Errorf("key %q survived prune of its slot", k)
		}
		if !inRange && !ok {
			t.Errorf("key %q outside the range was pruned", k)
		}
	}
}

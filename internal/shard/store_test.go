package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		if wrote > 0 && wrote <= compactMinLog && fileSize(t, filepath.Join(dir, kvWALName)) != wrote {
			t.Fatalf("the machine counts %d bytes of log, the file has %d", wrote, fileSize(t, filepath.Join(dir, kvWALName)))
		}
		cmd := EncodeSet(key(i%50), value+key(i))
		m.Apply("p", cmd)
		wrote += logSize(cmd)
	}
	if wrote <= compactMinLog {
		t.Fatalf("compacted after %d bytes of log, before the %d-byte threshold", wrote, compactMinLog)
	}
	if got := fileSize(t, filepath.Join(dir, kvWALName)); got != 0 {
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
	if m2.snapBytes != fileSize(t, filepath.Join(dir, kvSnapName))-recordHeader || m2.logBytes != fileSize(t, filepath.Join(dir, kvWALName)) {
		t.Fatalf("reloaded accounting: snapshot %d, log %d; files: %d, %d", m2.snapBytes, m2.logBytes,
			fileSize(t, filepath.Join(dir, kvSnapName))-recordHeader, fileSize(t, filepath.Join(dir, kvWALName)))
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
	walPath := filepath.Join(dir, kvWALName)
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
	walPath := filepath.Join(dir, kvWALName)
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

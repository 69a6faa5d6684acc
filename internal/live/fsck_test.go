package live

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vsgm/internal/types"
	"vsgm/internal/wal"
	"vsgm/internal/wire"
)

// fsckFixture writes a WAL of n records into dir (via a real store, so the
// framing is exactly what production writes) and returns the records plus
// each record's byte offset in wal.log.
func fsckFixture(t *testing.T, dir string, n int) ([]wire.WALRecord, []int) {
	t.Helper()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]wire.WALRecord, n)
	for i := range recs {
		recs[i] = wire.WALRecord{
			Client: types.ProcID(string(rune('a' + i))),
			CID:    types.StartChangeID(i)<<32 + types.StartChangeID(i) + 1,
			Vid:    types.ViewID(i + 1),
			Epoch:  int64(i),
		}
		if err := store.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, wal.LogName))
	if err != nil {
		t.Fatal(err)
	}
	offsets := wal.ScanRecords(b).Offsets
	if len(offsets) != n {
		t.Fatalf("fixture scan found %d records, want %d", len(offsets), n)
	}
	return recs, offsets
}

// TestFsckCorruptionMatrix drives the repair engine through every damage
// shape the satellite checklist names — flipped byte, truncated tail,
// garbage prefix, duplicated region, empty file — and asserts the recovered
// state after a clean re-open is a superset of every record outside the
// damaged span.
func TestFsckCorruptionMatrix(t *testing.T) {
	const n = 5
	cases := []struct {
		name string
		// corrupt mutates the WAL bytes and returns the indices of records
		// that must survive the repair.
		corrupt func(b []byte, off []int) ([]byte, []int)
		damaged bool
	}{
		{
			name: "flipped byte mid-record",
			corrupt: func(b []byte, off []int) ([]byte, []int) {
				b[off[2]+wal.HeaderSize+2] ^= 0x80 // inside record 2's body
				return b, []int{0, 1, 3, 4}
			},
			damaged: true,
		},
		{
			name: "truncated tail",
			corrupt: func(b []byte, off []int) ([]byte, []int) {
				return b[:off[4]+3], []int{0, 1, 2, 3}
			},
			damaged: true,
		},
		{
			name: "garbage prefix",
			corrupt: func(b []byte, off []int) ([]byte, []int) {
				return append(bytes.Repeat([]byte{0xEE}, 17), b...), []int{0, 1, 2, 3, 4}
			},
			damaged: true,
		},
		{
			name: "duplicated region",
			corrupt: func(b []byte, off []int) ([]byte, []int) {
				// Splice a copy of records 1-2 over the middle of record 3:
				// the duplicates decode (harmless under max-merge), record 3's
				// torn remainder is damage.
				dup := append([]byte(nil), b[off[1]:off[3]]...)
				out := append(append(append([]byte(nil), b[:off[3]+5]...), dup...), b[off[4]:]...)
				return out, []int{0, 1, 2, 4}
			},
			damaged: true,
		},
		{
			name: "empty file",
			corrupt: func(b []byte, off []int) ([]byte, []int) {
				return nil, nil
			},
			damaged: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			recs, offsets := fsckFixture(t, dir, n)
			walPath := filepath.Join(dir, wal.LogName)
			b, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			mut, survivors := tc.corrupt(b, offsets)
			if err := os.WriteFile(walPath, mut, 0o644); err != nil {
				t.Fatal(err)
			}

			// Dry-run sees the damage and changes nothing.
			dry, err := wal.Fsck(dir, wal.DryRun)
			if err != nil {
				t.Fatal(err)
			}
			if dry.Damaged() != tc.damaged {
				t.Fatalf("dry-run Damaged() = %v, want %v\n%s", dry.Damaged(), tc.damaged, dry)
			}
			if after, _ := os.ReadFile(walPath); !bytes.Equal(after, mut) {
				t.Fatal("dry-run modified the WAL")
			}

			// Re-open: NewFileStore repairs, Load serves the survivors.
			store, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			rep := store.RepairReport()
			if rep == nil || rep.Damaged() != tc.damaged {
				t.Fatalf("repair report = %v, want damaged=%v", rep, tc.damaged)
			}
			state, err := store.Load()
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range survivors {
				want := recs[i]
				got, ok := state[want.Client]
				if !ok {
					t.Fatalf("record %d (%s) lost outside the damaged span; state=%v", i, want.Client, state)
				}
				if got.CID < want.CID || got.Vid < want.Vid || got.Epoch < want.Epoch {
					t.Fatalf("record %d regressed: got %+v, want at least %+v", i, got, want)
				}
			}
			if tc.damaged {
				q, err := os.ReadFile(filepath.Join(dir, wal.QuarantineName))
				if err != nil {
					t.Fatalf("damage not quarantined: %v", err)
				}
				if !strings.Contains(string(q), "-- vsgm quarantine file="+wal.LogName) {
					t.Fatalf("quarantine missing header:\n%s", q)
				}
			}

			// The repaired file is clean: a second fsck finds nothing.
			again, err := wal.Fsck(dir, wal.DryRun)
			if err != nil {
				t.Fatal(err)
			}
			if again.Damaged() {
				t.Fatalf("repair did not converge:\n%s", again)
			}
		})
	}
}

// TestOldFormatDirectoryIsQuarantinedWhole pins what happens to a directory
// an earlier build wrote (0xA8 | u16 len | crc32c | body, and the bare 0xA7
// record before it): there is no legacy reader, so nothing in it decodes. The
// store opens without error and loads empty, the report shows one damaged
// range covering the file, and the bytes are in wal.quarantine exactly as
// they were — the server starts from empty state and attach claims re-float
// every identifier a client actually observed.
func TestOldFormatDirectoryIsQuarantinedWhole(t *testing.T) {
	body, err := wire.AppendWALBody(nil, wire.WALRecord{Client: "a", CID: 5, Vid: 2, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	var old []byte
	for i := 0; i < 3; i++ {
		old = append(old, 0xA8, 0, byte(len(body)))
		old = binary.BigEndian.AppendUint32(old, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		old = append(old, body...)
		old = append(append(old, 0xA7), body...)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, wal.LogName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rep := store.RepairReport()
	if len(rep.Files) != 1 || rep.Files[0] != (wal.FileReport{
		Name: wal.LogName, Bytes: len(old), DamagedRanges: 1, DamagedBytes: len(old), Rewritten: true,
	}) {
		t.Fatalf("report does not show one damaged range covering the file:\n%s", rep)
	}
	if state, err := store.Load(); err != nil || len(state) != 0 {
		t.Fatalf("old-format directory loaded as %v (err %v), want empty", state, err)
	}
	q, err := os.ReadFile(filepath.Join(dir, wal.QuarantineName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(q, old) {
		t.Fatalf("quarantine does not hold the old file byte for byte:\n%q", q)
	}
}

// TestFsckSweepsStaleSnapshotTemps pins the temp-leak repair: snapshot temp
// files stranded by a crash between CreateTemp and rename are removed when
// the store re-opens, and counted in the report.
func TestFsckSweepsStaleSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{wal.SnapshotName + ".tmp-42", wal.SnapshotName + ".tmp-43", wal.LogName + ".fsck-7"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if swept := store.RepairReport().TempsSwept; swept != 3 {
		t.Fatalf("swept %d stale temps, want 3", swept)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("stale temps survived the sweep: %v (err %v)", left, err)
	}
}

// TestFileStoreFsyncPolicies exercises the durability knob: every setting
// must keep Append working and the data durable across a reopen (the
// settings differ in crash semantics this test cannot observe, so it pins
// the API contract and the data path).
func TestFileStoreFsyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		name  string
		every int
	}{
		{"never", 0},
		{"every-3", 3},
		{"every-clamped", -5}, // negative disables, like every other interval in the tree
		{"always", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			store.SetSyncEvery(tc.every)
			for i := 0; i < 7; i++ {
				if err := store.Append(wire.WALRecord{Client: "c", CID: types.StartChangeID(i + 1)}); err != nil {
					t.Fatalf("append %d under %s: %v", i, tc.name, err)
				}
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			state, err := reopened.Load()
			if err != nil {
				t.Fatal(err)
			}
			if state["c"].CID != 7 {
				t.Fatalf("policy %s lost appends: %+v", tc.name, state["c"])
			}
		})
	}
}

package live

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vsgm/internal/membership"
	"vsgm/internal/obs"
	"vsgm/internal/types"
	"vsgm/internal/wal"
	"vsgm/internal/wire"
)

func mustAppend(t *testing.T, s Store, recs ...wire.WALRecord) {
	t.Helper()
	for _, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %+v: %v", rec, err)
		}
	}
}

func wantRecord(t *testing.T, state map[types.ProcID]membership.ClientRecord, p types.ProcID, cid types.StartChangeID, vid types.ViewID, epoch int64) {
	t.Helper()
	rec, ok := state[p]
	if !ok {
		t.Fatalf("no record for %s in %v", p, state)
	}
	if rec.CID != cid || rec.Vid != vid || rec.Epoch != epoch {
		t.Fatalf("record for %s = %+v, want {CID:%d Vid:%d Epoch:%d}", p, rec, cid, vid, epoch)
	}
}

func TestMemStoreLoadMergesAppendsAndSnapshot(t *testing.T) {
	s := NewMemStore()
	mustAppend(t, s,
		wire.WALRecord{Client: "a", CID: 3, Vid: 1, Epoch: 1},
		wire.WALRecord{Client: "a", CID: 2, Vid: 4, Epoch: 1}, // out of order: max wins per field
		wire.WALRecord{Client: "b", CID: 7, Vid: 2, Epoch: 2},
	)
	state, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	wantRecord(t, state, "a", 3, 4, 1)
	wantRecord(t, state, "b", 7, 2, 2)

	// A snapshot replaces the log; later appends still merge over it.
	if err := s.WriteSnapshot(state); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, wire.WALRecord{Client: "a", CID: 9, Vid: 4, Epoch: 1})
	state, err = s.Load()
	if err != nil {
		t.Fatal(err)
	}
	wantRecord(t, state, "a", 9, 4, 1)
	wantRecord(t, state, "b", 7, 2, 2)
}

func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s,
		wire.WALRecord{Client: "a", CID: 5, Vid: 2, Epoch: 1},
		wire.WALRecord{Client: "b", CID: 11, Vid: 3, Epoch: 2},
		wire.WALRecord{Client: "a", CID: 6, Vid: 3, Epoch: 1},
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Append(wire.WALRecord{Client: "c", CID: 1}); err == nil {
		t.Fatal("append after close succeeded")
	}

	// A fresh handle on the same directory recovers everything.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	state, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	wantRecord(t, state, "a", 6, 3, 1)
	wantRecord(t, state, "b", 11, 3, 2)
	if _, ok := state["c"]; ok {
		t.Fatal("rejected append leaked into the store")
	}
}

func TestFileStoreSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, wire.WALRecord{Client: "a", CID: 4, Vid: 1, Epoch: 1})
	state, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(state); err != nil {
		t.Fatal(err)
	}

	// The snapshot subsumed the log, so the log must be empty now.
	fi, err := os.Stat(filepath.Join(dir, wal.LogName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("wal not truncated after snapshot: %d bytes", fi.Size())
	}

	// Appends after compaction merge over the snapshot on the next load.
	mustAppend(t, s, wire.WALRecord{Client: "a", CID: 8, Vid: 2, Epoch: 1})
	state, err = s.Load()
	if err != nil {
		t.Fatal(err)
	}
	wantRecord(t, state, "a", 8, 2, 1)
}

func TestFileStoreToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s,
		wire.WALRecord{Client: "a", CID: 3, Vid: 1, Epoch: 1},
		wire.WALRecord{Client: "b", CID: 5, Vid: 2, Epoch: 1},
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a full record followed by a torn prefix
	// of another. Replay must keep everything before the tear.
	body, err := wire.AppendWALBody(nil, wire.WALRecord{Client: "c", CID: 9, Vid: 4, Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	full := wal.AppendRecord(nil, body)
	torn := append(full, full[:len(full)/2]...)
	f, err := os.OpenFile(filepath.Join(dir, wal.LogName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	state, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	wantRecord(t, state, "a", 3, 1, 1)
	wantRecord(t, state, "b", 5, 2, 1)
	wantRecord(t, state, "c", 9, 4, 2)
}

// TestMemStoreBacksServerRestart drives the restart cycle a ServerNode
// performs against its store: appends, a compaction, more appends, then a
// Load by a fresh server instance resuming the merged state.
func TestMemStoreBacksServerRestart(t *testing.T) {
	s := NewMemStore()
	mustAppend(t, s, wire.WALRecord{Client: "a", CID: 2, Vid: 1, Epoch: 1})
	state, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(state); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, wire.WALRecord{Client: "a", CID: 4, Vid: 2, Epoch: 1})

	// "Restart": the same MemStore handed to a new server instance.
	state, err = s.Load()
	if err != nil {
		t.Fatal(err)
	}
	wantRecord(t, state, "a", 4, 2, 1)
}

// refusingStore is a Store whose disk fills: the first okAppends appends
// succeed, every later one and every snapshot is refused.
type refusingStore struct {
	Store
	mu        sync.Mutex
	okAppends int
}

var errDiskFull = errors.New("no space left on device")

func (s *refusingStore) Append(rec wire.WALRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.okAppends == 0 {
		return errDiskFull
	}
	s.okAppends--
	return s.Store.Append(rec)
}

func (s *refusingStore) WriteSnapshot(map[types.ProcID]membership.ClientRecord) error {
	return errDiskFull
}

// TestServerCountsStoreFailures: a membership server whose store starts
// refusing writes keeps serving views — the identifiers it issues are simply
// not durable — and says so: vsgm_server_wal_errors_total counts every
// refused append and snapshot while the append counter stops where the disk
// filled.
func TestServerCountsStoreFailures(t *testing.T) {
	const okAppends = 2
	reg := obs.NewRegistry()
	w := newAttachWorld(t, 1, 2, attachOptions{
		stores: map[types.ProcID]Store{"srv0": &refusingStore{Store: NewMemStore(), okAppends: okAppends}},
		tuneServer: func(_ types.ProcID, cfg *ServerConfig) {
			cfg.Obs = reg
			cfg.SnapshotEvery = 1
		},
	})
	defer w.close()
	w.boot()
	w.waitFullView("clients attached and in the full view", 0)
	for round := 0; round < 2; round++ {
		floor := w.maxViewID()
		w.servers[0].Reconfigure()
		w.waitFullView("a view from a server whose store refuses writes", floor)
	}

	sn := w.servers[0]
	if appends, snapshots := sn.walAppends.Value(), sn.walSnapshots.Value(); appends != okAppends || snapshots != 0 {
		t.Fatalf("%d appends and %d snapshots counted, want %d and 0", appends, snapshots, okAppends)
	}
	// Every good append was followed by a refused snapshot; each view since
	// recorded identifiers for two clients into a full disk.
	walErrors := sn.walErrors.Value()
	if walErrors < okAppends+4 {
		t.Fatalf("%d store errors counted, want at least %d", walErrors, okAppends+4)
	}
	var scraped float64
	for _, s := range reg.Snapshot().Samples {
		if s.Name == "vsgm_server_wal_errors_total" {
			scraped = s.Value
		}
	}
	if int64(scraped) < walErrors {
		t.Fatalf("vsgm_server_wal_errors_total scrapes as %v, the server counted %d", scraped, walErrors)
	}
	if err := w.specErr(); err != nil {
		t.Fatal(err)
	}
}

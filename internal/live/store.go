package live

import (
	"sync"

	"vsgm/internal/membership"
	"vsgm/internal/types"
	"vsgm/internal/wal"
	"vsgm/internal/wire"
)

// Store is the durable backing for a membership server's per-client
// identifier state. A ServerNode appends one WALRecord per state mutation
// and periodically compacts the log into a snapshot; on restart, Load
// returns the merged state, which is replayed into the server so a bounced
// server never regresses an identifier it issued before the crash.
type Store interface {
	// Append durably logs one identifier-state mutation.
	Append(rec wire.WALRecord) error
	// WriteSnapshot replaces the compacted state and truncates the log.
	WriteSnapshot(state map[types.ProcID]membership.ClientRecord) error
	// Load returns the state recovered from snapshot plus log replay.
	Load() (map[types.ProcID]membership.ClientRecord, error)
	// Close releases any resources. The store is unusable afterwards.
	Close() error
}

// mergeRecord folds one WAL record into a recovered-state map, keeping
// field-wise maxima so replay order and duplicates are immaterial.
func mergeRecord(state map[types.ProcID]membership.ClientRecord, rec wire.WALRecord) {
	cur := state[rec.Client]
	if rec.CID > cur.CID {
		cur.CID = rec.CID
	}
	if rec.Vid > cur.Vid {
		cur.Vid = rec.Vid
	}
	if rec.Epoch > cur.Epoch {
		cur.Epoch = rec.Epoch
	}
	state[rec.Client] = cur
}

// MemStore is an in-memory Store for tests and ephemeral deployments. It
// survives a ServerNode restart (hand the same MemStore to the new node)
// but not a process restart.
type MemStore struct {
	mu    sync.Mutex
	state map[types.ProcID]membership.ClientRecord
	wal   []wire.WALRecord
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{state: make(map[types.ProcID]membership.ClientRecord)}
}

// Append implements Store.
func (s *MemStore) Append(rec wire.WALRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = append(s.wal, rec)
	return nil
}

// WriteSnapshot implements Store.
func (s *MemStore) WriteSnapshot(state map[types.ProcID]membership.ClientRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = make(map[types.ProcID]membership.ClientRecord, len(state))
	for p, rec := range state {
		s.state[p] = rec
	}
	s.wal = s.wal[:0]
	return nil
}

// Load implements Store.
func (s *MemStore) Load() (map[types.ProcID]membership.ClientRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[types.ProcID]membership.ClientRecord, len(s.state))
	for p, rec := range s.state {
		out[p] = rec
	}
	for _, rec := range s.wal {
		mergeRecord(out, rec)
	}
	return out, nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// FileStore is the file-backed Store: a wal.Log whose records are WALRecord
// bodies. The snapshot is one record per client and the log one record per
// mutation; Load max-merges every record that survives, so a log that still
// holds what the snapshot covers, a duplicate, or a record lost to damage
// each cost nothing worse than the lost record. Everything about the files —
// framing, repair on open, snapshot replacement, the fsync rule — is the
// Log's, whose methods (SetSyncEvery, RepairReport, Close) show through.
type FileStore struct {
	*wal.Log

	mu   sync.Mutex
	body []byte
}

// NewFileStore opens (creating if needed) a file-backed store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	l, err := wal.Open(dir)
	if err != nil {
		return nil, err
	}
	return &FileStore{Log: l}, nil
}

// Append implements Store.
func (s *FileStore) Append(rec wire.WALRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	body, err := wire.AppendWALBody(s.body[:0], rec)
	if err != nil {
		return err
	}
	s.body = body
	return s.Log.Append(body)
}

// WriteSnapshot implements Store.
func (s *FileStore) WriteSnapshot(state map[types.ProcID]membership.ClientRecord) error {
	bodies := make([][]byte, 0, len(state))
	for p, rec := range state {
		body, err := wire.AppendWALBody(nil, wire.WALRecord{Client: p, CID: rec.CID, Vid: rec.Vid, Epoch: rec.Epoch})
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
	}
	return s.Log.WriteSnapshot(bodies...)
}

// Load implements Store. A body that is not exactly a WALRecord is skipped.
func (s *FileStore) Load() (map[types.ProcID]membership.ClientRecord, error) {
	snapshot, log, err := s.Log.Load()
	if err != nil {
		return nil, err
	}
	state := make(map[types.ProcID]membership.ClientRecord)
	for _, body := range append(snapshot, log...) {
		if rec, err := wire.DecodeWALBody(body); err == nil {
			mergeRecord(state, rec)
		}
	}
	return state, nil
}

package live

import (
	"slices"
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
	clients := make([]types.ProcID, 0, len(state))
	for p := range state {
		clients = append(clients, p)
	}
	// Sorted, so the same state always writes the same snapshot bytes.
	slices.Sort(clients)
	bodies := make([][]byte, 0, len(state))
	for _, p := range clients {
		rec := state[p]
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
			state[rec.Client] = state[rec.Client].Merge(membership.ClientRecord{CID: rec.CID, Vid: rec.Vid, Epoch: rec.Epoch})
		}
	}
	return state, nil
}

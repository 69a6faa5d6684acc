package shard

import (
	"sync"

	"vsgm/internal/wal"
)

// Store is the durable backing of one shard replica: every applied command
// is appended, and Restore/compaction rewrites the snapshot and truncates
// the log. A replica restarted cold replays snapshot + log and holds every
// state mutation it applied before the crash.
type Store interface {
	// AppendCommand durably logs one applied command.
	AppendCommand(cmd []byte) error
	// WriteSnapshot replaces the compacted state and truncates the log.
	WriteSnapshot(snap []byte) error
	// Load returns the last snapshot (nil if none) and the commands
	// appended after it, in order.
	Load() (snap []byte, cmds [][]byte, err error)
	// Close releases resources; the store is unusable afterwards.
	Close() error
}

// MemStore is the in-memory Store for tests and ephemeral worlds.
type MemStore struct {
	mu   sync.Mutex
	snap []byte
	wal  [][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// AppendCommand implements Store.
func (s *MemStore) AppendCommand(cmd []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = append(s.wal, append([]byte(nil), cmd...))
	return nil
}

// WriteSnapshot implements Store.
func (s *MemStore) WriteSnapshot(snap []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap = append([]byte(nil), snap...)
	s.wal = s.wal[:0]
	return nil
}

// Load implements Store.
func (s *MemStore) Load() ([]byte, [][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cmds := make([][]byte, len(s.wal))
	for i, c := range s.wal {
		cmds[i] = append([]byte(nil), c...)
	}
	var snap []byte
	if s.snap != nil {
		snap = append([]byte(nil), s.snap...)
	}
	return snap, cmds, nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// FileStore is the file-backed Store: a wal.Log whose log records are the
// applied commands and whose snapshot is one record holding the machine
// snapshot. Unlike the membership log's records these are ordered, and the
// Log reads them back with the same resync rule: a damaged record costs that
// one command and the commands after it still replay, so the keys left wrong
// are those whose last write was the damaged command — a subset of what
// stopping at the damage would leave wrong.
type FileStore struct{ *wal.Log }

// NewFileStore opens (creating if needed) a file-backed shard store rooted
// at dir.
func NewFileStore(dir string) (*FileStore, error) {
	l, err := wal.Open(dir)
	if err != nil {
		return nil, err
	}
	return &FileStore{l}, nil
}

// AppendCommand implements Store.
func (s *FileStore) AppendCommand(cmd []byte) error { return s.Append(cmd) }

// WriteSnapshot implements Store.
func (s *FileStore) WriteSnapshot(snap []byte) error { return s.Log.WriteSnapshot(snap) }

// Load implements Store.
func (s *FileStore) Load() ([]byte, [][]byte, error) {
	snaps, cmds, err := s.Log.Load()
	if err != nil || len(snaps) == 0 {
		return nil, cmds, err
	}
	return snaps[0], cmds, nil
}

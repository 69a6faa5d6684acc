package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The files of a state directory. Every directory a Log manages uses these
// names, whatever its records hold.
const (
	// LogName is the append-only record log.
	LogName = "wal.log"
	// SnapshotName is the compacted state the log's records apply on top of.
	SnapshotName = "snapshot.bin"
	// QuarantineName receives the damaged byte ranges a repair carved out of
	// the other two, each behind a one-line header, so corruption is kept for
	// forensics instead of silently destroyed.
	QuarantineName = "wal.quarantine"
)

var (
	errClosed  = errors.New("wal: log closed")
	errTooLong = errors.New("wal: record body longer than a u32 length can carry")
)

// Log is one state directory open for appending: an append-only record log
// plus a snapshot that replaces it. Snapshots are written to a temporary
// file, fsynced and renamed into place, and only then is the log truncated,
// so a crash at any point leaves a recoverable pair: at worst the log still
// holds records the snapshot already covers, which both body codecs replay
// harmlessly. Appends are OS-buffered unless SetSyncEvery says otherwise.
type Log struct {
	mu     sync.Mutex
	dir    string
	f      *os.File
	buf    []byte
	closed bool

	syncEvery int
	sinceSync int

	report *Report
}

// Open opens (creating if needed) the state directory dir. Before the log is
// opened for appending, the repair pass runs over it (see Fsck), so Load
// never reads a file with undecodable bytes in it; RepairReport keeps what
// the pass found. A directory this call created holds nothing to repair, and
// the pass is skipped — which the call observes by creating the directory
// itself instead of asking for it to exist.
func Open(dir string) (*Log, error) {
	err := os.Mkdir(dir, 0o755)
	if os.IsNotExist(err) { // a parent is missing
		err = os.MkdirAll(dir, 0o755)
	}
	report := &Report{Dir: dir, Mode: Repair}
	if os.IsExist(err) {
		report, err = Fsck(dir, Repair)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, LogName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	return &Log{dir: dir, f: f, report: report}, nil
}

// RepairReport returns the outcome of the repair pass Open ran.
func (l *Log) RepairReport() *Report { return l.report }

// SetSyncEvery makes every nth Append fsync the log, so at most n-1
// acknowledged appends can be lost to a power cut; 1 syncs each append. Zero
// (the default) and negative values never sync: appends survive a process
// crash but not a machine crash. Safe to call at any time.
func (l *Log) SetSyncEvery(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncEvery, l.sinceSync = n, 0
}

// Append writes one record holding body to the log, in one write.
func (l *Log) Append(body []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if uint64(len(body)) > maxBody {
		return errTooLong
	}
	l.buf = AppendRecord(l.buf[:0], body)
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	if l.syncEvery > 0 {
		l.sinceSync++
		if l.sinceSync >= l.syncEvery {
			l.sinceSync = 0
			return l.f.Sync()
		}
	}
	return nil
}

// WriteSnapshot replaces the snapshot with one record per body and empties
// the log, which the snapshot must cover.
func (l *Log) WriteSnapshot(bodies ...[]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	var b []byte
	for _, body := range bodies {
		if uint64(len(body)) > maxBody {
			return errTooLong
		}
		b = AppendRecord(b, body)
	}
	if err := replaceFile(filepath.Join(l.dir, SnapshotName), ".tmp-*", b); err != nil {
		return err
	}
	// A crash before this truncate leaves records the snapshot already
	// covers, which is the case Log's comment names.
	return os.Truncate(filepath.Join(l.dir, LogName), 0)
}

// Load returns the bodies of the snapshot's records and of the log's, each in
// file order. Open repaired both files, so in the normal path every byte is a
// record; damage that appeared since is skipped, not returned.
func (l *Log) Load() (snapshot, log [][]byte, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if snapshot, err = loadFile(filepath.Join(l.dir, SnapshotName)); err != nil {
		return nil, nil, err
	}
	if log, err = loadFile(filepath.Join(l.dir, LogName)); err != nil {
		return nil, nil, err
	}
	return snapshot, log, nil
}

func loadFile(path string) ([][]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return ScanRecords(b).Records, nil
}

// Close closes the log file; the Log is unusable afterwards. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// replaceFile atomically replaces path with b: a temporary file beside it
// (named path + tmpSuffix, a CreateTemp pattern) is written, fsynced, closed
// and renamed over it. A crash in between strands the temporary file, which
// the next repair pass sweeps.
func replaceFile(path, tmpSuffix string, b []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+tmpSuffix)
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// CloneDir copies a state directory's log and snapshot from src into dst,
// creating dst if needed and replacing what it held — a point-in-time
// backup/restore primitive for stale-state resurrection tests and the soak
// harness. Clone from a closed or quiescent Log, and restore only while no
// Log is open on dst.
func CloneDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return fmt.Errorf("wal: clone dir: %w", err)
	}
	for _, name := range []string{LogName, SnapshotName} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if os.IsNotExist(err) {
			// Absent in the source generation: remove any newer leftover so
			// the destination matches the source exactly.
			if err := os.Remove(filepath.Join(dst, name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("wal: clone dir: %w", err)
			}
			continue
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, name), b, 0o644)
		}
		if err != nil {
			return fmt.Errorf("wal: clone dir: %w", err)
		}
	}
	return nil
}

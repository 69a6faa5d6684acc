package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
	errEmpty   = errors.New("wal: empty record body")
)

// windowSize is the span of wal.log one mapping covers: an append makes
// syscalls only when its record leaves the window (fallocate, a write of the
// new span's zeros, munmap, mmap), once per windowSize bytes of records.
// BenchmarkAppend, a 150-byte body (a kv_mixed Set's command) on ext4, 2
// cores, ns per append by window size: 16 KiB 435, 32 KiB 265, 64 KiB 213,
// 128 KiB 145; one write(2) per append costs 900. The slide's fixed cost
// keeps falling with size, but a window's written pages count towards the
// process's resident set, one window per open log (mapping whole files keeps
// every record resident), and 64 KiB is where the gain is mostly had.
const windowSize = 64 << 10

// Log is one state directory open for appending: an append-only record log
// plus a snapshot that replaces it. Snapshots are written to a temporary
// file, fsynced and renamed into place, and only then is the log truncated,
// so a crash at any point leaves a recoverable pair: at worst the log still
// holds records the snapshot already covers, which both body codecs replay
// harmlessly.
//
// An append is a copy into a mapped window over the tail of wal.log (see
// window_linux.go), so the steady-state append makes no syscall; while the
// log is open the file is its records followed by zeros to the window's end,
// which Close trims and a scan reports as unwritten, not damaged. Where the
// platform or the filesystem cannot reserve the window's blocks, an append
// is one write(2). Either way a returned Append is in the page cache: it
// survives a process crash, and a power cut only once fsynced, which
// SetSyncEvery decides.
type Log struct {
	mu     sync.Mutex
	dir    string
	f      *os.File
	end    int64   // the logical end: one past the last record
	win    *window // nil: every append is a write(2)
	buf    []byte  // the write(2) path's frame
	closed bool

	syncEvery int
	sinceSync int

	report *Report
}

// Open opens (creating if needed) the state directory dir. Before the log is
// opened for appending, the repair pass runs over it (see Fsck), so Load
// never reads a file with undecodable bytes in it, and appends go at its
// end, the unwritten tail a killed process left trimmed; RepairReport keeps
// what the pass found. A directory this call created holds nothing to
// repair, and the pass is skipped — which the call observes by creating the
// directory itself instead of asking for it to exist.
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
	f, err := os.OpenFile(filepath.Join(dir, LogName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	l := &Log{dir: dir, f: f, end: fi.Size(), win: newWindow(f), report: report}
	if l.win != nil {
		// A Log dropped without Close still releases its mapping, as its
		// os.File releases the descriptor.
		runtime.SetFinalizer(l, func(l *Log) { l.unmap() })
	}
	return l, nil
}

// RepairReport returns the outcome of the repair pass Open ran.
func (l *Log) RepairReport() *Report { return l.report }

// Size returns the bytes the log's records take: where the next append goes.
// While a window is mapped, wal.log is longer, zero to the window's end.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// SetSyncEvery makes every nth Append fsync the log, so at most n-1
// acknowledged appends can be lost to a power cut; 1 syncs each append. Zero
// (the default) and negative values never sync: appends survive a process
// crash but not a machine crash. Safe to call at any time. An fsync writes
// back the pages stores into the mapped window dirtied too.
func (l *Log) SetSyncEvery(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncEvery, l.sinceSync = n, 0
}

// Append writes one record holding body at the log's end. An error — a full
// or failing disk — leaves the end where it was, so nothing of the record
// counts as written.
func (l *Log) Append(body []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if err := checkBody(body); err != nil {
		return err
	}
	if err := l.put(body); err != nil {
		return err
	}
	l.end += int64(HeaderSize + len(body))
	if l.syncEvery > 0 {
		l.sinceSync++
		if l.sinceSync >= l.syncEvery {
			l.sinceSync = 0
			return l.f.Sync()
		}
	}
	return nil
}

// checkBody refuses a body no record can hold.
func checkBody(body []byte) error {
	switch {
	case len(body) == 0:
		return errEmpty
	case uint64(len(body)) > maxBody:
		return errTooLong
	}
	return nil
}

// put frames body into the mapped window at the log's end. A filesystem
// that cannot reserve the window's blocks switches the log to write for good.
func (l *Log) put(body []byte) error {
	if l.win != nil {
		dst, err := l.win.reserve(l.end, HeaderSize+len(body))
		if err == nil {
			AppendRecord(dst, body) // in place: dst has the record's capacity
			return nil
		}
		if !errors.Is(err, errors.ErrUnsupported) {
			return err
		}
		if err := l.unmap(); err != nil {
			return err
		}
		l.win = nil
	}
	return l.write(body)
}

// write is the append without a window: one write(2) of the framed record at
// the log's end, for a platform without fallocate or a filesystem that
// refuses it. A write that fails part way has its bytes cut off again, so the
// next append does not leave them behind its own record.
func (l *Log) write(body []byte) error {
	l.buf = AppendRecord(l.buf[:0], body)
	_, err := l.f.WriteAt(l.buf, l.end)
	if err != nil {
		l.f.Truncate(l.end)
	}
	return err
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
		if err := checkBody(body); err != nil {
			return err
		}
		b = AppendRecord(b, body)
	}
	if err := replaceFile(filepath.Join(l.dir, SnapshotName), ".tmp-*", b); err != nil {
		return err
	}
	// A crash before this truncate leaves records the snapshot already
	// covers, which is the case Log's comment names. The window goes first:
	// a mapping over bytes a truncate removes faults when touched.
	if err := l.unmap(); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.end = 0
	return nil
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

// Close unmaps the window, trims the unwritten tail so wal.log is exactly
// its records, and closes the file; the Log is unusable afterwards.
// Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.unmap()
	if terr := l.f.Truncate(l.end); err == nil {
		err = terr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// unmap releases the window's mapping; the next append maps a new one.
func (l *Log) unmap() error {
	if l.win == nil {
		return nil
	}
	return l.win.unmap()
}

// replaceFile atomically replaces path with b: a temporary file beside it
// (named path + tmpSuffix, a CreateTemp pattern) is written, fsynced, closed
// and renamed over it, and the directory is fsynced so the rename itself
// survives a power cut before the caller acts on it (WriteSnapshot truncates
// the log the new snapshot covers). A crash in between strands the temporary
// file, which the next repair pass sweeps.
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
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries renamed into it durable.
func syncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
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

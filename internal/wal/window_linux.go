//go:build linux

package wal

import (
	"errors"
	"os"
	"syscall"
)

// window is the mapped span of wal.log appends are copied into: b maps the
// file's bytes [off, off+len(b)). fallocate backs the span with blocks before
// it is mapped, so a store into it cannot fault for lack of space: a full or
// failing disk answers the fallocate, and the append that needed the span
// returns the error. Bytes past the log's logical end are zero.
type window struct {
	f   *os.File
	off int64
	b   []byte
}

// zeroSpan is what slide writes past the log's end, a window at a time.
var zeroSpan [windowSize]byte

// newWindow returns the window appends to f go through, mapping nothing
// until the first append.
func newWindow(f *os.File) *window { return &window{f: f} }

// reserve returns room for an n-byte record at file offset end, as a
// zero-length slice of the mapping with capacity n, sliding the window to
// end first when the record does not fit in it. A filesystem that cannot
// fallocate answers errors.ErrUnsupported.
func (w *window) reserve(end int64, n int) ([]byte, error) {
	if end < w.off || end+int64(n) > w.off+int64(len(w.b)) {
		if err := w.slide(end, n); err != nil {
			return nil, err
		}
	}
	i := int(end - w.off)
	return w.b[i : i : i+n], nil
}

// slide maps the span that starts at the page holding end and holds at least
// windowSize bytes and the n-byte record at end.
func (w *window) slide(end int64, n int) error {
	page := int64(os.Getpagesize())
	off := end &^ (page - 1)
	size := max(windowSize, (end-off+int64(n)+page-1)&^(page-1))
	fd := int(w.f.Fd())
	// Mode 0 extends the file to cover the span, zero-filled, and keeps
	// whatever the span already holds.
	var err error
	for err = syscall.Fallocate(fd, 0, off, size); err == syscall.EINTR; {
		err = syscall.Fallocate(fd, 0, off, size)
	}
	if err == syscall.EOPNOTSUPP {
		return errors.ErrUnsupported
	}
	if err != nil {
		return &os.PathError{Op: "fallocate", Path: LogName, Err: err}
	}
	// Writing the zeros past end brings the span's pages into the page
	// cache with their blocks mapped, so the stores that follow take minor
	// faults instead of the filesystem's fault on a page of unwritten
	// extent, which costs ~5 µs a page on ext4: a 64 KiB slide then takes
	// ~30 µs instead of ~85 µs.
	for z := end; z < off+size; {
		k, err := w.f.WriteAt(zeroSpan[:min(windowSize, off+size-z)], z)
		if err != nil {
			return err
		}
		z += int64(k)
	}
	if err := w.unmap(); err != nil {
		return err
	}
	b, err := syscall.Mmap(fd, off, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return &os.PathError{Op: "mmap", Path: LogName, Err: err}
	}
	w.off, w.b = off, b
	return nil
}

// unmap releases the mapping, if any. The bytes stored into it are already
// the file's: unmapping writes nothing.
func (w *window) unmap() error {
	if w.b == nil {
		return nil
	}
	b := w.b
	w.b = nil
	if err := syscall.Munmap(b); err != nil {
		return &os.PathError{Op: "munmap", Path: LogName, Err: err}
	}
	return nil
}

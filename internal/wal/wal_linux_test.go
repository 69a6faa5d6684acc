package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestAppendOnFullDisk: an append that finds no room — here a file-size
// limit, which fails fallocate and write(2) alike — returns the error and
// leaves the process running and the log whole: the failed record is not
// there, and once there is room again the next append lands at the end.
func TestAppendOnFullDisk(t *testing.T) {
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skip(err)
	}
	for _, mapped := range []bool{true, false} {
		t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if !mapped {
				l.win = nil
			}
			body := make([]byte, 1000)
			for i := range body {
				body[i] = byte(i%251) + 1
			}
			var bodies [][]byte
			for l.Size()+2*int64(HeaderSize+len(body)) <= windowSize {
				if err := l.Append(body); err != nil {
					t.Fatal(err)
				}
				bodies = append(bodies, body)
			}
			end := l.Size()
			fi, err := os.Stat(filepath.Join(dir, LogName))
			if err != nil {
				t.Fatal(err)
			}
			// Room for what wal.log holds and a little more: the window is
			// full, and neither a new window nor the next record fits.
			lim := syscall.Rlimit{Cur: uint64(fi.Size()) + 100, Max: old.Max}
			if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
				t.Skip(err)
			}
			err = l.Append(body)
			if err == nil {
				err = l.Append(body)
			}
			if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
				t.Fatal(rerr)
			}
			if err == nil {
				t.Fatal("an append past the file-size limit succeeded")
			}
			t.Logf("append past the limit: %v", err)
			if l.Size() > end+int64(HeaderSize+len(body)) {
				t.Fatalf("the failed append moved the end to %d", l.Size())
			}
			if l.Size() > end {
				bodies = append(bodies, body)
			}
			if err := l.Append([]byte("after")); err != nil {
				t.Fatal(err)
			}
			_, log, err := l.Load()
			if err != nil || !sameBodies(log, append(bodies, []byte("after"))) {
				t.Fatalf("after the failure the log loads %d records (%v), want %d", len(log), err, len(bodies)+1)
			}
			if rep, err := Fsck(dir, DryRun); err != nil || rep.Damaged() {
				t.Fatalf("the failed append left damage (%v):\n%s", err, rep)
			}
		})
	}
}

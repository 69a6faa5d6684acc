//go:build !linux

package wal

import (
	"errors"
	"os"
)

// window is the mapped append window of window_linux.go. Elsewhere there is
// none — syscall.Fallocate is Linux-only — and every append is a write(2).
type window struct{}

func newWindow(*os.File) *window { return nil }

func (*window) reserve(int64, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func (*window) unmap() error { return nil }

package core

import (
	"testing"

	"vsgm/internal/types"
	"vsgm/internal/wire/pool"
)

func TestMsgBufSetGet(t *testing.T) {
	var b msgBuf
	b.set(1, types.AppMsg{ID: 1}, nil)
	b.set(3, types.AppMsg{ID: 3}, nil) // hole at 2

	if m, ok := b.get(1); !ok || m.ID != 1 {
		t.Fatal("index 1 missing")
	}
	if _, ok := b.get(2); ok {
		t.Fatal("hole reported present")
	}
	if m, ok := b.get(3); !ok || m.ID != 3 {
		t.Fatal("index 3 missing")
	}
	if _, ok := b.get(0); ok {
		t.Fatal("index 0 must be invalid (1-based)")
	}
	if _, ok := b.get(4); ok {
		t.Fatal("out of range reported present")
	}
}

func TestMsgBufSetIsIdempotent(t *testing.T) {
	var b msgBuf
	b.set(1, types.AppMsg{ID: 1}, nil)
	b.set(1, types.AppMsg{ID: 99}, nil) // re-store keeps the original (Invariant 6.6)
	if m, _ := b.get(1); m.ID != 1 {
		t.Fatalf("re-store replaced the original: id = %d", m.ID)
	}
}

func TestMsgBufLongestPrefixAndLastIndex(t *testing.T) {
	var b msgBuf
	if b.longestPrefix() != 0 || b.lastIndex() != 0 {
		t.Fatal("empty buffer not zero")
	}
	b.set(1, types.AppMsg{ID: 1}, nil)
	b.set(2, types.AppMsg{ID: 2}, nil)
	b.set(4, types.AppMsg{ID: 4}, nil)
	if got := b.longestPrefix(); got != 2 {
		t.Fatalf("longest prefix = %d, want 2", got)
	}
	if got := b.lastIndex(); got != 4 {
		t.Fatalf("last index = %d, want 4", got)
	}
	b.set(3, types.AppMsg{ID: 3}, nil) // a forwarded copy fills the hole
	if got := b.longestPrefix(); got != 4 {
		t.Fatalf("after filling the hole, longest prefix = %d, want 4", got)
	}
}

func TestMsgBufNilReceiver(t *testing.T) {
	var b *msgBuf
	if b.longestPrefix() != 0 || b.lastIndex() != 0 {
		t.Fatal("nil buffer must behave as empty")
	}
	if _, ok := b.get(1); ok {
		t.Fatal("nil buffer reported a message")
	}
}

func TestBufferMapDropExcept(t *testing.T) {
	m := make(bufferMap)
	m.buf("a", "v1", nil).set(1, types.AppMsg{ID: 1}, nil)
	m.buf("a", "v2", nil).set(1, types.AppMsg{ID: 2}, nil)
	m.buf("b", "v1", nil).set(1, types.AppMsg{ID: 3}, nil)

	m.dropExcept("v2")
	if m.peek("a", "v1") != nil || m.peek("b", "v1") != nil {
		t.Fatal("old-view buffers survived garbage collection")
	}
	if m.peek("a", "v2") == nil {
		t.Fatal("current-view buffer was dropped")
	}
}

// TestMsgBufBytesAccounting pins the live-byte counter behind
// Endpoint.BufferedBytes: set adds each stored payload once (idempotent re-stores and
// below-base stores add nothing), and collect subtracts exactly the dropped
// prefix — so bytes always equals the payload total of live entries.
func TestMsgBufBytesAccounting(t *testing.T) {
	b := &msgBuf{}
	pay := func(n int) types.AppMsg { return types.AppMsg{ID: int64(n), Payload: make([]byte, n)} }
	b.set(1, pay(10), nil)
	b.set(2, pay(20), nil)
	b.set(4, pay(40), nil) // hole at 3
	if b.bytes != 70 {
		t.Fatalf("bytes = %d, want 70", b.bytes)
	}
	b.set(2, pay(999), nil) // idempotent re-store keeps the original
	if b.bytes != 70 {
		t.Fatalf("bytes after re-store = %d, want 70", b.bytes)
	}
	b.collect(2)
	if b.bytes != 40 {
		t.Fatalf("bytes after collect(2) = %d, want 40", b.bytes)
	}
	b.set(1, pay(10), nil) // at or below base: dropped, not counted
	if b.bytes != 40 {
		t.Fatalf("bytes after below-base store = %d, want 40", b.bytes)
	}
	b.set(3, pay(30), nil) // forwarded copy fills the hole
	if b.bytes != 70 {
		t.Fatalf("bytes after filling hole = %d, want 70", b.bytes)
	}
	b.collect(4)
	if b.bytes != 0 {
		t.Fatalf("bytes after full collect = %d, want 0", b.bytes)
	}
}

// TestMsgBufPackedBytesAccounting pins what Endpoint.BufferedBytes reads of
// a buffer with a pool: a packed payload counts its length, not its chunk's
// capacity (which would count a 256-byte message sixteen times over); the
// open chunk's unfilled rest counts once; the tail a payload did not fit
// behind is written off when the next chunk opens; a payload past packLimit
// counts the whole buffer it has to itself; and a chunk goes back to the pool
// with the last slot packed into it, the open one when the buffer empties.
func TestMsgBufPackedBytesAccounting(t *testing.T) {
	p := pool.New()
	b := &msgBuf{pool: p}
	const size = 300 // 13 to a chunk, 196 bytes over
	perChunk := chunkSize / size
	pay := func(n int) types.AppMsg { return types.AppMsg{Payload: make([]byte, n)} }
	check := func(bytes int64, outstanding int64, when string) {
		t.Helper()
		if b.bytes != bytes || p.Outstanding() != outstanding {
			t.Fatalf("%s: bytes = %d with %d buffers checked out, want %d with %d", when, b.bytes, p.Outstanding(), bytes, outstanding)
		}
	}
	for i := 1; i <= perChunk; i++ {
		b.set(i, pay(size), nil)
		check(chunkSize, 1, "filling the first chunk")
	}
	first := b.at(1).hold
	if b.at(perChunk).hold != first || first.Refs() != int32(perChunk)+1 {
		t.Fatalf("the first chunk has %d references, want one per slot and the buffer's own", first.Refs())
	}
	b.set(perChunk+1, pay(size), nil)
	if b.at(perChunk+1).hold == first {
		t.Fatal("a payload that did not fit the chunk's rest was packed into it")
	}
	check(int64(perChunk*size)+chunkSize, 2, "second chunk opened")
	b.set(perChunk+2, pay(packLimit+1), nil)
	own := b.at(perChunk + 2).hold
	check(int64(perChunk*size)+chunkSize+int64(own.Cap()), 3, "a payload with a buffer of its own")

	b.collect(perChunk - 1)
	check(size+chunkSize+int64(own.Cap()), 3, "all but one slot of the first chunk stable")
	b.collect(perChunk)
	check(chunkSize+int64(own.Cap()), 2, "first chunk drained")
	b.collect(perChunk + 2)
	check(0, 0, "everything stable")
	b.set(perChunk+3, pay(size), nil)
	check(chunkSize, 1, "a store after the buffer emptied")
	b.discard()
	check(0, 0, "discarded")
}

package core

import (
	"vsgm/internal/types"
	"vsgm/internal/wire/pool"
)

// msgBuf is one msgs[q][v] sequence: a 1-indexed, possibly sparse buffer of
// application messages. Original messages from the live FIFO stream arrive
// contiguously; forwarded messages may fill arbitrary holes. Indices up to
// base have become stable (acknowledged by every view member) and their
// storage is garbage-collected; logically they still count as present for
// prefix computations.
//
// Messages are stored by value in a sliding window: collect advances head
// over the stable prefix and the slack it leaves is reclaimed lazily, when a
// store runs out of room at the tail (the mailbox.compact idiom of
// internal/live). Every slot outside items[head:] is zero.
type msgBuf struct {
	base  int    // indices 1..base are stable and collected
	head  int    // items[:head] is zeroed slack left behind by collect
	items []slot // items[head+i-1-base] holds index i
	bytes int64  // bytes the live slots pin (slot.pinned) plus the open chunk's slack

	// The arena for payloads that arrive without a holder. With a pool, set
	// packs them into chunk — a pooled buffer the msgBuf itself holds one
	// reference to while it is the one being filled, and every slot packed
	// into it one more — so that from there on a small payload is held exactly
	// like a large one. Slots die in index order, so beyond its payload bytes
	// a stream pins at most one draining chunk and the one filling. A nil
	// pool (the simulator, the enumerator, a shard World) means heap copies.
	pool  *pool.Pool
	chunk *pool.Buf
	used  int // bytes of chunk already handed to slots

	// cur is 1 + the owner's rank in the end-point's current view while this
	// is that view's buffer, 0 for a buffer of any other view. It lets a
	// store tell the delivery guard which member to look at.
	cur int
}

// chunkSize is the pooled buffer small payloads are packed into, packLimit the
// largest payload that is packed: one over a quarter of a chunk would strand
// too much of the chunk behind it and takes a buffer of its own, which the
// pool's quarter-step classes fit to within a quarter of its length.
const (
	chunkSize = 4 << 10
	packLimit = chunkSize / 4
)

// slot is one stored message. It owns the memory its payload lives in: a
// private heap copy (hold nil, an end-point without a pool), or one reference
// to the pooled buffer the payload lies in — the buffer it arrived in, a
// buffer it was copied into, or (packed) a chunk it shares with its
// neighbours. Wherever a slot dies — collect, and through it a dropped view's
// buffers, Recover and Close — that reference is given back.
type slot struct {
	msg    types.AppMsg
	hold   *pool.Buf
	set    bool
	packed bool
}

// pinned is what the slot keeps resident: the whole buffer when it holds one
// to itself (a 16.4 KiB body in a 20 KiB slab pins 20 KiB), else the payload's
// length — its heap copy, or its share of a chunk (the rest of the chunk is
// its neighbours' and the msgBuf's slack).
func (s *slot) pinned() int64 {
	if s.hold != nil && !s.packed {
		return int64(s.hold.Cap())
	}
	return int64(len(s.msg.Payload))
}

// set stores m at 1-based index i, growing the buffer as needed. Re-storing
// an index is idempotent by Invariant 6.6 (a forwarded copy equals the
// original), so the existing value is kept; indices at or below base are
// stable everywhere and dropped.
//
// This is the single point where bytes cross into state the protocol retains,
// and retaining is all the algorithm asks for. A retained payload lives in
// pooled memory the slot holds: held in place if it arrived with a buffer to
// itself — a holder that m.Payload aliases and that holds nothing another
// frame will reuse — and copied in if it arrived sharing one (a staging slab,
// a caller's scratch: borrowed memory of unknown lifetime). Only an end-point
// without a pool copies to the heap instead. A store that keeps nothing (a
// stable or already filled index) takes no reference and copies nothing.
func (b *msgBuf) set(i int, m types.AppMsg, hold *pool.Buf) {
	if i <= b.base {
		return
	}
	n := i - b.base
	if n > len(b.items)-b.head {
		b.grow(n)
	}
	s := &b.items[b.head+n-1]
	if s.set {
		return
	}
	packed := false
	switch n := len(m.Payload); {
	case hold != nil:
		hold.Retain(1)
	case n == 0:
	case b.pool == nil:
		m.Payload = append([]byte(nil), m.Payload...)
	case n > packLimit:
		hold = b.pool.Get(n) // the slot's reference
		copy(hold.B(), m.Payload)
		m.Payload = hold.B()
	default:
		m.Payload, hold, packed = b.pack(m.Payload), b.chunk, true
	}
	s.msg, s.hold, s.set, s.packed = m, hold, true, packed
	b.bytes += s.pinned()
}

// pack copies p into the open chunk, opening a fresh one when p does not fit
// what is left, and takes the new slot's reference to it. The bytes p takes
// stop being slack: the slot counts them from here on.
func (b *msgBuf) pack(p []byte) []byte {
	if b.chunk == nil || len(p) > chunkSize-b.used {
		b.closeChunk()
		b.chunk, b.used = b.pool.Get(chunkSize), 0
		b.bytes += chunkSize
	}
	end := b.used + len(p)
	stored := b.chunk.B()[b.used:end:end]
	copy(stored, p)
	b.used = end
	b.bytes -= int64(len(p))
	b.chunk.Retain(1)
	return stored
}

// closeChunk gives up the msgBuf's own reference to the open chunk, leaving it
// to the slots packed into it (and the events delivered from them): its slack
// is written off, and it goes back to the pool with the last of them.
func (b *msgBuf) closeChunk() {
	if b.chunk == nil {
		return
	}
	b.bytes -= int64(chunkSize - b.used)
	b.chunk.Release()
	b.chunk = nil
}

// grow extends the live window to n slots in one step, never an element at a
// time: a reslice while the tail has room, a slide of the window down over
// the collected prefix once that prefix is at least half the array (so the
// copy is paid for by the slots it frees), otherwise one doubling allocation.
func (b *msgBuf) grow(n int) {
	switch live := b.items[b.head:]; {
	case b.head+n <= cap(b.items):
		b.items = b.items[:b.head+n]
	case n <= cap(b.items) && 2*b.head >= len(b.items):
		copy(b.items, live)
		clear(b.items[len(live):])
		b.items, b.head = b.items[:n], 0
	default:
		grown := make([]slot, n, max(n, 2*cap(b.items)))
		copy(grown, live)
		b.items, b.head = grown, 0
	}
}

// at returns the slot stored at 1-based index i, nil when nothing live is
// stored there. The pointer is good until the next set or collect.
func (b *msgBuf) at(i int) *slot {
	if b == nil || i <= b.base || i-b.base > len(b.items)-b.head {
		return nil
	}
	if s := &b.items[b.head+i-1-b.base]; s.set {
		return s
	}
	return nil
}

// get returns the message at 1-based index i, if its storage is live.
func (b *msgBuf) get(i int) (types.AppMsg, bool) {
	if s := b.at(i); s != nil {
		return s.msg, true
	}
	return types.AppMsg{}, false
}

// longestPrefix returns the length of the gap-free prefix: the largest k such
// that indices 1..k are all (logically) present (LongestPrefixOf in Figure
// 10). Collected stable indices count as present.
func (b *msgBuf) longestPrefix() int {
	if b == nil {
		return 0
	}
	live := b.items[b.head:]
	for i := range live {
		if !live[i].set {
			return b.base + i
		}
	}
	return b.base + len(live)
}

// lastIndex returns the highest (logically) populated index (LastIndexOf in
// Figure 7). For an end-point's own buffer the sequence is contiguous, so
// lastIndex and longestPrefix coincide.
func (b *msgBuf) lastIndex() int {
	if b == nil {
		return 0
	}
	live := b.items[b.head:]
	for i := len(live); i > 0; i-- {
		if live[i-1].set {
			return b.base + i
		}
	}
	return b.base
}

// live returns the number of messages currently held in storage.
func (b *msgBuf) live() int {
	if b == nil {
		return 0
	}
	n := 0
	for _, s := range b.items[b.head:] {
		if s.set {
			n++
		}
	}
	return n
}

// collect garbage-collects every index at or below stable. Stability implies
// the prefix was delivered locally, so the dropped prefix is contiguous. The
// live tail stays where it is: collect zeroes the dropped slots (releasing
// their payloads, to the pool where they were held) and advances head.
func (b *msgBuf) collect(stable int) {
	if b == nil || stable <= b.base {
		return
	}
	drop := min(stable-b.base, len(b.items)-b.head)
	dropped := b.items[b.head : b.head+drop]
	for i := range dropped {
		s := &dropped[i]
		b.bytes -= s.pinned()
		if s.hold != nil {
			s.hold.Release()
		}
	}
	clear(dropped)
	b.head += drop
	b.base += drop
	if b.head == len(b.items) {
		b.items, b.head = b.items[:0], 0
		// Nothing is stored: an idle stream pins no chunk, and the next
		// store starts a fresh one instead of filling behind dead bytes.
		b.closeChunk()
	}
}

// bufferMap holds msgs[q][v] for all senders q and views v, keyed by the
// canonical view key (views are equal only as whole triples).
type bufferMap map[types.ProcID]map[string]*msgBuf

// buf returns msgs[q][viewKey], created on first use with p (which may be nil)
// as the pool it retains borrowed payloads in.
func (m bufferMap) buf(q types.ProcID, viewKey string, p *pool.Pool) *msgBuf {
	row := m[q]
	if row == nil {
		row = make(map[string]*msgBuf)
		m[q] = row
	}
	b := row[viewKey]
	if b == nil {
		b = &msgBuf{pool: p}
		row[viewKey] = b
	}
	return b
}

// peek returns the buffer without creating it.
func (m bufferMap) peek(q types.ProcID, viewKey string) *msgBuf {
	return m[q][viewKey]
}

// discard empties the buffer as if everything in it had become stable.
func (b *msgBuf) discard() {
	b.collect(b.base + len(b.items) - b.head)
}

// dropExcept discards every buffer whose view key differs from keep; the
// garbage-collection step an implementation performs when it installs a new
// view (Section 5.1, closing remark).
func (m bufferMap) dropExcept(keep string) {
	for q, row := range m {
		for k, b := range row {
			if k != keep {
				b.discard()
				delete(row, k)
			}
		}
		if len(row) == 0 {
			delete(m, q)
		}
	}
}

// release empties every buffer: the end-point is about to forget them all
// (Recover, Close).
func (m bufferMap) release() {
	for _, row := range m {
		for _, b := range row {
			b.discard()
		}
	}
}

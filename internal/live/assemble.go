package live

import (
	"fmt"
	"time"

	"vsgm/internal/wire"
	"vsgm/internal/wire/pool"
)

// stagingSlabSize is the largest per-connection staging window: one socket
// read lands up to this many bytes, and every frame whose body fits decodes in
// place inside the slab (larger bodies take the fill path). 16 KiB is ~50
// small frames per read, several times what a sender's flush carries.
//
// A reader holds its connection's window across the blocking read,
// and most of a process's connections are idle or carry a heartbeat a second,
// so a window is resident memory before it is batching: a connection starts at
// minStagingSize and doubles its window each time a read fills it. Links that
// carry bursts reach the full size within a few reads; the others never pay
// for it. (A fixed 64 KiB across a benchmark process's ~30 connections showed
// up as +20 % peak RSS, and a thousand idle links would hold 16 MB at a fixed
// 16 KiB.)
const (
	stagingSlabSize = 16 << 10
	minStagingSize  = 2 << 10
)

// fillSlack is how far past the end of a body a direct fill lets the kernel
// write when the fill buffer has the room: enough for the next frame's length
// prefix and its first bytes, so that a stream of back-to-back large frames
// costs one read per frame — the next fill starts knowing its size — instead
// of a staging-sized read whose contents then have to be moved. The surplus is
// copied twice (out of this buffer, into the next), which is why it is a few
// dozen bytes and not whatever the slab could take.
const fillSlack = 64

// dedicated reports whether body, a reference next handed out with a frame,
// is a buffer that holds that frame alone — the direct-fill path, always
// longer than any staging window — as opposed to a staging slab other frames
// share. A consumer may keep a dedicated buffer as long as it likes at the cost
// of the buffer itself; keeping a shared one pins every neighbour's bytes.
func dedicated(body *pool.Buf) bool {
	return body != nil && len(body.B()) > stagingSlabSize
}

// frameAssembler turns a raw byte stream into decoded frames without
// copying payloads: bytes land in pooled staging slabs, complete frames are
// decoded in place (payloads alias the slab, which is reference-counted per
// emitted frame), and frames too large for the staging window are filled
// directly into a dedicated pooled buffer — or, beyond the largest slab
// class, into a plain buffer grown only as bytes actually arrive, so a
// hostile length prefix cannot force a 16 MiB allocation up front.
//
// The protocol is: writable() hands out the next window to read into,
// advance(n) commits n bytes read, and next() drains decoded frames until it
// reports done. It is not safe for concurrent use; one assembler belongs to
// one connection, driven by its reader goroutine (fabric.readLoop, which
// drains it through fabric.drain).
type frameAssembler struct {
	pool *pool.Pool
	st   *wire.DecodeState

	slab       *pool.Buf // staging; assembler holds one reference
	start, end int       // unparsed window within the slab
	size       int       // staging size the next slab is taken at (see stagingSlabSize)

	bodyLen int // current frame's body length; -1 while reading the header

	fill  *pool.Buf // direct-fill target for bodies > staging but <= MaxSlab
	big   []byte    // grow-as-bytes-arrive fill for bodies > MaxSlab
	fillN int       // bytes landed in fill/big so far; in fill, up to fillSlack past the body

	copied int64 // bytes this assembler has moved from one buffer to another

	// frameStart stamps the frame in progress, driving the mid-frame progress
	// deadline (a trickled body must finish within the per-leg budget, it
	// cannot re-arm per byte). The clock is read only when a drain ends on a
	// partial frame that has no stamp yet — once per read at most, never per
	// decoded frame — so the stamp is the end of the read that brought the
	// frame's first bytes. Zero when no frame is in progress.
	frameStart time.Time
}

func newFrameAssembler(p *pool.Pool) *frameAssembler {
	return &frameAssembler{pool: p, st: wire.NewDecodeState(), bodyLen: -1, size: minStagingSize}
}

// close releases the assembler's buffer references. Frames already emitted
// keep their own references and stay valid.
func (a *frameAssembler) close() {
	if a.slab != nil {
		a.slab.Release()
		a.slab = nil
	}
	if a.fill != nil {
		a.fill.Release()
		a.fill = nil
	}
	a.big = nil
}

// midFrame reports whether the last drain left a frame partially assembled,
// and since when.
func (a *frameAssembler) midFrame() (time.Time, bool) {
	return a.frameStart, !a.frameStart.IsZero()
}

// partial reports whether any byte of an incomplete frame is buffered.
func (a *frameAssembler) partial() bool {
	return a.fill != nil || a.big != nil || a.bodyLen >= 0 || a.end > a.start
}

// drained ends a drain (next is about to report done): a partial frame left
// behind gets its progress stamp unless it carries one from an earlier drain,
// and an empty assembler carries none.
func (a *frameAssembler) drained() {
	if !a.partial() {
		a.frameStart = time.Time{}
	} else if a.frameStart.IsZero() {
		a.frameStart = time.Now()
	}
}

// roll moves the unparsed residual into a fresh staging slab of the current
// size. Emitted frames keep the old slab alive through their own references;
// the assembler drops its one.
func (a *frameAssembler) roll() {
	old := a.slab
	residual := a.end - a.start
	a.slab = a.pool.Get(a.size)
	if residual > 0 {
		a.copied += int64(copy(a.slab.B(), old.B()[a.start:a.end]))
	}
	a.start, a.end = 0, residual
	old.Release()
}

// stash appends surplus — what a direct fill read past the end of its body —
// to staging's unparsed window, which is empty whenever there is a surplus (a
// fill reads from the socket only after it has swallowed all of staging).
// Bytes below the window may still back frames already emitted, so the
// surplus goes behind them, or into a fresh slab when the tail has no room.
func (a *frameAssembler) stash(surplus []byte) {
	if len(a.slab.B())-a.end < len(surplus) {
		a.roll()
	}
	a.copied += int64(copy(a.slab.B()[a.end:], surplus))
	a.end += len(surplus)
}

// writable returns the window the caller should read stream bytes into.
// It never returns an empty slice.
func (a *frameAssembler) writable() []byte {
	if a.big != nil {
		if a.fillN == len(a.big) {
			// Grow only as bytes arrive: double up to the claimed size.
			grown := make([]byte, min(2*len(a.big), a.bodyLen))
			a.copied += int64(copy(grown, a.big[:a.fillN]))
			a.big = grown
		}
		return a.big[a.fillN:]
	}
	if a.fill != nil {
		return a.fill.B()[a.fillN:]
	}
	if a.slab == nil {
		a.slab = a.pool.Get(a.size)
		a.start, a.end = 0, 0
	}
	// Move the residual (less than one frame) to the top of a fresh slab when
	// the frame in progress cannot complete inside this one — growing to hold
	// it if need be — when the tail has become too short to be worth a read,
	// or, with nothing buffered, when the window has grown since this slab
	// was taken. With start at 0 and room for the frame there is nothing to
	// gain: the slab already holds nothing else.
	have, need := len(a.slab.B()), max(a.bodyLen, 0)
	for a.size < need {
		a.size *= 2
	}
	switch {
	case a.start+need > have,
		a.start > 0 && have-a.end < have/4,
		a.start == a.end && a.size > have:
		a.roll()
	}
	return a.slab.B()[a.end:]
}

// advance commits n bytes just read into the window writable returned.
func (a *frameAssembler) advance(n int) {
	if n <= 0 {
		return
	}
	if a.big != nil || a.fill != nil {
		a.fillN += n
		return
	}
	a.end += n
	if a.end == len(a.slab.B()) && a.size < stagingSlabSize {
		a.size *= 2 // the read filled its window: offer the next one more
	}
}

// next decodes the next complete frame into fr. done=true means the stream
// is exhausted for now (read more bytes); otherwise fr is valid and body,
// when non-nil, is a buffer reference the consumer must Release once the
// frame's payload is no longer in use (body==nil frames either borrow only
// the assembler's scratch or own plain memory — nothing to release). fr is
// invalidated by the following next() call on this assembler.
func (a *frameAssembler) next(fr *frame) (body *pool.Buf, done bool, err error) {
	for {
		// Direct-fill modes: the body is accumulating outside the slab.
		if a.fill != nil {
			if a.fillN < a.bodyLen {
				a.drained()
				return nil, true, nil
			}
			f := a.fill
			a.stash(f.B()[a.bodyLen:a.fillN])
			f.Resize(a.bodyLen)
			a.fill, a.fillN, a.bodyLen = nil, 0, -1
			a.frameStart = time.Time{}
			if err := wire.UnmarshalFrameBorrow(f.B(), fr, a.st); err != nil {
				f.Release()
				return nil, false, err
			}
			return f, false, nil
		}
		if a.big != nil {
			if a.fillN < a.bodyLen {
				a.drained()
				return nil, true, nil
			}
			b := a.big[:a.bodyLen]
			a.big, a.fillN, a.bodyLen = nil, 0, -1
			a.frameStart = time.Time{}
			// Oversized bodies are one-shot plain allocations: the frame owns
			// the memory outright (the GC keeps it alive through the payload),
			// so there is no reference to hand the consumer.
			if err := wire.UnmarshalFrameBorrow(b, fr, a.st); err != nil {
				return nil, false, err
			}
			return nil, false, nil
		}

		residual := a.end - a.start
		if a.bodyLen < 0 {
			if residual < 4 {
				a.drained()
				return nil, true, nil
			}
			h := a.slab.B()[a.start:]
			n := int(h[0])<<24 | int(h[1])<<16 | int(h[2])<<8 | int(h[3])
			if n > wire.MaxFrameSize {
				return nil, false, wire.ErrFrameTooLarge
			}
			a.start += 4
			a.bodyLen = n
			residual -= 4
			if a.bodyLen > stagingSlabSize {
				// Too big to ever sit contiguously in staging: switch to a
				// direct fill, seeded with whatever body bytes already landed.
				take := min(residual, a.bodyLen)
				seed := a.slab.B()[a.start : a.start+take]
				if a.bodyLen <= pool.MaxSlab {
					a.fill = a.pool.Get(a.bodyLen)
					a.fill.Resize(min(a.fill.Cap(), a.bodyLen+fillSlack))
					copy(a.fill.B(), seed)
				} else {
					a.big = make([]byte, max(len(seed), initialBigFill))
					copy(a.big, seed)
				}
				a.copied += int64(take)
				a.fillN = take
				a.start += take
				continue
			}
		}
		if residual < a.bodyLen {
			a.drained() // in-slab frame still incomplete
			return nil, true, nil
		}
		// A whole frame is contiguous in the slab: decode in place and hand
		// the consumer a reference to the slab backing it.
		win := a.slab.B()[a.start : a.start+a.bodyLen]
		a.start += a.bodyLen
		a.bodyLen = -1
		a.frameStart = time.Time{}
		if err := wire.UnmarshalFrameBorrow(win, fr, a.st); err != nil {
			return nil, false, err
		}
		a.slab.Retain(1)
		return a.slab, false, nil
	}
}

// initialBigFill seeds the grow-as-bytes-arrive buffer for frames beyond the
// largest slab class.
const initialBigFill = 64 << 10

// String renders the assembler's cursor state for test failures.
func (a *frameAssembler) String() string {
	return fmt.Sprintf("assembler{start=%d end=%d bodyLen=%d fillN=%d}", a.start, a.end, a.bodyLen, a.fillN)
}

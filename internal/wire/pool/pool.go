// Package pool provides the transport's receive-side memory: a size-classed
// slab allocator handing out reference-counted byte buffers through rings of
// reusable slabs. Either engine's reader lands many frames per read in one
// pooled slab, and a frame too large for that gets a slab to itself; every
// consumer of the bytes — a decoded frame being handled, a message slot that
// holds a large payload until it is stable, an event waiting for the
// application — holds a reference, and the final release returns the slab
// to its ring instead of the garbage collector. Misuse is loud: releasing a
// buffer more often than it was retained panics with a diagnostic, the pool
// keeps an outstanding count so tests can assert that every buffer checked
// out during a run came back, and it can be told to overwrite released slabs
// so that a read after the final release cannot go unnoticed.
package pool

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size classes run from 512 B to 128 KiB in quarter steps between powers of
// two (… 16, 20, 24, 28, 32 KiB …), so a slab is at most a quarter larger
// than what it holds: a 16 KiB payload behind its frame header takes 20 KiB,
// not 32, which matters once the protocol holds slabs instead of copying out
// of them. Every power of two — the staging-window sizes — is a class of its
// own. A Get larger than the top class is served by a plain allocation that
// is never pooled (occasional giant frames must not pin huge arrays in the
// rings).
const (
	minClassBits = 9  // 512 B
	maxClassBits = 17 // 128 KiB
	numClasses   = 4*(maxClassBits-minClassBits) + 1
)

// MaxSlab is the largest pooled buffer size; Gets beyond it are exact,
// unpooled allocations. Callers that want hostile length prefixes to pay as
// bytes arrive (rather than up-front) should switch to an incremental path
// above this bound.
const MaxSlab = 1 << maxClassBits

// ringBytes bounds each class's ring by what it pins, not by a count: at most
// this many bytes of free slabs are retained per class and further releases
// fall through to the GC. A stability round hands back every slab the view
// has acknowledged at once, dozens per sender, and a ring that drops part of
// such a release makes the next burst allocate (and zero) fresh slabs. The
// top class keeps the 64 slabs it always did; smaller classes keep more.
const ringBytes = 64 * MaxSlab

// Buf is one reference-counted pooled buffer. A Get returns a Buf holding a
// single reference; every additional consumer Retains before use and every
// consumer Releases exactly once. The final Release recycles the slab, after
// which B's contents must no longer be read.
type Buf struct {
	b     []byte
	refs  atomic.Int32
	pool  *Pool
	class int8 // -1: oversized, never pooled
}

// B returns the buffer's bytes (length as set by Get or Resize).
func (b *Buf) B() []byte { return b.b }

// Cap returns the slab's capacity.
func (b *Buf) Cap() int { return cap(b.b) }

// Resize sets the buffer's visible length to n, which must fit the slab.
func (b *Buf) Resize(n int) {
	if n > cap(b.b) {
		panic(fmt.Sprintf("pool: Resize(%d) beyond slab capacity %d", n, cap(b.b)))
	}
	b.b = b.b[:n]
}

// Refs returns the current reference count (diagnostic; racy by nature).
func (b *Buf) Refs() int32 { return b.refs.Load() }

// Retain adds n references on behalf of additional consumers.
func (b *Buf) Retain(n int32) {
	if v := b.refs.Add(n); v-n <= 0 {
		panic(fmt.Sprintf("pool: Retain(%d) on a released Buf (refs now %d)", n, v))
	}
}

// Release drops one reference; the final one returns the slab to its ring.
// Releasing more than was retained panics: a double release means some
// consumer is still reading memory the pool is about to hand to another
// connection, and that must fail loudly, not corrupt frames.
func (b *Buf) Release() {
	switch n := b.refs.Add(-1); {
	case n > 0:
	case n == 0:
		p := b.pool
		p.outstanding.Add(-1)
		if p.poison.Load() {
			// Over the whole slab, not the visible length: a holder's
			// payload may lie anywhere in it.
			full := b.b[:cap(b.b)]
			for i := range full {
				full[i] = poisonByte
			}
		}
		if b.class >= 0 {
			p.rings[b.class].put(b)
		}
	default:
		panic(fmt.Sprintf("pool: Buf over-released (refs %d): double Release, or Release after the final one recycled the slab", n))
	}
}

// ring is a bounded LIFO free list of slabs for one size class. LIFO keeps
// recently used (cache-warm) slabs circulating and lets the cold tail be
// dropped when the ring overflows.
type ring struct {
	mu   sync.Mutex
	free []*Buf
	max  int // free slabs retained: ringBytes worth of this class
}

func (r *ring) get() *Buf {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		b := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return b
	}
	return nil
}

func (r *ring) put(b *Buf) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.free) < r.max {
		r.free = append(r.free, b)
	}
	// Overflow: drop to the GC; the slab's backing array is simply garbage.
}

// Stats is a snapshot of a pool's counters.
type Stats struct {
	// Gets counts buffers checked out; Hits the ones served from a ring,
	// Misses the ones freshly allocated (including oversized one-offs).
	Gets   int64 `json:"gets"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Outstanding is the number of buffers currently checked out (Gets
	// minus final Releases) — nonzero after shutdown means a leak.
	Outstanding int64 `json:"outstanding"`
}

// Pool is a size-classed slab allocator. The zero value is not usable; use
// New.
type Pool struct {
	rings       [numClasses]*ring
	gets        atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	outstanding atomic.Int64
	poison      atomic.Bool
}

// poisonByte is what PoisonOnRelease fills a released slab with.
const poisonByte = 0xDB

// PoisonOnRelease makes every final Release overwrite the slab, so that a
// consumer still reading a buffer it no longer holds a reference to sees
// garbage at once instead of whatever the next connection happens to write
// there. It is a debugging aid for tests of code that holds pooled buffers
// across goroutines; it costs a full write of the slab per release.
func (p *Pool) PoisonOnRelease(on bool) { p.poison.Store(on) }

// New returns an empty pool; slabs are allocated on demand and recycled
// through per-class rings.
func New() *Pool {
	p := &Pool{}
	for i := range p.rings {
		p.rings[i] = &ring{max: ringBytes / classSize(i)}
	}
	return p
}

// classFor returns the smallest class index whose slab holds n bytes, or -1
// when n exceeds the largest class. Class 4k is 2^(minClassBits+k); the three
// after it add a quarter of that each.
func classFor(n int) int {
	switch {
	case n > MaxSlab:
		return -1
	case n <= 1<<minClassBits:
		return 0
	}
	k := bits.Len(uint(n-1)) - 1 // 2^k < n <= 2^(k+1)
	base, quarter := 1<<k, 1<<(k-2)
	return 4*(k-minClassBits) + (n-base+quarter-1)/quarter
}

// classSize is the slab capacity of class c.
func classSize(c int) int {
	base := 1 << (minClassBits + c/4)
	return base + c%4*(base/4)
}

// Get returns a buffer of length n (capacity rounded up to the size class),
// holding one reference. Buffers beyond the largest class are allocated
// exactly and never pooled.
func (p *Pool) Get(n int) *Buf {
	p.gets.Add(1)
	p.outstanding.Add(1)
	class := classFor(n)
	if class < 0 {
		p.misses.Add(1)
		b := &Buf{b: make([]byte, n), pool: p, class: -1}
		b.refs.Store(1)
		return b
	}
	if b := p.rings[class].get(); b != nil {
		p.hits.Add(1)
		b.b = b.b[:n]
		b.refs.Store(1)
		return b
	}
	p.misses.Add(1)
	b := &Buf{b: make([]byte, n, classSize(class)), pool: p, class: int8(class)}
	b.refs.Store(1)
	return b
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Gets:        p.gets.Load(),
		Hits:        p.hits.Load(),
		Misses:      p.misses.Load(),
		Outstanding: p.outstanding.Load(),
	}
}

// Outstanding is the number of buffers currently checked out. Zero after a
// clean shutdown; anything else is a leaked reference.
func (p *Pool) Outstanding() int64 { return p.outstanding.Load() }

package pool

import (
	"strings"
	"sync"
	"testing"
)

func TestClassRounding(t *testing.T) {
	p := New()
	cases := []struct{ n, wantCap int }{
		{1, 512}, {512, 512}, {513, 640}, {640, 640}, {641, 768}, {897, 1024},
		// The staging-window sizes are exact classes.
		{2 << 10, 2 << 10}, {4 << 10, 4 << 10}, {8 << 10, 8 << 10}, {16 << 10, 16 << 10},
		// A 16 KiB payload behind a frame header takes the next quarter step.
		{16<<10 + 1, 20 << 10}, {16<<10 + 60, 20 << 10}, {20<<10 + 1, 24 << 10},
		{28<<10 + 1, 32 << 10}, {40 << 10, 40 << 10}, {40<<10 + 17, 48 << 10},
		{64 << 10, 64 << 10}, {112<<10 + 1, 128 << 10}, {128 << 10, 128 << 10},
	}
	for _, c := range cases {
		b := p.Get(c.n)
		if len(b.B()) != c.n || b.Cap() != c.wantCap {
			t.Errorf("Get(%d): len=%d cap=%d, want len=%d cap=%d", c.n, len(b.B()), b.Cap(), c.n, c.wantCap)
		}
		b.Release()
	}
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("outstanding after releases = %d, want 0", got)
	}
}

// TestClassesCoverEverySize walks every size up to the top class: the class is
// the smallest that fits, never more than a quarter above the request (past
// the first class), and classFor/classSize agree.
func TestClassesCoverEverySize(t *testing.T) {
	for n := 1; n <= MaxSlab; n++ {
		c := classFor(n)
		if c < 0 || c >= numClasses {
			t.Fatalf("classFor(%d) = %d, outside [0,%d)", n, c, numClasses)
		}
		size := classSize(c)
		if size < n || (c > 0 && classSize(c-1) >= n) {
			t.Fatalf("classFor(%d) = %d (size %d): not the smallest class that fits", n, c, size)
		}
		if n > 1<<minClassBits && size-n >= n/4 {
			t.Fatalf("classFor(%d): slab %d wastes %d bytes, a quarter or more", n, size, size-n)
		}
	}
	if classFor(MaxSlab+1) != -1 || classSize(numClasses-1) != MaxSlab {
		t.Fatalf("top class: classFor(MaxSlab+1)=%d classSize(last)=%d", classFor(MaxSlab+1), classSize(numClasses-1))
	}
}

func TestOversizedNeverPooled(t *testing.T) {
	p := New()
	b := p.Get((128 << 10) + 1)
	if b.class != -1 {
		t.Fatalf("oversized buf got class %d, want -1", b.class)
	}
	b.Release()
	s := p.Stats()
	if s.Hits != 0 || s.Misses != 1 || s.Outstanding != 0 {
		t.Fatalf("stats after oversized cycle: %+v", s)
	}
}

func TestRingReuseAndStats(t *testing.T) {
	p := New()
	b := p.Get(1000)
	first := &b.B()[:1][0]
	b.Release()
	b2 := p.Get(900) // same class: must come back from the ring
	if &b2.B()[:1][0] != first {
		t.Fatal("second Get of the same class did not reuse the released slab")
	}
	b2.Release()
	s := p.Stats()
	if s.Gets != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want gets=2 hits=1 misses=1", s)
	}
}

// TestRingHoldsACollectionBurst pins what the byte bound is for: a hundred
// 20 KiB slabs released together — what a stability round gives back on a
// busy member — are all there for the next hundred Gets, while a ring never
// retains more than ringBytes.
func TestRingHoldsACollectionBurst(t *testing.T) {
	p := New()
	const n = 20 << 10
	burst := make([]*Buf, 100)
	for i := range burst {
		burst[i] = p.Get(n)
	}
	for _, b := range burst {
		b.Release()
	}
	for i := range burst {
		burst[i] = p.Get(n)
	}
	if s := p.Stats(); s.Hits != int64(len(burst)) {
		t.Fatalf("after a %d-slab release, %d of the next %d Gets hit the ring", len(burst), s.Hits, len(burst))
	}
	for _, b := range burst {
		b.Release()
	}
	over := make([]*Buf, ringBytes/n+10)
	for i := range over {
		over[i] = p.Get(n)
	}
	for _, b := range over {
		b.Release()
	}
	if got, limit := len(p.rings[classFor(n)].free), ringBytes/n; got != limit {
		t.Fatalf("ring retains %d free slabs after %d releases, want the byte bound %d", got, len(over), limit)
	}
}

// TestPoisonOnRelease: with the hook on, the final release — and only the
// final one — overwrites the whole slab.
func TestPoisonOnRelease(t *testing.T) {
	p := New()
	p.PoisonOnRelease(true)
	b := p.Get(700)
	mem := b.B()[:b.Cap()]
	for i := range mem {
		mem[i] = 1
	}
	b.Retain(1)
	b.Release()
	if mem[0] != 1 || mem[len(mem)-1] != 1 {
		t.Fatal("slab poisoned while a reference was still held")
	}
	b.Release()
	for i, v := range mem {
		if v != poisonByte {
			t.Fatalf("byte %d = %#x after the final release, want %#x", i, v, poisonByte)
		}
	}
}

func TestRetainRelease(t *testing.T) {
	p := New()
	b := p.Get(100)
	b.Retain(2) // three consumers total
	b.Release()
	b.Release()
	if p.Outstanding() != 1 {
		t.Fatalf("outstanding with one ref left = %d, want 1", p.Outstanding())
	}
	b.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding after final release = %d, want 0", p.Outstanding())
	}
}

// TestDoubleReleasePanics pins the misuse guard: a release beyond the last
// reference must panic with a diagnostic naming the pool, not silently
// corrupt a recycled slab.
func TestDoubleReleasePanics(t *testing.T) {
	p := New()
	b := p.Get((128 << 10) + 1) // oversized: final release does not re-ring it
	b.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double Release did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "over-released") {
			t.Fatalf("double Release panic = %v, want an over-released diagnostic", r)
		}
	}()
	b.Release()
}

func TestRetainAfterReleasePanics(t *testing.T) {
	p := New()
	b := p.Get((128 << 10) + 1)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain on a fully released Buf did not panic")
		}
	}()
	b.Retain(1)
}

// TestConcurrentChurn hammers Get/Retain/Release from many goroutines; run
// under -race this is the pool's memory-model check.
func TestConcurrentChurn(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := p.Get(64 + (seed+i)%4000)
				b.B()[0] = byte(i)
				b.Retain(1)
				b.Release()
				if b.B()[0] != byte(i) {
					t.Error("slab mutated while referenced")
				}
				b.Release()
			}
		}(g)
	}
	wg.Wait()
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding after churn = %d, want 0", p.Outstanding())
	}
}

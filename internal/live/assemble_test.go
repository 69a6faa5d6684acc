package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vsgm/internal/types"
	"vsgm/internal/wire"
	"vsgm/internal/wire/pool"
)

// encodedAppFrame returns the length-prefixed wire bytes of one KindApp
// frame with the given payload.
func encodedAppFrame(t *testing.T, id int64, payload []byte) []byte {
	t.Helper()
	m := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: id, Payload: payload}}
	fb, err := wire.EncodeFrame(frame{From: "src", Msg: &m})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Release()
	return append([]byte(nil), fb.Wire()...)
}

// feed pushes stream bytes into the assembler in chunks of at most max,
// collecting every decoded frame through visit.
func feed(t *testing.T, a *frameAssembler, stream []byte, max int, visit func(fr *frame, body *pool.Buf)) {
	t.Helper()
	var fr frame
	for len(stream) > 0 {
		w := a.writable()
		n := min(len(stream), min(len(w), max))
		copy(w, stream[:n])
		a.advance(n)
		stream = stream[n:]
		for {
			body, done, err := a.next(&fr)
			if err != nil {
				t.Fatalf("assembler error: %v", err)
			}
			if done {
				break
			}
			visit(&fr, body)
		}
	}
}

func TestAssemblerReassemblesArbitrarySegmentation(t *testing.T) {
	p := pool.New()
	rng := rand.New(rand.NewSource(7))
	var stream []byte
	const frames = 200
	for i := 0; i < frames; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, rng.Intn(600)+1)
		stream = append(stream, encodedAppFrame(t, int64(i), payload)...)
	}
	for _, chunk := range []int{1, 3, 7, 64, 1 << 20} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			a := newFrameAssembler(p)
			got := 0
			feed(t, a, stream, chunk, func(fr *frame, body *pool.Buf) {
				if fr.Msg == nil || fr.Msg.Kind != types.KindApp {
					t.Fatalf("frame %d: unexpected shape %+v", got, fr)
				}
				if id := fr.Msg.App.ID; id != int64(got) {
					t.Fatalf("frame %d decoded with ID %d", got, id)
				}
				want := byte(got)
				for _, b := range fr.Msg.App.Payload {
					if b != want {
						t.Fatalf("frame %d payload corrupted", got)
					}
				}
				got++
				if body != nil {
					body.Release()
				}
			})
			if got != frames {
				t.Fatalf("decoded %d frames, want %d", got, frames)
			}
			a.close()
			if n := p.Stats().Outstanding; n != 0 {
				t.Fatalf("%d buffers outstanding after close", n)
			}
		})
	}
}

func TestAssemblerLargeFrameTakesFillPath(t *testing.T) {
	p := pool.New()
	a := newFrameAssembler(p)
	// Larger than the staging slab, still within the largest pool class:
	// the body must land in a dedicated pooled fill buffer.
	payload := bytes.Repeat([]byte("F"), stagingSlabSize+1024)
	stream := encodedAppFrame(t, 42, payload)
	var bodies []*pool.Buf
	got := 0
	feed(t, a, stream, 8<<10, func(fr *frame, body *pool.Buf) {
		got++
		if body == nil {
			t.Fatal("fill-path frame should carry a pooled body reference")
		}
		if !bytes.Equal(fr.Msg.App.Payload, payload) {
			t.Fatal("fill-path payload corrupted")
		}
		bodies = append(bodies, body)
	})
	if got != 1 {
		t.Fatalf("decoded %d frames, want 1", got)
	}
	for _, b := range bodies {
		b.Release()
	}
	a.close()
	if n := p.Stats().Outstanding; n != 0 {
		t.Fatalf("%d buffers outstanding after close", n)
	}
}

// TestAssemblerBulkStreamOneReadPerFrame feeds a stream whose every byte is
// already "in the socket" — each read gets as much as the assembler offers —
// and counts what a run of back-to-back large frames costs. The first of a
// run is discovered inside a staging read and its landed bytes are moved once;
// every one after it starts its fill from the few surplus bytes of its
// predecessor's read, so it takes exactly one read and moves no more than the
// slack (once out of the predecessor's buffer, once into its own). Small
// frames around and between the runs are decoded in staging as ever, and the
// references a consumer keeps to them stay good while the large ones go by.
func TestAssemblerBulkStreamOneReadPerFrame(t *testing.T) {
	p := pool.New()
	a := newFrameAssembler(p)
	const large = 16 << 10 // the payload; the body is a frame header more
	var (
		stream []byte
		sizes  []int // payload sizes
		bodies []int // frame body lengths
	)
	add := func(size int) {
		enc := encodedAppFrame(t, int64(len(sizes)), bytes.Repeat([]byte{byte(len(sizes) + 1)}, size))
		stream = append(stream, enc...)
		sizes = append(sizes, size)
		bodies = append(bodies, len(enc)-4)
	}
	for _, size := range []int{40, large, large + 999, large, 300, 17, large, stagingSlabSize + 1, 2 * large, 5} {
		add(size)
	}

	type kept struct {
		id      int
		payload []byte
		body    *pool.Buf
	}
	var (
		small    []kept
		fr       frame
		got      int
		advances int
		copied   int64
	)
	for len(stream) > 0 {
		w := a.writable()
		n := copy(w, stream)
		stream = stream[n:]
		a.advance(n)
		advances++
		for {
			body, done, err := a.next(&fr)
			if err != nil {
				t.Fatalf("assembler error: %v", err)
			}
			if done {
				break
			}
			size := sizes[got]
			if len(fr.Msg.App.Payload) != size || sum(fr.Msg.App.Payload) != sum(bytes.Repeat([]byte{byte(got + 1)}, size)) {
				t.Fatalf("frame %d decoded wrong", got)
			}
			if dedicated(body) != (size >= large) {
				t.Fatalf("frame %d (%d bytes): dedicated = %v", got, size, dedicated(body))
			}
			if size >= large && got > 0 && sizes[got-1] >= large {
				// Directly behind another large frame: the steady state.
				if advances != 1 {
					t.Errorf("frame %d took %d reads, want 1", got, advances)
				}
				if moved := a.copied - copied; moved > 2*fillSlack {
					t.Errorf("frame %d: the assembler moved %d bytes, want at most the slack twice (%d)", got, moved, 2*fillSlack)
				}
			}
			if size >= large {
				if n := len(body.B()); n != bodies[got] || body.Cap()-n >= n/4 {
					t.Errorf("frame %d: a %d-byte body came in a buffer %d long with a %d slab", got, bodies[got], n, body.Cap())
				}
				body.Release()
				advances, copied = 0, a.copied
			} else {
				small = append(small, kept{got, fr.Msg.App.Payload, body})
			}
			got++
		}
	}
	if got != len(sizes) {
		t.Fatalf("decoded %d frames, want %d", got, len(sizes))
	}
	for _, k := range small {
		for _, b := range k.payload {
			if b != byte(k.id+1) {
				t.Fatalf("small frame %d, held across the large ones, was overwritten", k.id)
			}
		}
		k.body.Release()
	}
	a.close()
	if n := p.Stats().Outstanding; n != 0 {
		t.Fatalf("%d buffers outstanding after close", n)
	}
}

func TestAssemblerOversizedFrameIsPlainMemory(t *testing.T) {
	p := pool.New()
	a := newFrameAssembler(p)
	// Beyond the largest pool class: grown as bytes arrive, owned by the GC.
	payload := bytes.Repeat([]byte("G"), pool.MaxSlab+512)
	stream := encodedAppFrame(t, 7, payload)
	got := 0
	feed(t, a, stream, 32<<10, func(fr *frame, body *pool.Buf) {
		got++
		if body != nil {
			t.Fatal("oversized frame must not reference the pool")
		}
		if !bytes.Equal(fr.Msg.App.Payload, payload) {
			t.Fatal("oversized payload corrupted")
		}
	})
	if got != 1 {
		t.Fatalf("decoded %d frames, want 1", got)
	}
	a.close()
	if n := p.Stats().Outstanding; n != 0 {
		t.Fatalf("%d buffers outstanding after close", n)
	}
}

func TestAssemblerRejectsHostileLengthPrefix(t *testing.T) {
	a := newFrameAssembler(pool.New())
	defer a.close()
	huge := wire.MaxFrameSize + 1
	hdr := []byte{byte(huge >> 24), byte(huge >> 16), byte(huge >> 8), byte(huge)}
	copy(a.writable(), hdr)
	a.advance(4)
	var fr frame
	if _, _, err := a.next(&fr); err != wire.ErrFrameTooLarge {
		t.Fatalf("hostile length prefix: got err %v, want ErrFrameTooLarge", err)
	}

	// The same prefixes arriving as the surplus of a direct fill, behind a
	// large frame in one read: the bound is enforced all the same, and a
	// claim the bound admits still buys only the initial grow-as-bytes-arrive
	// buffer, not its size up front.
	for _, claim := range []int{huge, wire.MaxFrameSize} {
		b := newFrameAssembler(pool.New())
		stream := encodedAppFrame(t, 1, bytes.Repeat([]byte("L"), stagingSlabSize))
		stream = append(stream, byte(claim>>24), byte(claim>>16), byte(claim>>8), byte(claim), 0xEE)
		var err error
		for len(stream) > 0 && err == nil {
			n := copy(b.writable(), stream)
			stream = stream[n:]
			b.advance(n)
			for done := false; !done && err == nil; {
				var body *pool.Buf
				if body, done, err = b.next(&fr); body != nil {
					body.Release()
				}
			}
		}
		switch {
		case claim > wire.MaxFrameSize && err != wire.ErrFrameTooLarge:
			t.Fatalf("hostile prefix behind a large frame: got err %v, want ErrFrameTooLarge", err)
		case claim <= wire.MaxFrameSize && (err != nil || len(b.big) != initialBigFill):
			t.Fatalf("maximal prefix behind a large frame: err %v, %d bytes allocated up front, want %d", err, len(b.big), initialBigFill)
		}
		b.close()
	}
}

func TestAssemblerMidFrameStamp(t *testing.T) {
	a := newFrameAssembler(pool.New())
	defer a.close()
	if _, mid := a.midFrame(); mid {
		t.Fatal("fresh assembler claims a frame in progress")
	}
	stream := encodedAppFrame(t, 1, []byte("hello"))
	copy(a.writable(), stream[:3]) // partial header
	a.advance(3)
	var fr frame
	if _, done, _ := a.next(&fr); !done {
		t.Fatal("3 bytes should not decode a frame")
	}
	if _, mid := a.midFrame(); !mid {
		t.Fatal("partial frame not stamped as in progress")
	}
	copy(a.writable(), stream[3:])
	a.advance(len(stream) - 3)
	body, done, err := a.next(&fr)
	if err != nil || done {
		t.Fatalf("complete frame failed to decode: done=%v err=%v", done, err)
	}
	if body != nil {
		body.Release()
	}
	if _, mid := a.midFrame(); mid {
		t.Fatal("stamp not cleared after the stream drained")
	}

	// A frame whose first bytes arrive as the surplus of a direct fill — in
	// the same read as the end of a large frame — is in progress from that
	// read on, whether the surplus holds part of its prefix or more.
	large := encodedAppFrame(t, 2, bytes.Repeat([]byte("L"), stagingSlabSize))
	stream = append(large, encodedAppFrame(t, 3, []byte("hello again"))...)
	for _, lead := range []int{2, 4, 9} {
		cut := len(large) + lead
		frames := 0
		before := time.Now()
		feed(t, a, stream[:cut], 1<<20, func(_ *frame, body *pool.Buf) {
			frames++
			body.Release()
		})
		if start, mid := a.midFrame(); frames != 1 || !mid || start.Before(before) {
			t.Fatalf("lead %d: %d frames decoded, in progress = %v since %v; want the large frame and a fresh stamp", lead, frames, mid, start)
		}
		feed(t, a, stream[cut:], 1<<20, func(_ *frame, body *pool.Buf) {
			frames++
			body.Release()
		})
		if _, mid := a.midFrame(); frames != 2 || mid {
			t.Fatalf("lead %d: %d frames decoded, in progress = %v after the stream drained", lead, frames, mid)
		}
	}
}

// TestPooledBodyCrossesGoroutines is the -race witness for the refcount
// contract: frame bodies decoded on one goroutine are handed to concurrent
// consumers that read the payload and release their reference, while the
// producer keeps decoding into fresh slabs. Run with -race.
func TestPooledBodyCrossesGoroutines(t *testing.T) {
	p := pool.New()
	a := newFrameAssembler(p)
	type delivery struct {
		payload []byte
		body    *pool.Buf
	}
	ch := make(chan delivery, 64)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range ch {
				sum := byte(0)
				for _, b := range d.payload {
					sum ^= b
				}
				_ = sum
				if d.body != nil {
					d.body.Release()
				}
			}
		}()
	}
	const frames = 500
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = append(stream, encodedAppFrame(t, int64(i), bytes.Repeat([]byte{byte(i)}, 200))...)
	}
	got := 0
	feed(t, a, stream, 4<<10, func(fr *frame, body *pool.Buf) {
		got++
		ch <- delivery{payload: fr.Msg.App.Payload, body: body}
	})
	close(ch)
	wg.Wait()
	if got != frames {
		t.Fatalf("decoded %d frames, want %d", got, frames)
	}
	a.close()
	if n := p.Stats().Outstanding; n != 0 {
		t.Fatalf("%d buffers outstanding after all consumers released", n)
	}
}

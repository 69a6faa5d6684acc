package wire

// Allocation-regression tests and benchmarks for the marshal hot path: the
// codec must encode without per-call scratch allocations (no bool-map
// literals, pooled frame buffers), and the batch encoder must coalesce many
// frames into few flushes without disturbing frame boundaries.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"vsgm/internal/types"
)

func smallView() types.View {
	return types.NewView(7, types.NewProcSet("a", "b"),
		map[types.ProcID]types.StartChangeID{"a": 1, "b": 2})
}

// smallAppFrame is the steady-state multicast frame: one application message
// with its history view, the unit the live transport fans out.
func smallAppFrame() Frame {
	m := types.WireMsg{
		Kind:      types.KindApp,
		App:       types.AppMsg{ID: 42, Payload: []byte("payload!")},
		HistView:  smallView(),
		HistIndex: 3,
	}
	return Frame{From: "a", Msg: &m}
}

// TestBoolEncodeNoAllocs pins the satellite fix: encoding a bool field is a
// branch, not a map literal built per call.
func TestBoolEncodeNoAllocs(t *testing.T) {
	w := buffer{b: make([]byte, 0, 16)}
	if got := testing.AllocsPerRun(1000, func() {
		w.b = w.b[:0]
		w.bool(true)
		w.bool(false)
	}); got != 0 {
		t.Fatalf("bool encode allocates %.1f times per run, want 0", got)
	}
	w.b = w.b[:0]
	w.bool(true)
	w.bool(false)
	if !bytes.Equal(w.b, []byte{1, 0}) {
		t.Fatalf("bool encoding = %v, want [1 0]", w.b)
	}
}

// TestSmallFrameMarshalAllocs bounds the marshal cost of a small app frame
// into a reused buffer. The only remaining allocations are the sorted
// member slices of the embedded view (2 with the stdlib sort); the bool-map
// and buffer-growth allocations must be gone.
func TestSmallFrameMarshalAllocs(t *testing.T) {
	f := smallAppFrame()
	dst := make([]byte, 0, 256)
	got := testing.AllocsPerRun(1000, func() {
		b, err := AppendFrame(dst[:0], f)
		if err != nil || len(b) == 0 {
			t.Fatal("marshal failed")
		}
	})
	// One Sorted() slice plus sort.Slice bookkeeping; anything above 4 means
	// a per-call scratch allocation crept back into the codec.
	if got > 4 {
		t.Fatalf("small app frame marshal allocates %.1f times per run, want <= 4", got)
	}
}

// TestSyncFrameMarshalAllocs covers the bool-heavy sync frame: two bool
// fields used to cost two map allocations each marshal.
func TestSyncFrameMarshalAllocs(t *testing.T) {
	m := types.WireMsg{Kind: types.KindSync, CID: 9, Small: true, View: smallView(),
		Cut: types.Cut{"a": 10, "b": 20}}
	f := Frame{From: "a", Msg: &m}
	dst := make([]byte, 0, 256)
	got := testing.AllocsPerRun(1000, func() {
		if _, err := AppendFrame(dst[:0], f); err != nil {
			t.Fatal(err)
		}
	})
	// View.Sorted + cut's sorted proc slice (+ sort internals). Before the
	// bool fix this path paid two extra map allocations per marshal.
	if got > 8 {
		t.Fatalf("sync frame marshal allocates %.1f times per run, want <= 8", got)
	}
}

// TestEncodeFramePoolSteadyState: once the pool is warm, encoding a
// heartbeat frame (no embedded sets, so no sort scratch) allocates nothing.
func TestEncodeFramePoolSteadyState(t *testing.T) {
	m := types.WireMsg{Kind: types.KindHeartbeat}
	f := Frame{From: "srv0", Msg: &m}
	if got := testing.AllocsPerRun(1000, func() {
		fb, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		fb.Release()
	}); got > 0 {
		t.Fatalf("pooled heartbeat encode allocates %.1f times per run, want 0", got)
	}
}

// TestFrameBufRetainRelease exercises the fan-out contract: N consumers of
// one buffer, each releasing once; the bytes stay valid until the last.
func TestFrameBufRetainRelease(t *testing.T) {
	fb, err := EncodeFrame(smallAppFrame())
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), fb.Bytes()...)
	fb.Retain(7) // 8 consumers total
	for i := 0; i < 7; i++ {
		if !bytes.Equal(fb.Bytes(), want) {
			t.Fatalf("shared bytes changed before final release (consumer %d)", i)
		}
		fb.Release()
	}
	fb.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("over-release must panic")
		}
	}()
	fb.Release()
}

// countingWriter counts the Write calls it absorbs — with a bufio.Writer in
// front, one count per flush.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// wireForm returns f in stream form (length prefix + body), as a detached
// copy of what FrameBuf.Wire hands a writer.
func wireForm(t testing.TB, f Frame) []byte {
	t.Helper()
	fb, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Release()
	if n := len(fb.Bytes()); !bytes.Equal(fb.Wire()[:4], []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}) ||
		!bytes.Equal(fb.Wire()[4:], fb.Bytes()) {
		t.Fatalf("Wire is not the length prefix of Bytes followed by Bytes")
	}
	return append([]byte(nil), fb.Wire()...)
}

// TestWriteBatchCoalescesFlushes writes a burst through WriteBatch and
// asserts (a) a single uncapped batch reaches the stream in one write, (b)
// every frame survives intact and in order, (c) a byte cap splits the batch
// into multiple flushes without corrupting boundaries, (d) a frame at or past
// the spill size goes out whole, in order, without being copied.
func TestWriteBatchCoalescesFlushes(t *testing.T) {
	mkFrames := func(n int) ([][]byte, []Frame) {
		var encs [][]byte
		var frames []Frame
		for i := 0; i < n; i++ {
			m := types.WireMsg{Kind: types.KindApp,
				App: types.AppMsg{ID: int64(i), Payload: []byte(fmt.Sprintf("m-%03d", i))}}
			f := Frame{From: "a", Msg: &m}
			encs = append(encs, wireForm(t, f))
			frames = append(frames, f)
		}
		return encs, frames
	}
	decodeAll := func(raw *countingWriter, want []Frame) {
		t.Helper()
		dec := NewDecoder(&raw.Buffer)
		for i := range want {
			var got Frame
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("frame %d failed to decode after coalescing: %v", i, err)
			}
			if got.Msg == nil || got.Msg.App.ID != want[i].Msg.App.ID ||
				!bytes.Equal(got.Msg.App.Payload, want[i].Msg.App.Payload) {
				t.Fatalf("frame %d corrupted by coalescing", i)
			}
		}
	}

	// Uncapped: one flush, one underlying write.
	raw := &countingWriter{}
	enc := NewEncoder(raw)
	encs, frames := mkFrames(50)
	sent, flushes, err := enc.WriteBatch(encs, 0)
	if err != nil || sent != 50 {
		t.Fatalf("WriteBatch = (%d, %d, %v), want all 50 sent", sent, flushes, err)
	}
	if flushes != 1 || raw.writes != 1 {
		t.Errorf("uncapped batch: flushes=%d writes=%d, want 1 and 1", flushes, raw.writes)
	}
	decodeAll(raw, frames)

	// Capped at ~4 frames of bytes: several flushes, same intact stream.
	raw = &countingWriter{}
	enc = NewEncoder(raw)
	encs, frames = mkFrames(50)
	cap := 4 * len(encs[0])
	sent, flushes, err = enc.WriteBatch(encs, cap)
	if err != nil || sent != 50 {
		t.Fatalf("capped WriteBatch = (%d, %d, %v), want all 50 sent", sent, flushes, err)
	}
	if flushes < 10 {
		t.Errorf("capped batch: flushes=%d, want >=10 under a 4-frame cap", flushes)
	}
	decodeAll(raw, frames)

	// A large frame between small ones: three writes (the small frames
	// buffered ahead of it, the large frame as is, the tail), one flush.
	raw = &countingWriter{}
	enc = NewEncoder(raw)
	encs, frames = mkFrames(2)
	bigMsg := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 99, Payload: bytes.Repeat([]byte("B"), spillBytes)}}
	big := Frame{From: "a", Msg: &bigMsg}
	encs = [][]byte{encs[0], wireForm(t, big), encs[1]}
	frames = []Frame{frames[0], big, frames[1]}
	sent, flushes, err = enc.WriteBatch(encs, 0)
	if err != nil || sent != 3 || flushes != 1 || raw.writes != 3 {
		t.Fatalf("batch around a large frame = (%d, %d, %v) in %d writes, want 3 frames, 1 flush, 3 writes", sent, flushes, err, raw.writes)
	}
	decodeAll(raw, frames)
}

// failAfterWriter errors on the n+1th Write.
type failAfterWriter struct {
	n      int
	writes int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errors.New("injected write failure")
	}
	return len(p), nil
}

// TestWriteBatchPartialFailureReportsSent: an error mid-batch reports the
// frames already flushed, so the link supervisor retries exactly the suffix.
func TestWriteBatchPartialFailureReportsSent(t *testing.T) {
	enc := NewEncoder(&failAfterWriter{n: 2})
	encs, _ := func() ([][]byte, []Frame) {
		var e [][]byte
		for i := 0; i < 10; i++ {
			m := types.WireMsg{Kind: types.KindApp,
				App: types.AppMsg{ID: int64(i), Payload: []byte("xxxx")}}
			e = append(e, wireForm(t, Frame{From: "a", Msg: &m}))
		}
		return e, nil
	}()
	perFrame := len(encs[0])
	sent, flushes, err := enc.WriteBatch(encs, perFrame) // flush every frame
	if err == nil {
		t.Fatal("expected the injected write failure")
	}
	if sent != 2 || flushes != 2 {
		t.Fatalf("sent=%d flushes=%d, want exactly the 2 flushed frames reported", sent, flushes)
	}
}

// BenchmarkWireMarshal measures the pooled encode path: one frame
// ("append-pooled"), and the marshal cost of one multicast to N destinations
// ("fanout-N": one encoding, N references taken and released).
func BenchmarkWireMarshal(b *testing.B) {
	f := smallAppFrame()
	b.Run("append-pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fb, err := EncodeFrame(f)
			if err != nil {
				b.Fatal(err)
			}
			fb.Release()
		}
	})
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("fanout-%d/encode-once", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fb, err := EncodeFrame(f)
				if err != nil {
					b.Fatal(err)
				}
				fb.Retain(int32(n - 1))
				for j := 0; j < n; j++ {
					fb.Release()
				}
			}
		})
	}
}

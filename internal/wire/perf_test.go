package wire

// Allocation-regression tests and benchmarks for the marshal hot path: the
// codec must encode without per-call scratch allocations (no bool-map
// literals, pooled frame buffers), and the batch encoder must put each run of
// frames on the stream in one vectored write without disturbing frame
// boundaries.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"

	"vsgm/internal/types"
)

func smallView() types.View {
	return types.NewView(7, types.NewProcSet("a", "b"),
		map[types.ProcID]types.StartChangeID{"a": 1, "b": 2})
}

// smallAppFrame is the steady-state multicast frame: one application message,
// the unit the live transport fans out.
func smallAppFrame() Frame {
	m := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 42, Payload: []byte("payload!")}}
	return Frame{Msg: &m}
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

// TestSmallFrameMarshalAllocs: marshaling a small app frame into a reused
// buffer allocates nothing — the frame carries no set that needs sorting.
func TestSmallFrameMarshalAllocs(t *testing.T) {
	f := smallAppFrame()
	dst := make([]byte, 0, 256)
	got := testing.AllocsPerRun(1000, func() {
		b, err := AppendFrame(dst[:0], f)
		if err != nil || len(b) == 0 {
			t.Fatal("marshal failed")
		}
	})
	if got != 0 {
		t.Fatalf("small app frame marshal allocates %.1f times per run, want 0", got)
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

// countingWriter is a plain io.Writer that counts its Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// vecWriter is a BuffersWriter — the shape of the live transport's socket —
// that counts its vectored calls, records how many bytes each carried, and
// keeps what they wrote. With failOn > 0 the failOn-th call fails before
// writing anything. Write is counted apart: the encoder must never fall back
// to it.
type vecWriter struct {
	bytes.Buffer
	calls  int
	runs   []int // bytes per call
	failOn int
	writes int
}

func (v *vecWriter) Write(p []byte) (int, error) {
	v.writes++
	return v.Buffer.Write(p)
}

func (v *vecWriter) WriteBuffers(bufs *net.Buffers) (int64, error) {
	v.calls++
	if v.calls == v.failOn {
		return 0, errors.New("injected write failure")
	}
	n, err := bufs.WriteTo(&v.Buffer)
	v.runs = append(v.runs, int(n))
	return n, err
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

// appFrames returns n application frames with payloads of size bytes (0: a
// short distinct string), in stream form and as frames.
func appFrames(t testing.TB, n, size int) ([][]byte, []Frame) {
	var encs [][]byte
	var frames []Frame
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("m-%03d", i))
		if size > 0 {
			payload = bytes.Repeat([]byte{byte(i)}, size)
		}
		m := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: int64(i), Payload: payload}}
		f := Frame{From: "a", Msg: &m}
		encs = append(encs, wireForm(t, f))
		frames = append(frames, f)
	}
	return encs, frames
}

// decodeAll requires the stream in b to be exactly want, in order.
func decodeAll(t *testing.T, b *bytes.Buffer, want []Frame) {
	t.Helper()
	dec := NewDecoder(b)
	for i := range want {
		var got Frame
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("frame %d failed to decode: %v", i, err)
		}
		if got.Msg == nil || got.Msg.App.ID != want[i].Msg.App.ID ||
			!bytes.Equal(got.Msg.App.Payload, want[i].Msg.App.Payload) {
			t.Fatalf("frame %d corrupted on the way to the stream", i)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("%d bytes left on the stream after the last frame", b.Len())
	}
}

// TestWriteBatchCoalescesFlushes pins one vectored write per run: (a) a
// single uncapped batch of small frames reaches the stream in one call, (b)
// every frame survives intact and in order, (c) a byte cap splits the batch
// into several calls without corrupting boundaries, (d) a large frame between
// small ones rides the same call, and a batch of large frames that fits the
// cap is one call too, and (e) a writer without the vectored method gets one
// Write per frame.
func TestWriteBatchCoalescesFlushes(t *testing.T) {
	check := func(name string, encs [][]byte, frames []Frame, maxBytes, wantCalls int) *vecWriter {
		t.Helper()
		raw := &vecWriter{}
		sent, flushes, err := NewEncoder(raw).WriteBatch(encs, maxBytes)
		if err != nil || sent != len(encs) {
			t.Fatalf("%s: WriteBatch = (%d, %d, %v), want all %d sent", name, sent, flushes, err, len(encs))
		}
		if flushes != raw.calls || raw.writes != 0 || (wantCalls > 0 && raw.calls != wantCalls) {
			t.Errorf("%s: flushes=%d calls=%d writes=%d, want %d vectored calls, one per flush, no Write",
				name, flushes, raw.calls, raw.writes, wantCalls)
		}
		decodeAll(t, &raw.Buffer, frames)
		return raw
	}

	encs, frames := appFrames(t, 50, 0)
	check("uncapped", encs, frames, 0, 1)

	if raw := check("capped at 4 frames", encs, frames, 4*len(encs[0]), 0); raw.calls < 10 {
		t.Errorf("capped batch: %d calls, want >=10 under a 4-frame cap", raw.calls)
	}

	small, smallFrames := appFrames(t, 2, 0)
	big, bigFrames := appFrames(t, 1, 16<<10)
	check("small, 16 KiB, small", [][]byte{small[0], big[0], small[1]},
		[]Frame{smallFrames[0], bigFrames[0], smallFrames[1]}, 0, 1)

	encs, frames = appFrames(t, 4, 16<<10)
	check("four 16 KiB frames under 128 KiB", encs, frames, 128<<10, 1)

	plain := &countingWriter{}
	sent, flushes, err := NewEncoder(plain).WriteBatch(encs, 0)
	if err != nil || sent != 4 || flushes != 1 || plain.writes != 4 {
		t.Fatalf("plain writer: (%d, %d, %v) in %d writes, want 4 frames, 1 flush, 4 writes", sent, flushes, err, plain.writes)
	}
	decodeAll(t, &plain.Buffer, frames)
}

// TestWriteBatchPartialFailureReportsSent: an error mid-batch reports the
// frames of the runs already written, so the link supervisor retries exactly
// the suffix.
func TestWriteBatchPartialFailureReportsSent(t *testing.T) {
	encs, frames := appFrames(t, 10, 4)
	raw := &vecWriter{failOn: 3}
	sent, flushes, err := NewEncoder(raw).WriteBatch(encs, 2*len(encs[0])) // runs of two frames
	if err == nil {
		t.Fatal("expected the injected write failure")
	}
	if sent != 4 || flushes != 2 {
		t.Fatalf("sent=%d flushes=%d, want the 4 frames of the first 2 runs reported", sent, flushes)
	}
	decodeAll(t, &raw.Buffer, frames[:4])
}

// TestWriteBatchRefusesOversizedFrameFirst: a frame over the transport bound
// fails the batch before any run reaches the stream.
func TestWriteBatchRefusesOversizedFrameFirst(t *testing.T) {
	encs, _ := appFrames(t, 3, 0)
	encs = append(encs, make([]byte, prefixLen+maxFrameSize+1))
	raw := &vecWriter{}
	sent, flushes, err := NewEncoder(raw).WriteBatch(encs, len(encs[0]))
	if !errors.Is(err, ErrFrameTooLarge) || sent != 0 || flushes != 0 || raw.calls != 0 || raw.Len() != 0 {
		t.Fatalf("WriteBatch = (%d, %d, %v) after %d calls, %d bytes; want ErrFrameTooLarge with nothing written",
			sent, flushes, err, raw.calls, raw.Len())
	}
}

// TestWriteBatchMatchesModel runs seeded random batches — frames with bodies
// of 0 B to 20 KiB, random caps, a failure injected on a random call or none
// — against the rule WriteBatch documents: a run ends once it holds maxBytes
// or at the end of the batch. The stream must be the written runs' frames
// concatenated, each call must carry exactly one run, and sent and flushes
// must count the complete runs.
func TestWriteBatchMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 300; trial++ {
		frames := make([][]byte, rng.Intn(40))
		for i := range frames {
			body := make([]byte, rng.Intn(20<<10+1))
			rng.Read(body)
			frames[i] = binary.BigEndian.AppendUint32(nil, uint32(len(body)))
			frames[i] = append(frames[i], body...)
		}
		maxBytes := 0
		switch rng.Intn(4) {
		case 1, 2:
			maxBytes = 1 + rng.Intn(200<<10)
		case 3: // exactly what the first few frames hold: a run ends on the cap
			if len(frames) > 0 {
				maxBytes = len(bytes.Join(frames[:1+rng.Intn(len(frames))], nil))
			}
		}

		// The model: where each run ends, and its bytes.
		var ends, runBytes []int
		n := 0
		for i, f := range frames {
			n += len(f)
			if i == len(frames)-1 || (maxBytes > 0 && n >= maxBytes) {
				ends, runBytes, n = append(ends, i+1), append(runBytes, n), 0
			}
		}
		failOn := 0
		if len(ends) > 0 && rng.Intn(3) == 0 {
			failOn = 1 + rng.Intn(len(ends))
		}
		wantFlushes := len(ends)
		if failOn > 0 {
			wantFlushes = failOn - 1
		}
		wantSent := 0
		if wantFlushes > 0 {
			wantSent = ends[wantFlushes-1]
		}

		raw := &vecWriter{failOn: failOn}
		sent, flushes, err := NewEncoder(raw).WriteBatch(frames, maxBytes)
		if (err != nil) != (failOn > 0) || sent != wantSent || flushes != wantFlushes {
			t.Fatalf("trial %d (%d frames, cap %d, fail on call %d): WriteBatch = (%d, %d, %v), want (%d, %d)",
				trial, len(frames), maxBytes, failOn, sent, flushes, err, wantSent, wantFlushes)
		}
		if !slices.Equal(raw.runs, runBytes[:wantFlushes]) || raw.writes != 0 {
			t.Fatalf("trial %d: calls carried %v bytes (and %d plain writes), want runs of %v",
				trial, raw.runs, raw.writes, runBytes[:wantFlushes])
		}
		if want := bytes.Join(frames[:wantSent], nil); !bytes.Equal(raw.Bytes(), want) {
			t.Fatalf("trial %d: stream holds %d bytes, not the %d bytes of the first %d frames", trial, raw.Len(), len(want), wantSent)
		}
	}
}

// TestWriteBatchVectoredNoAllocs: once the encoder's run header has grown to
// a batch, handing batches to a vectored writer allocates nothing.
func TestWriteBatchVectoredNoAllocs(t *testing.T) {
	encs, _ := appFrames(t, 63, 0)
	big, _ := appFrames(t, 1, 16<<10)
	encs = append(encs, big...)
	raw := &vecWriter{runs: make([]int, 0, 1)}
	enc := NewEncoder(raw)
	if got := testing.AllocsPerRun(100, func() {
		raw.Reset()
		raw.runs = raw.runs[:0]
		if _, _, err := enc.WriteBatch(encs, 128<<10); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("WriteBatch on a vectored writer allocates %.1f times per batch, want 0", got)
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

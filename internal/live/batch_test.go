package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/membership"
	"vsgm/internal/types"
	"vsgm/internal/wire"
	"vsgm/internal/wire/pool"
)

// TestBatchedReceiveHoldsCreditBehindOnEvent pins the contracts the batched
// receive path must not bend. A receiver whose OnEvent blocks still runs the
// automaton (Observe fires for every message, under the node's lock, in
// automaton order) but returns no credit for those messages: the consumed
// marker is queued behind the events its frames caused, so the sender's
// window stays shut until the application has actually processed them. Once
// OnEvent returns, the events arrive in exactly the order Observe saw them,
// and credit flows again.
func TestBatchedReceiveHoldsCreditBehindOnEvent(t *testing.T) {
	const window = 8
	var (
		receiver atomic.Pointer[Node]
		armed    atomic.Bool
		gate     = make(chan struct{})
		mu       sync.Mutex
		observed []int64
		handled  []int64
		unlocked atomic.Int64
	)
	w := newLiveWorldWith(t, 1, 2, func(c *NodeConfig) {
		c.Transport.Window = window
		if c.ID != "cli1" {
			return
		}
		specObserve := c.Observe
		c.Observe = func(ev core.Event) {
			specObserve(ev)
			de, ok := ev.(core.DeliverEvent)
			if !ok || !armed.Load() {
				return
			}
			if n := receiver.Load(); n != nil && n.mu.TryLock() {
				n.mu.Unlock()
				unlocked.Add(1)
			}
			mu.Lock()
			observed = append(observed, de.Msg.ID)
			mu.Unlock()
		}
		c.OnEvent = func(ev core.Event) {
			de, ok := ev.(core.DeliverEvent)
			if !ok || !armed.Load() {
				return
			}
			<-gate
			mu.Lock()
			handled = append(handled, de.Msg.ID)
			mu.Unlock()
		}
	})
	defer w.close()
	receiver.Store(w.clients["cli1"])
	w.boot()
	w.waitGroupFormed()
	armed.Store(true)

	sender := w.clients["cli0"]
	for i := 0; i < window; i++ {
		if _, err := sender.TrySend([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("send %d inside the window: %v", i, err)
		}
	}
	count := func(ids *[]int64) int {
		mu.Lock()
		defer mu.Unlock()
		return len(*ids)
	}
	w.waitFor("the receiver's automaton to deliver the whole window", func() bool {
		return count(&observed) == window
	})

	// OnEvent is parked on the first message. Nothing was consumed, so no
	// credit may leave the receiver and the sender's window must stay shut.
	time.Sleep(150 * time.Millisecond)
	if got := count(&handled); got != 0 {
		t.Fatalf("OnEvent returned for %d messages while gated", got)
	}
	if s := linkCounts(w.clients["cli1"].fabric, "cli0"); s["credit_frames"] != 0 || s["credits_granted"] != 0 {
		t.Fatalf("receiver returned credit before OnEvent ran: %d credit frames, %d granted", s["credit_frames"], s["credits_granted"])
	}
	if _, err := sender.TrySend([]byte("overflow")); err != ErrOverloaded {
		t.Fatalf("send past the unconsumed window: err = %v, want ErrOverloaded", err)
	}

	close(gate)
	w.waitFor("OnEvent to receive the whole window", func() bool { return count(&handled) == window })
	w.waitFor("credit to return once the application consumed the window", func() bool {
		return linkCounts(w.clients["cli1"].fabric, "cli0")["credit_frames"] > 0
	})
	w.waitFor("the sender's window to reopen", func() bool {
		_, err := sender.TrySend([]byte("after"))
		return err == nil
	})

	mu.Lock()
	defer mu.Unlock()
	for i := range handled {
		if handled[i] != observed[i] {
			t.Fatalf("OnEvent order %v differs from automaton order %v", handled, observed[:window])
		}
	}
	if n := unlocked.Load(); n != 0 {
		t.Fatalf("Observe ran %d times without the node's lock held", n)
	}
	if err := w.specErr(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

// recordedStream is a mixed stream in wire form — every frame kind the
// receive path distinguishes, a body larger than the staging window, one
// larger than the biggest pool slab, and a run of three large bodies back to
// back with small frames on either side — together with its per-frame
// boundaries.
func recordedStream(t *testing.T) (stream []byte, bounds []int) {
	t.Helper()
	v := types.NewView(3, types.NewProcSet("a", "b"), map[types.ProcID]types.StartChangeID{"a": 1, "b": 2})
	app := func(id int64, size int) frame {
		m := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: id, Payload: bytes.Repeat([]byte{byte(id)}, size)}, HistView: v, HistIndex: int(id)}
		return frame{From: "src", Msg: &m}
	}
	syncMsg := types.WireMsg{Kind: types.KindSync, CID: 4, View: v, Cut: types.Cut{"a": 1}}
	for _, fr := range []frame{
		app(1, 40),
		{From: "src", Notify: &membership.Notification{Kind: membership.NotifyView, View: v, Trace: 9}},
		{From: "src", Credit: &wire.Credit{Grant: 1 << 20}},
		app(2, 300),
		{From: "src", Attach: &wire.Attach{Kind: wire.AttachAck, Client: "c", Epoch: 2, CID: 5, Vid: 7}},
		{From: "src", Msg: &syncMsg},
		app(3, stagingSlabSize+100),
		app(4, 1),
		app(5, pool.MaxSlab+100),
		{From: "src", Notify: &membership.Notification{Kind: membership.NotifyStartChange, StartChange: types.StartChange{ID: 9, Set: types.NewProcSet("a", "b")}}},
		app(6, 17),
		app(7, stagingSlabSize+100),
		app(8, 20_000),
		app(9, stagingSlabSize+1),
		app(10, 33),
	} {
		fb, err := wire.EncodeFrame(fr)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, fb.Wire()...)
		bounds = append(bounds, len(stream))
		fb.Release()
	}
	return stream, bounds
}

// frameDigest renders what identifies a delivered frame, payload included.
func frameDigest(fr frame) string {
	switch {
	case fr.Msg != nil:
		return fmt.Sprintf("msg kind=%d id=%d idx=%d cid=%d payload=%d/%x", fr.Msg.Kind, fr.Msg.App.ID, fr.Msg.HistIndex,
			fr.Msg.CID, len(fr.Msg.App.Payload), sum(fr.Msg.App.Payload))
	case fr.Notify != nil:
		return fmt.Sprintf("notify kind=%d view=%s sc=%d trace=%d", fr.Notify.Kind, fr.Notify.View.Key(), fr.Notify.StartChange.ID, fr.Notify.Trace)
	case fr.Attach != nil:
		return fmt.Sprintf("attach %+v", *fr.Attach)
	case fr.Credit != nil:
		return fmt.Sprintf("credit %d", fr.Credit.Grant)
	default:
		return "handshake"
	}
}

func sum(b []byte) (s uint32) {
	for _, c := range b {
		s = s*31 + uint32(c)
	}
	return s
}

// TestFabricByteSplitDelivery writes the recorded stream to a fabric over
// real sockets, split in two at every offset of its small-frame head and at a
// spread of offsets through (and right around the edges of) its large
// frames, and requires the same frame sequence as decoding each frame of the
// whole stream on its own — credit frames excepted, which end in the fabric and are checked
// through the window they grant. The consumer
// keeps every pooled body it is handed until the whole stream is through, so
// a later frame written over bytes an earlier one still aliases — the surplus
// of a direct fill landing in the wrong part of staging, say — shows as a
// changed payload. Every pooled buffer must be back when the fabric closes.
func TestFabricByteSplitDelivery(t *testing.T) {
	stream, bounds := recordedStream(t)

	// The reference: split the stream at its length prefixes and decode each
	// body into storage of its own.
	var want []string
	for i, off := 0, 0; off < len(stream); i++ {
		end := off + 4 + int(binary.BigEndian.Uint32(stream[off:]))
		if i >= len(bounds) || end != bounds[i] {
			t.Fatalf("reference split: frame %d ends at %d, want boundary %v", i, end, bounds)
		}
		fr, err := wire.UnmarshalFrame(stream[off+4 : end])
		if err != nil {
			t.Fatalf("reference decode of frame %d: %v", i, err)
		}
		if fr.Credit == nil {
			want = append(want, frameDigest(fr))
		}
		off = end
	}

	type keptBody struct {
		body    *pool.Buf
		payload []byte
		sum     uint32
	}
	var (
		mu   sync.Mutex
		got  []string
		kept []keptBody
	)
	rx, err := newFabricRef("rx", "127.0.0.1:0", TransportConfig{},
		func(_ types.ProcID, fr frame, body *pool.Buf) {
			mu.Lock()
			got = append(got, frameDigest(fr))
			if body != nil {
				k := keptBody{body: body}
				if fr.Msg != nil {
					k.payload, k.sum = fr.Msg.App.Payload, sum(fr.Msg.App.Payload)
				}
				kept = append(kept, k)
			}
			mu.Unlock()
		}, func(types.ProcID, error) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		rx.Close()
		if n := rx.PoolStats().Outstanding; n != 0 {
			t.Errorf("%d pooled buffers outstanding after Close", n)
		}
	}()

	hello, err := wire.EncodeFrame(frame{From: "tx"})
	if err != nil {
		t.Fatal(err)
	}
	defer hello.Release()

	// Offsets: every byte of the head (the frames before the first large
	// one, and into it), then each frame boundary ±5 and a coarse stride.
	head := bounds[5] + 64
	offsets := make(map[int]bool)
	for k := 1; k < head; k++ {
		offsets[k] = true
	}
	for _, b := range bounds {
		for d := -5; d <= 5; d++ {
			if k := b + d; k > 0 && k < len(stream) {
				offsets[k] = true
			}
		}
	}
	for k := head; k < len(stream); k += 4093 {
		offsets[k] = true
	}

	for k := range offsets {
		mu.Lock()
		got = got[:0]
		mu.Unlock()
		conn, err := net.Dial("tcp", rx.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range [][]byte{hello.Wire(), stream[:k], stream[k:]} {
			if _, err := conn.Write(part); err != nil {
				t.Fatalf("split %d: write: %v", k, err)
			}
			time.Sleep(100 * time.Microsecond) // let the reader see the parts apart
		}
		var seen []string
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			mu.Lock()
			seen = append(seen[:0], got...)
			mu.Unlock()
			if len(seen) >= len(want) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("split %d: %d of %d frames delivered", k, len(seen), len(want))
			}
		}
		conn.Close()
		if len(seen) != len(want) {
			t.Fatalf("split %d: %d frames delivered, want %d", k, len(seen), len(want))
		}
		for i := range want {
			if seen[i] != want[i] {
				t.Fatalf("split %d: frame %d delivered as %q, want %q", k, i, seen[i], want[i])
			}
		}
		mu.Lock()
		for _, kb := range kept {
			if sum(kb.payload) != kb.sum {
				t.Errorf("split %d: a %d-byte payload changed while its buffer was held", k, len(kb.payload))
			}
			kb.body.Release()
		}
		kept = kept[:0]
		mu.Unlock()
	}
	if l := rx.linkFor("tx"); l.granted != 1<<20 {
		t.Errorf("credit frame did not reach the outbound window: granted = %d", l.granted)
	}
}

// TestLiveReceivePathAllocCeiling streams 20 000 multicasts through a
// two-member loopback group and bounds the whole process's allocations per
// delivered message, by count and by bytes. What a multicast legitimately
// allocates end to end: the boxed DeliverEvent at each of the two members, plus
// amortized acknowledgments, credit frames and timers — the stored payload is
// packed into a pooled chunk, not allocated. A heap copy of the payload coming
// back at either member adds half an allocation and 128 bytes per delivery; a
// per-frame closure, scratch message or regrown event slice anywhere between
// read() and OnEvent at least as much. Either fails here, in tier-1, not only
// in the benchmark.
func TestLiveReceivePathAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		warm         = 2_000
		msgs         = 20_000
		ceiling      = 1.45 // measured 1.12–1.18 (2.2–2.3 while small payloads were heap copies), plus 25 %
		bytesCeiling = 175  // measured 135–142 (396–416 with the heap copy), plus 25 %
	)
	g := newPairGroup(t)
	payload := make([]byte, 256)
	stream := func(n int) { g.stream(t, payload, n, n) }
	stream(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream(msgs)
	runtime.ReadMemStats(&after)
	perDelivery := float64(after.Mallocs-before.Mallocs) / float64(2*msgs)
	bytesPerDelivery := float64(after.TotalAlloc-before.TotalAlloc) / float64(2*msgs)
	t.Logf("%.2f allocations, %.0f bytes allocated per delivered message", perDelivery, bytesPerDelivery)
	if perDelivery > ceiling {
		t.Errorf("%.2f allocations per delivered message, ceiling %.2f", perDelivery, ceiling)
	}
	if bytesPerDelivery > bytesCeiling {
		t.Errorf("%.0f bytes allocated per delivered message, ceiling %d", bytesPerDelivery, bytesCeiling)
	}
}

package live

// Regime 6 tests: overload and flow control. The credit protocol must stall
// senders instead of shedding data frames, keep the control plane (sync,
// attach, proposals, credits, notifications) exempt from queue eviction,
// hold resident bytes under the memory budget, and degrade a persistently
// slow consumer by evicting it from the view — all without suppressing
// heartbeats on an exhausted link (no false suspicion before the grace).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/obs"
	"vsgm/internal/types"
	"vsgm/internal/wire"
)

// encodeClass builds a pooled frame of the requested wire class.
func encodeClass(t testing.TB, class wire.FrameClass, from types.ProcID) *wire.FrameBuf {
	t.Helper()
	var fr frame
	switch class {
	case wire.ClassData:
		fr = frame{From: from, Msg: &types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 1, Payload: []byte("d")}}}
	case wire.ClassHeartbeat:
		fr = frame{From: from, Msg: &types.WireMsg{Kind: types.KindHeartbeat}}
	default:
		fr = frame{From: from, Msg: &types.WireMsg{Kind: types.KindAck, Cut: types.Cut{from: 1}}}
	}
	fb, err := wire.EncodeFrame(fr)
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// TestMailboxControlExemptFromEviction pins the satellite invariant of the
// shedding policy: a full bounded queue evicts the oldest *data* frame, and
// when only control frames remain it grows past its cap rather than drop
// one. Byte accounting must track every enqueue, eviction, and dequeue.
func TestMailboxControlExemptFromEviction(t *testing.T) {
	var dropped []*wire.FrameBuf
	m := newBoundedMailbox(2, func(fb *wire.FrameBuf) { dropped = append(dropped, fb) })
	m.classOf = (*wire.FrameBuf).Class
	m.sizeOf = func(fb *wire.FrameBuf) int { return len(fb.Bytes()) }

	ctl1 := encodeClass(t, wire.ClassControl, "a")
	data1 := encodeClass(t, wire.ClassData, "a")
	data2 := encodeClass(t, wire.ClassData, "a")
	data3 := encodeClass(t, wire.ClassData, "a")
	ctl2 := encodeClass(t, wire.ClassControl, "a")
	ctl3 := encodeClass(t, wire.ClassControl, "a")

	m.put(ctl1)
	m.put(data1)
	m.put(data2) // full: evicts data1, never ctl1
	m.put(data3) // full: evicts data2
	m.put(ctl2)  // full: evicts data3 (data is sheddable, control is not)
	m.put(ctl3)  // only control queued: grows past cap instead of dropping

	if got := m.evictions(); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	for i, fb := range dropped {
		if fb.Class() != wire.ClassData {
			t.Fatalf("dropped[%d] is class %d — a control frame was shed", i, fb.Class())
		}
	}
	wantBytes := int64(len(ctl1.Bytes()) + len(ctl2.Bytes()) + len(ctl3.Bytes()))
	if got := m.queuedBytes(); got != wantBytes {
		t.Fatalf("queuedBytes = %d, want %d", got, wantBytes)
	}
	for i, want := range []*wire.FrameBuf{ctl1, ctl2, ctl3} {
		got, ok := takeOne(m)
		if !ok || got != want {
			t.Fatalf("take %d: got %p ok=%v, want %p (FIFO of surviving control frames)", i, got, ok, want)
		}
	}
	if got := m.queuedBytes(); got != 0 {
		t.Fatalf("queuedBytes after drain = %d, want 0", got)
	}
}

// TestMailboxHeartbeatCoalescing: a heartbeat carries no information beyond
// liveness-now, so a newly queued one supersedes a queued predecessor. The
// control-exemption rule would otherwise let heartbeats accumulate without
// bound behind a dead link.
func TestMailboxHeartbeatCoalescing(t *testing.T) {
	var dropped []*wire.FrameBuf
	m := newBoundedMailbox(16, func(fb *wire.FrameBuf) { dropped = append(dropped, fb) })
	m.classOf = (*wire.FrameBuf).Class
	m.sizeOf = func(fb *wire.FrameBuf) int { return len(fb.Bytes()) }

	data := encodeClass(t, wire.ClassData, "a")
	hb1 := encodeClass(t, wire.ClassHeartbeat, "a")
	ctl := encodeClass(t, wire.ClassControl, "a")
	hb2 := encodeClass(t, wire.ClassHeartbeat, "a")
	hb3 := encodeClass(t, wire.ClassHeartbeat, "a")

	m.put(data)
	m.put(hb1)
	m.put(ctl)
	m.put(hb2) // supersedes hb1
	m.put(hb3) // supersedes hb2

	if got := m.coalescedCount(); got != 2 {
		t.Fatalf("coalesced = %d, want 2", got)
	}
	if got := m.evictions(); got != 0 {
		t.Fatalf("evictions = %d, want 0 (coalescing is not dropping)", got)
	}
	if len(dropped) != 2 || dropped[0] != hb1 || dropped[1] != hb2 {
		t.Fatalf("onDrop saw %v, want the two superseded heartbeats", dropped)
	}
	for i, want := range []*wire.FrameBuf{data, ctl, hb3} {
		got, ok := takeOne(m)
		if !ok || got != want {
			t.Fatalf("take %d: wrong frame order after coalescing", i)
		}
	}
}

// TestChaosPressureNeverDropsSync is the satellite regression: chaos
// latency throttles the link writer so the bounded outbound queue
// overflows, and under that pressure data frames are shed — but every sync
// frame (the view-change critical path) must still arrive. Note the drops
// here are queue evictions under pressure; probabilistic chaos drops happen
// after dequeue and would not pressure the queue at all.
func TestChaosPressureNeverDropsSync(t *testing.T) {
	cfg := testTransport()
	cfg.QueueCap = 8

	var (
		mu       sync.Mutex
		syncSeen = map[types.StartChangeID]bool{}
	)
	recv := func(_ types.ProcID, fr frame) {
		if fr.Msg != nil && fr.Msg.Kind == types.KindSync {
			mu.Lock()
			syncSeen[fr.Msg.CID] = true
			mu.Unlock()
		}
	}
	fa, err := newFabric("a", "127.0.0.1:0", cfg, func(types.ProcID, frame) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := newFabric("b", "127.0.0.1:0", cfg, recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fa.SetPeers(map[types.ProcID]string{"b": fb.Addr()})
	fa.Chaos().SetLatency(3*time.Millisecond, 0)

	v := types.NewView(1, types.NewProcSet("a", "b"), map[types.ProcID]types.StartChangeID{"a": 1, "b": 1})
	const rounds = 40
	for i := 0; i < rounds; i++ {
		for j := 0; j < 10; j++ {
			fa.Send([]types.ProcID{"b"}, types.WireMsg{
				Kind: types.KindApp,
				App:  types.AppMsg{ID: int64(i*10 + j), Payload: []byte("flood")},
			})
		}
		fa.Send([]types.ProcID{"b"}, types.WireMsg{
			Kind: types.KindSync, CID: types.StartChangeID(i), View: v, Cut: types.Cut{"a": 1},
		})
	}

	waitUntil(t, "every sync frame to survive the overloaded queue", 30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(syncSeen) == rounds
	})
	if drops := linkCounts(fa, "b")["queue_drops"]; drops == 0 {
		t.Fatalf("queue never overflowed (drops = 0) — the test applied no pressure")
	}
}

// TestCreditWindowBlocksSenderUntilConsumed drives the credit cycle at
// fabric level: a window of W data frames shuts after W charges, a blocking
// admit parks, and the receiver's consumption advances the cumulative grant
// (one standalone credit frame per half window) until the parked sender
// wakes.
func TestCreditWindowBlocksSenderUntilConsumed(t *testing.T) {
	cfg := testTransport()
	cfg.Window = 4

	var got atomic.Int64
	var fb *fabric
	recv := func(from types.ProcID, fr frame) {
		if fr.Msg != nil && fr.Msg.Kind == types.KindApp {
			got.Add(1)
		}
	}
	fa, err := newFabric("a", "127.0.0.1:0", cfg, func(types.ProcID, frame) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err = newFabric("b", "127.0.0.1:0", cfg, recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fa.SetPeers(map[types.ProcID]string{"b": fb.Addr()})
	fb.SetPeers(map[types.ProcID]string{"a": fa.Addr()})

	for i := 0; i < 4; i++ {
		fa.Send([]types.ProcID{"b"}, types.WireMsg{
			Kind: types.KindApp, App: types.AppMsg{ID: int64(i), Payload: []byte("x")},
		})
	}
	if err := fa.admitData([]types.ProcID{"b"}, false); err != ErrOverloaded {
		t.Fatalf("admit on a spent window = %v, want ErrOverloaded", err)
	}

	adm := make(chan error, 1)
	go func() { adm <- fa.admitData([]types.ProcID{"b"}, true) }()
	select {
	case err := <-adm:
		t.Fatalf("blocking admit returned %v before any consumption", err)
	case <-time.After(100 * time.Millisecond):
	}

	waitUntil(t, "the four data frames to arrive", 10*time.Second, func() bool { return got.Load() >= 4 })
	// Three consumptions push remaining credit below half the window, so
	// the receiver ships grant = consumed + window and the sender reopens.
	for i := 0; i < 3; i++ {
		fb.consumedData("a", 1)
	}
	select {
	case err := <-adm:
		if err != nil {
			t.Fatalf("blocking admit = %v after credit arrived", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sender stayed parked after the receiver granted credit")
	}

	if s := linkCounts(fa, "b"); s["window_exhausted"] < 1 || s["credits_consumed"] != 4 {
		t.Fatalf("sender-side flow stats off: %v", s)
	}
	if s := linkCounts(fb, "a"); s["credit_frames"] < 1 || s["credits_granted"] < 3 {
		t.Fatalf("receiver-side flow stats off: %v", s)
	}
}

// TestZeroCreditLinkStillDeliversHeartbeats is the satellite liveness
// check: a link with no credit at all (Window < 0) admits no data, but
// heartbeats are control-plane and must keep flowing — an exhausted window
// must not starve the failure detector into a false suspicion. And mere
// exhaustion is not slowness: no complaint is due before the grace elapses.
func TestZeroCreditLinkStillDeliversHeartbeats(t *testing.T) {
	cfg := testTransport()
	cfg.Window = -1 // grant-only: every data send needs an explicit credit

	var beats atomic.Int64
	recv := func(types.ProcID, frame) {}
	fa, err := newFabric("a", "127.0.0.1:0", cfg, recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := newFabric("b", "127.0.0.1:0", cfg, func(_ types.ProcID, fr frame) {
		if fr.Msg != nil && fr.Msg.Kind == types.KindHeartbeat {
			beats.Add(1)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fa.SetPeers(map[types.ProcID]string{"b": fb.Addr()})

	if err := fa.admitData([]types.ProcID{"b"}, false); err != ErrOverloaded {
		t.Fatalf("zero-credit admit = %v, want ErrOverloaded", err)
	}
	// Send paced heartbeats (rapid-fire ones legitimately coalesce in the
	// queue) and require several distinct deliveries.
	waitUntil(t, "heartbeats to flow over the zero-credit link", 10*time.Second, func() bool {
		fa.Send([]types.ProcID{"b"}, types.WireMsg{Kind: types.KindHeartbeat})
		return beats.Load() >= 3
	})
	if slow := fa.slowPeers(time.Hour, time.Now()); len(slow) != 0 {
		t.Fatalf("slowPeers before the grace elapsed = %v, want none", slow)
	}
}

// TestMemoryBudgetLatchesAndReleases exercises gate 1 of Node.Send: bytes
// resident in transport queues count against MemHighWater, a non-blocking
// send above it fails fast with ErrOverloaded (latching the node
// overloaded), and draining the queues reopens the budget.
func TestMemoryBudgetLatchesAndReleases(t *testing.T) {
	n, err := NewNode(NodeConfig{
		ID:           "solo",
		Addr:         "127.0.0.1:0",
		AutoBlock:    true,
		Transport:    testTransport(),
		MemHighWater: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Below budget every gate passes: the node starts in its singleton
	// view, so the send is admitted and self-delivered.
	if _, err := n.TrySend([]byte("probe")); err != nil {
		t.Fatalf("TrySend under budget = %v, want nil", err)
	}

	// Park 8 KiB of frames in the queue of an undialable peer.
	payload := make([]byte, 1024)
	for i := 0; i < 8; i++ {
		n.fabric.Send([]types.ProcID{"ghost"}, types.WireMsg{
			Kind: types.KindApp, App: types.AppMsg{ID: int64(i), Payload: payload},
		})
	}
	waitUntil(t, "queued bytes to exceed the high watermark", 5*time.Second, func() bool {
		return n.MemUsage() > 4<<10
	})
	if _, err := n.TrySend([]byte("probe")); err != ErrOverloaded {
		t.Fatalf("TrySend over budget = %v, want ErrOverloaded", err)
	}
	if latched, mem, refused := n.overloaded.Load(), n.MemUsage(), n.sendsOverloaded.Value(); !latched || mem <= 4<<10 || refused < 1 {
		t.Fatalf("overload not reflected: latched=%v mem=%d refused=%d", latched, mem, refused)
	}

	// Bring the ghost up; the writer drains, usage falls to zero (below
	// the low watermark), and the budget reopens.
	sink, err := newFabric("ghost", "127.0.0.1:0", testTransport(), func(types.ProcID, frame) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	n.SetPeers(map[types.ProcID]string{"ghost": sink.Addr()})
	waitUntil(t, "queues to drain below the low watermark", 10*time.Second, func() bool {
		return n.MemUsage() < 2<<10
	})
	if _, err := n.TrySend([]byte("probe")); err != nil {
		t.Fatalf("TrySend after drain = %v, want nil (budget reopened)", err)
	}
	if n.overloaded.Load() {
		t.Fatalf("overload latch stuck after drain: mem=%d", n.MemUsage())
	}
}

// waitGroupFormed blocks until every client has installed the view of all
// clients, and returns that view's identifier.
func (w *liveWorld) waitGroupFormed() types.ViewID {
	w.t.Helper()
	want := w.allClients()
	w.waitFor("all clients to install the full view", func() bool {
		for _, node := range w.clients {
			if !node.CurrentView().Members.Equal(want) {
				return false
			}
		}
		return true
	})
	return w.clients["cli0"].CurrentView().ID
}

// TestLiveRetentionWithinViewIsBounded: live end-points acknowledge and
// collect inside a view, so after 10 000 multicasts in one view every member's
// vsgm_endpoint_buffered_messages is a small multiple of ackInterval ×
// members — not the 10 000 it was when buffers were only reclaimed by a view
// change. With 16 KiB payloads, which a member holds in the pooled buffers they
// arrived in, the same bound holds in bytes at a slab per message, and the
// pool has no more buffers out than the messages account for.
func TestLiveRetentionWithinViewIsBounded(t *testing.T) {
	t.Run("payload=9", func(t *testing.T) { retentionWithinViewIsBounded(t, []byte("retained?"), 10_000) })
	t.Run("payload=16K", func(t *testing.T) { retentionWithinViewIsBounded(t, make([]byte, 16<<10), 3_000) })
}

func retentionWithinViewIsBounded(t *testing.T, payload []byte, sends int) {
	const members = 3
	reg := obs.NewRegistry()
	w := newLiveWorldWith(t, 2, members, func(c *NodeConfig) { c.Obs = reg })
	defer w.close()
	w.boot()
	vid := w.waitGroupFormed()

	sender := w.clients["cli0"]
	for i := 0; i < sends; i++ {
		if _, err := sender.Send(payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	w.waitFor("every member to deliver every message", func() bool {
		snap := w.deliveredSnapshot()
		for cid := range w.clients {
			if snap[cid] < sends {
				return false
			}
		}
		return true
	})

	// gauges reads node -> value for each named gauge, all from one snapshot.
	gauges := func(names ...string) []map[string]float64 {
		snap := reg.Snapshot()
		out := make([]map[string]float64, len(names))
		for i, name := range names {
			out[i] = make(map[string]float64)
			for _, s := range snap.Samples {
				if s.Name == name {
					out[i][s.Labels[0].Value] = s.Value
				}
			}
		}
		return out
	}
	buffered := func() map[string]float64 { return gauges("vsgm_endpoint_buffered_messages")[0] }
	const bound = 2 * ackInterval * members
	w.waitFor("buffered messages to fall under the retention bound", func() bool {
		got := buffered()
		if len(got) != members {
			return false
		}
		for _, v := range got {
			if v > bound {
				return false
			}
		}
		return true
	})
	t.Logf("buffered after %d sends: %v (bound %d)", sends, buffered(), bound)
	if len(payload) >= stagingSlabSize {
		// A slab per held message: the frame's quarter-step class at a
		// receiver, the payload's own at the sender.
		//
		// The pool is read against the messages in one snapshot. Each node's
		// collector reads its end-point gauges before its pool stats, so an
		// ack collecting slots between the two reads can only lower the
		// buffers out, never leave more out than the messages counted.
		const slab = 20 << 10
		g := gauges("vsgm_endpoint_buffered_messages", "vsgm_endpoint_buffered_bytes", "vsgm_pool_outstanding")
		msgs, pinned, outstanding := g[0], g[1], g[2]
		for node, b := range pinned {
			if b > bound*slab {
				t.Errorf("%s pins %v bytes in its message buffers, bound %d", node, b, bound*slab)
			}
		}
		for node, out := range outstanding {
			// Besides the held messages: a staging slab per inbound link.
			if limit := msgs[node] + 2*(members+2); out > limit {
				t.Errorf("%s has %v pooled buffers out with %v messages buffered", node, out, msgs[node])
			}
		}
	}
	for cid, node := range w.clients {
		if got := node.CurrentView().ID; got != vid {
			t.Fatalf("%s moved to view %d during the run; the bound must hold inside view %d", cid, got, vid)
		}
	}
	if err := w.specErr(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

// TestMemoryBudgetReopensWithoutViewChange: a node latched over MemHighWater
// by its end-point's message buffers (not by transport queues) reopens once
// the view has acknowledged the messages, with no reconfiguration. The burst
// is too short for any member to reach ackInterval deliveries; the manager
// tick's FlushAck is what reports the tail. The 16 KiB case runs the same
// budget over payloads that are held in pooled buffers of their own rather than
// copied into one: the budget counts the slab a held message pins, so it still
// bounds what is resident. The 1 KiB case runs a smaller budget over payloads
// packed four to a chunk: each counts its length and the open chunk its
// unfilled rest, so the budget trips within a chunk of the payload total.
func TestMemoryBudgetReopensWithoutViewChange(t *testing.T) {
	t.Run("payload=1K", func(t *testing.T) { memoryBudgetReopensWithoutViewChange(t, 1<<10, 32<<10) })
	t.Run("payload=8K", func(t *testing.T) { memoryBudgetReopensWithoutViewChange(t, 8<<10, 256<<10) })
	t.Run("payload=16K", func(t *testing.T) { memoryBudgetReopensWithoutViewChange(t, 16<<10, 256<<10) })
}

func memoryBudgetReopensWithoutViewChange(t *testing.T, size int, high int64) {
	reg := obs.NewRegistry()
	w := newLiveWorldWith(t, 2, 3, func(c *NodeConfig) {
		if c.ID == "cli0" {
			c.MemHighWater = high
			c.Obs = reg
		}
	})
	defer w.close()
	w.boot()
	vid := w.waitGroupFormed()

	// Each payload is delivered everywhere before the next is sent, so the
	// transport queues are empty and only the message buffers grow: the budget
	// is crossed after 32 sends of 8 KiB, half an ack interval, 16 of 16, or at
	// most 32 of 1 KiB and no fewer than a chunk's worth short of that.
	n := w.clients["cli0"]
	payload := make([]byte, size)
	sent := 0
	for {
		_, err := n.TrySend(payload)
		if err == ErrOverloaded {
			break
		}
		if err != nil {
			t.Fatalf("send %d: %v", sent, err)
		}
		if sent++; int64(sent) > high/int64(size) {
			t.Fatalf("%d sends of %d bytes have not tripped a %d byte budget", sent, size, high)
		}
		w.waitFor("the message to be delivered everywhere", func() bool {
			snap := w.deliveredSnapshot()
			for cid := range w.clients {
				if snap[cid] < sent {
					return false
				}
			}
			return true
		})
	}
	var buffered float64
	for _, s := range reg.Snapshot().Samples {
		if s.Name == "vsgm_endpoint_buffered_bytes" {
			buffered = s.Value
		}
	}
	if latched := n.overloaded.Load(); !latched || int64(buffered) < high {
		t.Fatalf("latched = %v with %v bytes in the message buffers, want the buffers alone over %d", latched, buffered, high)
	}
	if short := high - int64(sent*size); short >= 4<<10 {
		t.Fatalf("the budget tripped after %d sends of %d bytes, %d short of %d: more than a chunk", sent, size, short, high)
	}
	if size >= stagingSlabSize {
		// A receiver holds each message in the slab its frame arrived in —
		// the 20 KiB class for a 16 KiB payload behind its header — and is
		// charged for all of it.
		peer := w.clients["cli1"]
		peer.mu.Lock()
		msgs, pinned := peer.ep.BufferedMessages(), peer.ep.BufferedBytes()
		peer.mu.Unlock()
		if msgs == 0 || pinned != int64(msgs)*(20<<10) {
			t.Fatalf("a receiver holding %d messages of %d bytes accounts for %d bytes, want %d a message", msgs, size, pinned, 20<<10)
		}
	}

	w.waitFor("the budget to reopen inside the view", func() bool {
		_, err := n.TrySend([]byte("probe"))
		return err == nil
	})
	if latched, mem := n.overloaded.Load(), n.MemUsage(); latched || mem > high/2 {
		t.Fatalf("reopened with overloaded=%v mem=%d, want at or under the low watermark %d", latched, mem, high/2)
	}
	for cid, node := range w.clients {
		if got := node.CurrentView().ID; got != vid {
			t.Fatalf("%s moved to view %d; the budget must reopen inside view %d", cid, got, vid)
		}
	}
	if err := w.specErr(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

// TestLiveSlowConsumerOverloadEviction is the Regime 6 deployment test: two
// servers, four clients, one of which consumes events two times slower than
// the slow-consumer grace. Three fast clients flood the group through a
// four-frame credit window, so their Sends block instead of dropping data;
// the laggard's window stays exhausted past the grace, a complaint reaches
// its home server, and the laggard is evicted and banned. The survivors
// reconfigure, every blocked send completes under the new view, no data
// frame is ever shed, resident bytes stay under the budget, and the full
// spec suite (WV_RFIFO, VS_RFIFO, TRANS_SET, SELF) holds for the survivors.
func TestLiveSlowConsumerOverloadEviction(t *testing.T) {
	tr := testTransport()
	tr.Window = 4
	const (
		slowIdx   = 3
		grace     = 150 * time.Millisecond
		delay     = 300 * time.Millisecond // per event: twice the grace, so exhaustion outlasts it
		perSender = 20
		budget    = int64(1 << 20)
	)
	done := make(chan struct{}) // collapses the laggard's throttle at teardown

	w := newAttachWorld(t, 2, 4, attachOptions{
		transport:  &tr,
		tuneServer: func(_ types.ProcID, cfg *ServerConfig) { cfg.SlowBan = time.Minute },
		tuneNode: func(i int, cfg *NodeConfig) {
			cfg.SlowConsumerGrace = grace
			cfg.MemHighWater = budget
			if i == slowIdx {
				// Spec recording rides the synchronous Observe hook; the
				// throttle lives on the pump-based OnEvent, which is what
				// the consumed markers queue behind — so this models an
				// application that is slow to PROCESS deliveries, holding
				// its credit window shut, without stalling the automaton.
				cfg.OnEvent = func(core.Event) {
					select {
					case <-time.After(delay):
					case <-done:
					}
				}
			}
		},
	})
	defer w.close()
	defer close(done)
	w.boot()
	w.startHeartbeats(20*time.Millisecond, 150*time.Millisecond)
	w.waitFullView("all clients attached and in the full view", 0)

	slow := types.ProcID(fmt.Sprintf("cli%d", slowIdx))
	var senders []types.ProcID
	bases := map[types.ProcID]int64{}
	for i := 0; i < 4; i++ {
		cid := types.ProcID(fmt.Sprintf("cli%d", i))
		if cid != slow {
			senders = append(senders, cid)
			bases[cid] = int64(i+1) * 1_000_000 // matches newAttachWorld's MsgIDBase
		}
	}

	var wg sync.WaitGroup
	for _, cid := range senders {
		node, base := w.clients[cid], bases[cid]
		wg.Add(1)
		go func(cid types.ProcID, node *Node) {
			defer wg.Done()
			for k := 1; k <= perSender; k++ {
				want := base + int64(k)
				m, err := node.Send([]byte(fmt.Sprintf("flood-%s-%d", cid, k)))
				if err != nil {
					t.Errorf("%s send %d: %v", cid, k, err)
					return
				}
				if m.ID != want {
					t.Errorf("%s send %d: ID %d, want %d", cid, k, m.ID, want)
					return
				}
			}
		}(cid, node)
	}

	// Degradation: the laggard is evicted within the grace machinery and
	// the survivors install a view without it.
	rest := types.NewProcSet(senders...)
	w.waitFor("laggard evicted and survivors reconfigured", func() bool {
		var evictions int64
		for _, sn := range w.servers {
			evictions += sn.overloadEvictions.Value()
		}
		if evictions == 0 {
			return false
		}
		for _, cid := range senders {
			if !w.clients[cid].CurrentView().Members.Equal(rest) {
				return false
			}
		}
		return true
	})
	wg.Wait() // every blocked send completed once the laggard left the view

	total := perSender * len(senders)
	w.waitFor("survivor traffic fully delivered", func() bool {
		snap := w.deliveredSnapshot()
		for _, cid := range senders {
			if snap[cid] < total {
				return false
			}
		}
		return true
	})

	var blocked, reports, evictions, drops int64
	for _, cid := range senders {
		node := w.clients[cid]
		blocked += node.sendsBlocked.Value()
		reports += node.slowReports.Value()
		if mem := node.MemUsage(); mem > budget {
			t.Errorf("%s resident bytes %d exceed the %d budget", cid, mem, budget)
		}
		links := linkCounts(node.fabric, "")
		drops += links["queue_drops"] + links["chaos_drops"]
	}
	for _, sn := range w.servers {
		evictions += sn.overloadEvictions.Value()
		links := linkCounts(sn.fabric, "")
		drops += links["queue_drops"] + links["chaos_drops"]
	}
	if blocked == 0 {
		t.Error("no send ever blocked — the credit window applied no backpressure")
	}
	if reports == 0 {
		t.Error("no slow-consumer complaint was filed")
	}
	if evictions < 1 {
		t.Errorf("overload evictions = %d, want >= 1", evictions)
	}
	if drops != 0 {
		t.Errorf("flow control shed %d frames; blocking senders must make drops unnecessary", drops)
	}
	if err := w.specErr(); err != nil {
		t.Fatalf("spec violation under overload degradation: %v", err)
	}
}

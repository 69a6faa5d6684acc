package live

// Regime 6 tests: overload and flow control. The credit window is the one
// bound on a link's backlog: it must stall senders instead of shedding data
// frames, never gate the control plane (sync, attach, proposals, credits,
// notifications, heartbeats), and degrade a persistently slow consumer by
// evicting it from the view — without starving heartbeats on an exhausted
// link (no false suspicion before the grace). Inside a view, members collect
// what the whole view has acknowledged, down to a quiet group's tail.

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
	"vsgm/internal/wire/pool"
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

// TestMailboxHeartbeatCoalescing: a heartbeat carries no information beyond
// liveness-now, so a newly queued one supersedes a queued predecessor. The
// credit window does not gate control frames, so heartbeats would otherwise
// accumulate without bound behind a dead link.
func TestMailboxHeartbeatCoalescing(t *testing.T) {
	var dropped []*wire.FrameBuf
	m := newMailbox[*wire.FrameBuf]()
	m.onDrop = func(fb *wire.FrameBuf) { dropped = append(dropped, fb) }
	m.classOf = (*wire.FrameBuf).Class

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

// TestCreditWindowBlocksSenderUntilConsumed drives the credit cycle at
// fabric level: a window of W data frames shuts after W charges, a blocking
// admit parks, and the receiver's consumption advances the cumulative grant
// (one standalone credit frame per half window) until the parked sender
// wakes.
func TestCreditWindowBlocksSenderUntilConsumed(t *testing.T) {
	cfg := loopbackTransport()
	cfg.Window = 4

	var got atomic.Int64
	var fb *fabric
	recv := func(from types.ProcID, fr frame, body *pool.Buf) {
		defer releaseBody(body)
		if fr.Msg != nil && fr.Msg.Kind == types.KindApp {
			got.Add(1)
		}
	}
	fa, err := newFabric("a", "127.0.0.1:0", cfg, dropFrame, nil)
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
	cfg := loopbackTransport()
	cfg.Window = -1 // grant-only: every data send needs an explicit credit

	var beats atomic.Int64
	recv := dropFrame
	fa, err := newFabric("a", "127.0.0.1:0", cfg, recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := newFabric("b", "127.0.0.1:0", cfg, func(_ types.ProcID, fr frame, body *pool.Buf) {
		defer releaseBody(body)
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

// TestLiveRetentionWithinViewIsBounded: live end-points acknowledge and
// collect inside a view, so after thousands of multicasts in one view every
// member's vsgm_endpoint_buffered_messages is a small multiple of the ack
// interval × members — not everything sent, as when buffers were only
// reclaimed by a view change. The interval is whichever trigger fires first
// for the payload: ackInterval deliveries for 9 B, 1 MiB / 16 KiB = 64 for
// 16 KiB, and vsgm_endpoint_acks_sent_total shows that cadence. With 16 KiB
// payloads, which a member holds in the pooled buffers they arrived in, the
// same bound holds in bytes at a slab per message, and the pool has no more
// buffers out than the messages account for.
func TestLiveRetentionWithinViewIsBounded(t *testing.T) {
	t.Run("payload=9", func(t *testing.T) { retentionWithinViewIsBounded(t, []byte("retained?"), 10_000) })
	t.Run("payload=16K", func(t *testing.T) { retentionWithinViewIsBounded(t, make([]byte, 16<<10), 3_000) })
}

// ackBytes mirrors the end-point's byte trigger (core's unexported constant
// of the same name): an ack once the deliveries since the last one carry this
// much payload, however few they are.
const ackBytes = 1 << 20

func retentionWithinViewIsBounded(t *testing.T, payload []byte, sends int) {
	const members = 3
	interval := ackInterval
	if n := ackBytes / len(payload); n < interval {
		interval = n
	}
	// A bound as large as the traffic would pass with no collection at all.
	bound := 2 * interval * members
	if bound >= sends {
		t.Fatalf("retention bound %d messages is not below the %d sent: the test cannot fail", bound, sends)
	}

	reg := obs.NewRegistry()
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: members, Node: func(_ int, c *NodeConfig) { c.Obs = reg }})
	defer w.close()
	w.SetReachable()
	vid := w.waitGroupFormed()

	sender := w.Client("cli0")
	start := time.Now()
	for i := 0; i < sends; i++ {
		if _, err := sender.Send(payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	w.waitFor("every member to deliver every message", func() bool {
		snap := w.Delivered()
		for cid := range w.Clients() {
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

	// Every ack covers at most interval deliveries, so a node sent at least
	// delivered/interval of them; the manager tick's flushes, at most one per
	// half attach interval, are all it may send beyond that.
	counts := gauges("vsgm_endpoint_acks_sent_total", "vsgm_endpoint_msgs_delivered_total")
	flushes := int(time.Since(start)/(sender.attachInterval/2)) + 1
	for node, acks := range counts[0] {
		delivered := int(counts[1][node])
		if lo, hi := delivered/interval, delivered/interval+flushes; int(acks) < lo || int(acks) > hi {
			t.Errorf("%s sent %v acks for %d deliveries, want %d to %d (one per %d, plus up to %d tick flushes)", node, acks, delivered, lo, hi, interval, flushes)
		}
	}
	t.Logf("acks sent for %d deliveries: %v", sends, counts[0])

	buffered := func() map[string]float64 { return gauges("vsgm_endpoint_buffered_messages")[0] }
	w.waitFor("buffered messages to fall under the retention bound", func() bool {
		got := buffered()
		if len(got) != members {
			return false
		}
		for _, v := range got {
			if v > float64(bound) {
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
			if b > float64(bound*slab) {
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
	for cid, node := range w.Clients() {
		if got := node.CurrentView().ID; got != vid {
			t.Fatalf("%s moved to view %d during the run; the bound must hold inside view %d", cid, got, vid)
		}
	}
	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

// TestLiveQuietTailDrainsInsideView: a burst too short for any member to reach
// either ack trigger (ackInterval deliveries or 1 MiB of delivered payload)
// still drains every member's message buffers to empty inside the view: the
// manager tick's FlushAck reports the tail nothing else would acknowledge.
// The 1 KiB case runs payloads packed four to a chunk (each counts its length,
// the open chunk its unfilled rest, released with the last slot); the 8 and
// 16 KiB cases payloads held in pooled buffers of their own, and a receiver
// holding a 16 KiB message is charged the whole slab it arrived in.
func TestLiveQuietTailDrainsInsideView(t *testing.T) {
	t.Run("payload=1K", func(t *testing.T) { quietTailDrainsInsideView(t, 1<<10, 32) })
	t.Run("payload=8K", func(t *testing.T) { quietTailDrainsInsideView(t, 8<<10, 32) })
	t.Run("payload=16K", func(t *testing.T) { quietTailDrainsInsideView(t, 16<<10, 16) })
}

func quietTailDrainsInsideView(t *testing.T, size, sends int) {
	if sends >= ackInterval || sends*size >= ackBytes {
		t.Fatalf("%d sends of %d bytes reach an ack trigger: the test would not need the tick", sends, size)
	}
	reg := obs.NewRegistry()
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 3, Node: func(_ int, c *NodeConfig) { c.Obs = reg }})
	defer w.close()
	w.SetReachable()
	vid := w.waitGroupFormed()

	// Each payload is delivered everywhere before the next is sent, so the
	// buffers, not the transport queues, hold the burst.
	n, peer := w.Client("cli0"), w.Client("cli1")
	payload := make([]byte, size)
	held := 0 // samples of the receiver with messages in its buffers
	for sent := 1; sent <= sends; sent++ {
		if _, err := n.Send(payload); err != nil {
			t.Fatalf("send %d: %v", sent, err)
		}
		w.waitFor("the message to be delivered everywhere", func() bool {
			snap := w.Delivered()
			for cid := range w.Clients() {
				if snap[cid] < sent {
					return false
				}
			}
			return true
		})
		if size < stagingSlabSize {
			continue
		}
		// A receiver holds each message in the slab its frame arrived in —
		// the 20 KiB class for a 16 KiB payload behind its header — and is
		// charged for all of it. The tick may already have collected some.
		peer.mu.Lock()
		msgs, pinned := peer.ep.BufferedMessages(), peer.ep.BufferedBytes()
		peer.mu.Unlock()
		if pinned != int64(msgs)*(20<<10) {
			t.Fatalf("a receiver holding %d messages of %d bytes accounts for %d bytes, want %d a message", msgs, size, pinned, 20<<10)
		}
		if msgs > 0 {
			held++
		}
	}
	if size >= stagingSlabSize && held == 0 {
		t.Fatalf("the receiver never held a message across %d sends: the charge was never checked", sends)
	}

	buffered := func() map[string]float64 {
		out := make(map[string]float64)
		for _, s := range reg.Snapshot().Samples {
			if s.Name == "vsgm_endpoint_buffered_bytes" {
				out[s.Labels[0].Value] = s.Value
			}
		}
		return out
	}
	w.waitFor("every member's message buffers to drain inside the view", func() bool {
		got := buffered()
		if len(got) != len(w.Clients()) {
			return false
		}
		for _, b := range got {
			if b != 0 {
				return false
			}
		}
		return true
	})
	for cid, node := range w.Clients() {
		if got := node.CurrentView().ID; got != vid {
			t.Fatalf("%s moved to view %d; the tail must drain inside view %d", cid, got, vid)
		}
	}
	if err := w.SpecErr(); err != nil {
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
// frame is ever shed, and the full spec suite (WV_RFIFO, VS_RFIFO,
// TRANS_SET, SELF) holds for the survivors.
func TestLiveSlowConsumerOverloadEviction(t *testing.T) {
	const (
		window    = 4
		slowIdx   = 3
		grace     = 150 * time.Millisecond
		delay     = 300 * time.Millisecond // per event: twice the grace, so exhaustion outlasts it
		perSender = 20
	)
	done := make(chan struct{}) // collapses the laggard's throttle at teardown

	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 4, Attach: true,
		Server: func(_ types.ProcID, cfg *ServerConfig) error { cfg.Transport.Window = window; return nil },
		Node: func(i int, cfg *NodeConfig) {
			cfg.Transport.Window = window
			cfg.SlowConsumerGrace = grace
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
	w.SetReachable()
	w.StartHeartbeats(20*time.Millisecond, 150*time.Millisecond)
	w.waitFullView("all clients attached and in the full view", 0)

	slow := types.ProcID(fmt.Sprintf("cli%d", slowIdx))
	var senders []types.ProcID
	bases := map[types.ProcID]int64{}
	for i := 0; i < 4; i++ {
		cid := types.ProcID(fmt.Sprintf("cli%d", i))
		if cid != slow {
			senders = append(senders, cid)
			bases[cid] = int64(i+1) * 1_000_000 // the Deployment's MsgIDBase for client i
		}
	}

	var wg sync.WaitGroup
	for _, cid := range senders {
		node, base := w.Client(cid), bases[cid]
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
		for _, sn := range w.Servers() {
			evictions += sn.overloadEvictions.Value()
		}
		if evictions == 0 {
			return false
		}
		for _, cid := range senders {
			if !w.Client(cid).CurrentView().Members.Equal(rest) {
				return false
			}
		}
		return true
	})
	wg.Wait() // every blocked send completed once the laggard left the view

	total := perSender * len(senders)
	w.waitFor("survivor traffic fully delivered", func() bool {
		snap := w.Delivered()
		for _, cid := range senders {
			if snap[cid] < total {
				return false
			}
		}
		return true
	})

	var blocked, reports, evictions, drops int64
	for _, cid := range senders {
		node := w.Client(cid)
		blocked += node.sendsBlocked.Value()
		reports += node.slowReports.Value()
		drops += linkCounts(node.fabric, "")["chaos_drops"]
	}
	for _, sn := range w.Servers() {
		evictions += sn.overloadEvictions.Value()
		drops += linkCounts(sn.fabric, "")["chaos_drops"]
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
	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violation under overload degradation: %v", err)
	}
}

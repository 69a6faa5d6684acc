package core

import (
	"fmt"
	"testing"

	"vsgm/internal/types"
	"vsgm/internal/wire/pool"
)

func TestMsgBufCollect(t *testing.T) {
	var b msgBuf
	for i := 1; i <= 5; i++ {
		b.set(i, types.AppMsg{ID: int64(i)}, nil)
	}
	b.collect(3)
	if b.live() != 2 {
		t.Fatalf("live = %d, want 2", b.live())
	}
	if _, ok := b.get(3); ok {
		t.Fatal("collected index still readable")
	}
	if m, ok := b.get(4); !ok || m.ID != 4 {
		t.Fatal("surviving index lost or shifted")
	}
	// Logical positions are preserved.
	if b.longestPrefix() != 5 || b.lastIndex() != 5 {
		t.Fatalf("prefix/last = %d/%d, want 5/5", b.longestPrefix(), b.lastIndex())
	}
	// New arrivals keep their logical index.
	b.set(6, types.AppMsg{ID: 6}, nil)
	if m, ok := b.get(6); !ok || m.ID != 6 {
		t.Fatal("post-collection set/get broken")
	}
	// Collecting backwards is a no-op; re-setting a collected index too.
	b.collect(1)
	b.set(2, types.AppMsg{ID: 99}, nil)
	if _, ok := b.get(2); ok {
		t.Fatal("collected slot resurrected")
	}
}

func TestStabilityAcksCollectBuffers(t *testing.T) {
	// p in a shared view with q, AckInterval 1: once both sides' acks cover
	// a message, its slot is freed.
	ep, tr := newTestEndpoint(t, "p", func(c *Config) { c.AckInterval = 1 })
	v := joinShared(t, ep)

	// q streams 3 messages; p delivers them and acks each.
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v})
	for i := int64(1); i <= 3; i++ {
		ep.HandleMessage("q", types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: i}})
	}
	if got := len(tr.byKind(types.KindAck)); got != 3 {
		t.Fatalf("sent %d acks, want 3", got)
	}
	if got := ep.BufferedMessages(); got != 3 {
		t.Fatalf("buffered before q's ack = %d, want 3 (q has not acked)", got)
	}

	// q acknowledges having delivered two of its own messages.
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindAck, Cut: types.Cut{"p": 0, "q": 2}})
	if got := ep.BufferedMessages(); got != 1 {
		t.Fatalf("buffered after q's ack = %d, want 1 (indices 1-2 stable)", got)
	}

	// Stability never breaks the cut computation.
	ep.HandleStartChange(types.StartChange{ID: 2, Set: types.NewProcSet("p", "q")})
	syncs := tr.byKind(types.KindSync)
	last := syncs[len(syncs)-1]
	if last.msg.Cut["q"] != 3 {
		t.Fatalf("sync cut(q) = %d, want 3 (collected prefix still counts)", last.msg.Cut["q"])
	}
}

func TestAcksDisabledByDefault(t *testing.T) {
	ep, tr := newTestEndpoint(t, "p", nil)
	v := joinShared(t, ep)
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v})
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 1}})
	if got := len(tr.byKind(types.KindAck)); got != 0 {
		t.Fatalf("acks sent with AckInterval 0: %d", got)
	}
	// Foreign acks are ignored when the feature is off.
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindAck, Cut: types.Cut{"q": 1}})
	if got := ep.BufferedMessages(); got != 1 {
		t.Fatalf("buffered = %d, want 1", got)
	}
}

// TestStaleViewAckIsIgnored is the view-scoping of stability acks: q's ack
// sent in the old view (after its sync, before it installed the new view)
// reaches p after p has installed the new view. Its indices count old-view
// deliveries; taken as new-view counts they would make p collect messages q
// has not delivered yet and may still need forwarded.
func TestStaleViewAckIsIgnored(t *testing.T) {
	ep, tr := newTestEndpoint(t, "p", func(c *Config) { c.AckInterval = 1 })
	v1 := joinShared(t, ep)
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v1})

	// Both move to v2; p installs it first.
	ep.HandleStartChange(types.StartChange{ID: 2, Set: types.NewProcSet("p", "q")})
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindSync, CID: 2, View: v1, Cut: types.Cut{"p": 0, "q": 0}})
	v2 := twoMemberView(2, "p", "q", 2, 2)
	installAt := len(tr.sent)
	ep.HandleView(v2)
	if !ep.CurrentView().Equal(v2) {
		t.Fatalf("setup: v2 not installed, current = %s", ep.CurrentView())
	}
	for i := 0; i < 3; i++ {
		if _, err := ep.Send([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	// On q's channel p's acks for v2 follow p's view_msg for v2.
	for _, s := range tr.sent[installAt:] {
		if s.msg.Kind == types.KindView {
			break
		}
		if s.msg.Kind == types.KindAck {
			t.Fatal("p acknowledged in v2 before sending its view_msg for v2")
		}
	}
	if got := len(tr.byKind(types.KindAck)); got != 3 {
		t.Fatalf("sent %d acks, want 3", got)
	}

	// q's v1 ack ("I delivered three of p's messages") arrives late.
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindAck, Cut: types.Cut{"p": 3, "q": 0}})
	if got := ep.BufferedMessages(); got != 3 {
		t.Fatalf("buffered after an old-view ack = %d, want 3 (q delivered nothing in v2)", got)
	}

	// Once q's view_msg for v2 precedes them, its acks count.
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v2})
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindAck, Cut: types.Cut{"p": 2, "q": 0}})
	if got := ep.BufferedMessages(); got != 1 {
		t.Fatalf("buffered after q's v2 ack = %d, want 1", got)
	}
}

// TestFlushAckReportsTheQuietTail: deliveries short of AckInterval are never
// acknowledged by tryAck; FlushAck sends what is outstanding, once.
func TestFlushAckReportsTheQuietTail(t *testing.T) {
	ep, tr := newTestEndpoint(t, "p", func(c *Config) { c.AckInterval = 10 })
	v := joinShared(t, ep)
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v})
	for i := int64(1); i <= 3; i++ {
		ep.HandleMessage("q", types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: i}})
	}
	if got := len(tr.byKind(types.KindAck)); got != 0 {
		t.Fatalf("acks after 3 of 10 deliveries = %d, want 0", got)
	}
	ep.FlushAck()
	ep.FlushAck() // nothing new: no second ack
	acks := tr.byKind(types.KindAck)
	if len(acks) != 1 || acks[0].msg.Cut["q"] != 3 {
		t.Fatalf("flushed acks = %v, want one with cut(q) = 3", acks)
	}
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindAck, Cut: types.Cut{"p": 0, "q": 3}})
	if got := ep.BufferedMessages(); got != 0 {
		t.Fatalf("buffered after both sides acked = %d, want 0", got)
	}
}

// TestAckFiresOnCountOrBytes: an end-point acknowledges after AckInterval
// deliveries or after ackBytes of delivered payload, whichever comes first,
// and both counters restart at every acknowledgment and view installation.
func TestAckFiresOnCountOrBytes(t *testing.T) {
	const interval = 1000
	ep, tr := newTestEndpoint(t, "p", func(c *Config) { c.AckInterval = interval })
	v1 := joinShared(t, ep)
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v1})

	// acksAt has q send n payloads of size bytes and returns the deliveries,
	// counted from 1 within the call, right after which p acknowledged.
	sent := int64(0)
	acksAt := func(n, size int) []int {
		t.Helper()
		payload := make([]byte, size)
		var at []int
		for i := 1; i <= n; i++ {
			before := ep.AcksSent()
			sent++
			ep.HandleMessage("q", types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: sent, Payload: payload}})
			if ep.AcksSent() != before {
				at = append(at, i)
			}
		}
		ep.TakeEvents()
		return at
	}
	expect := func(what string, got []int, want ...int) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: acknowledged after deliveries %v, want %v", what, got, want)
		}
	}
	// short leaves both counters just below their triggers: 963 deliveries
	// carrying 1 040 292 bytes, 8 284 short of ackBytes.
	short := func() {
		t.Helper()
		expect("63 of 16 KiB", acksAt(63, 16<<10))
		expect("then 900 of 9 B", acksAt(900, 9))
	}

	expect("16 KiB payloads", acksAt(128, 16<<10), ackBytes/(16<<10), 2*ackBytes/(16<<10))
	expect("9 B payloads", acksAt(interval, 9), interval)
	expect("2 MiB payloads", acksAt(2, 2<<20), 1, 2)

	short()
	before := ep.AcksSent()
	ep.FlushAck()
	if got := ep.AcksSent() - before; got != 1 {
		t.Fatalf("FlushAck sent %d acks, want 1", got)
	}
	expect("16 KiB after FlushAck", acksAt(64, 16<<10), 64)
	expect("9 B after that", acksAt(interval, 9), interval)

	short()
	ep.HandleStartChange(types.StartChange{ID: 2, Set: types.NewProcSet("p", "q")})
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindSync, CID: 2, View: v1, Cut: types.Cut{"p": 0, "q": int(sent)}})
	v2 := twoMemberView(2, "p", "q", 2, 2)
	ep.HandleView(v2)
	if !ep.CurrentView().Equal(v2) {
		t.Fatalf("setup: v2 not installed, current = %s", ep.CurrentView())
	}
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v2})
	sent = 0
	expect("16 KiB after a view installation", acksAt(64, 16<<10), 64)
	expect("9 B after that", acksAt(interval, 9), interval)
	if got := len(tr.byKind(types.KindAck)); int64(got) != ep.AcksSent() {
		t.Fatalf("AcksSent = %d, transport saw %d", ep.AcksSent(), got)
	}
}

// discard is a transport that costs nothing, so AllocsPerRun sees the
// automaton alone.
type discard struct{}

func (discard) Send([]types.ProcID, types.WireMsg) {}
func (discard) SetReliable(types.ProcSet)          {}

// stableEndpoint returns p00 in an installed view of n members, every peer's
// view_msg received: the steady state of the data path.
func stableEndpoint(t testing.TB, n int, mutate func(*Config)) (*Endpoint, []types.ProcID) {
	t.Helper()
	ids := make([]types.ProcID, n)
	sid := make(map[types.ProcID]types.StartChangeID, n)
	for i := range ids {
		ids[i] = types.ProcID(fmt.Sprintf("p%02d", i))
		sid[ids[i]] = 1
	}
	cfg := Config{ID: ids[0], Transport: discard{}, AutoBlock: true}
	if mutate != nil {
		mutate(&cfg)
	}
	ep, err := NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	members := types.NewProcSet(ids...)
	v := types.NewView(1, members, sid)
	ep.HandleStartChange(types.StartChange{ID: 1, Set: members})
	ep.HandleView(v)
	for _, q := range ids[1:] {
		ep.HandleMessage(q, types.WireMsg{Kind: types.KindView, View: v})
	}
	if !ep.CurrentView().Equal(v) {
		t.Fatalf("setup: view of %d not installed", n)
	}
	ep.TakeEvents()
	return ep, ids
}

// TestDataPathAllocCeilings pins the steady-state cost of one data-path input
// in a stable 4-member view, so that a per-message clone of the view (or of
// anything else sized by the membership) fails here and not in a later
// benchmark. Receive, without a pool: the stored payload and the boxed
// DeliverEvent — the event queue hands out slots of a chunk, not a slice
// regrown per delivery. With a pool the payload is packed into a pooled chunk
// and the boxed event is all that is left. Send adds nothing to those over a
// transport that allocates nothing. Acknowledgments every 64 deliveries must
// not lift the average by one.
func TestDataPathAllocCeilings(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		for _, ack := range []int{0, 64} {
			ceiling := 2.0
			cfg := func(c *Config) { c.AckInterval = ack }
			if pooled {
				ceiling = 1
				p := pool.New()
				cfg = func(c *Config) { c.AckInterval, c.Pool = ack, p }
			}
			ep, ids := stableEndpoint(t, 4, cfg)
			in := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{Payload: make([]byte, 256)}}
			take := func(what string) {
				evs := ep.TakeEvents()
				if len(evs) != 1 {
					t.Fatalf("%s did not deliver", what)
				}
				releaseHolds(evs)
			}
			recv := testing.AllocsPerRun(2000, func() {
				in.App.ID++
				ep.HandleMessage(ids[1], in)
				take("receive")
			})
			if recv > ceiling {
				t.Errorf("pooled %v, AckInterval %d: receive path allocates %.0f per message, ceiling %.0f", pooled, ack, recv, ceiling)
			}

			ep, _ = stableEndpoint(t, 4, cfg)
			payload := make([]byte, 256)
			send := testing.AllocsPerRun(2000, func() {
				if _, err := ep.Send(payload); err != nil {
					t.Fatal(err)
				}
				take("send")
			})
			if send > ceiling {
				t.Errorf("pooled %v, AckInterval %d: send path allocates %.0f per message, ceiling %.0f", pooled, ack, send, ceiling)
			}
		}
	}
}

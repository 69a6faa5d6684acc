package core

import (
	"bytes"
	"testing"

	"vsgm/internal/types"
	"vsgm/internal/wire/pool"
)

// bulk is a payload size that a live receiver gets in a buffer of its own.
const bulk = 16 << 10

// heldPayload checks a buffer out of p and fills it with a pattern.
func heldPayload(p *pool.Pool, seed byte) *pool.Buf {
	b := p.Get(bulk)
	for i := range b.B() {
		b.B()[i] = seed + byte(i)
	}
	return b
}

// releaseHolds plays the runtime's part for the events it takes: done with
// them at once.
func releaseHolds(evs []Event) (deliveries int) {
	for _, ev := range evs {
		if d, ok := ev.(DeliverEvent); ok {
			deliveries++
			if d.Hold != nil {
				d.Hold.Release()
			}
		}
	}
	return deliveries
}

// TestHeldPayloadIsStoredByAliasAndGivenBack follows one reference count
// through every way a slot can die. A message handed in with its holder is
// kept where it lies (the stored payload is the caller's memory), the holder's
// count rises by one for the slot and by one more for each delivery event
// until the event's taker lets go, and it is back at the caller's single
// reference after stability collection, after a view installation, after
// Recover and after Close. A store that keeps nothing takes nothing.
func TestHeldPayloadIsStoredByAliasAndGivenBack(t *testing.T) {
	p := pool.New()
	ep, _ := newTestEndpoint(t, "p", func(c *Config) { c.AckInterval = 1 })
	v1 := joinShared(t, ep)
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v1})

	refs := func(b *pool.Buf, want int32, when string) {
		t.Helper()
		if got := b.Refs(); got != want {
			t.Fatalf("%s: holder has %d references, want %d", when, got, want)
		}
	}
	app := func(b *pool.Buf, id int64) types.WireMsg {
		return types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: id, Payload: b.B()}}
	}

	// Stability collection.
	a := heldPayload(p, 1)
	ep.HandleMessageHeld("q", app(a, 1), a)
	stored, ok := ep.curBuf("q").get(1)
	if !ok || &stored.Payload[0] != &a.B()[0] {
		t.Fatal("a held message was not stored by alias")
	}
	refs(a, 3, "stored and delivered") // ours, the slot's, the event's
	if got := ep.BufferedBytes(); got != int64(a.Cap()) {
		t.Fatalf("BufferedBytes = %d with one held slot, want the slab's capacity %d", got, a.Cap())
	}
	if n := releaseHolds(ep.TakeEvents()); n != 1 {
		t.Fatalf("%d deliveries, want 1", n)
	}
	refs(a, 2, "event handled")

	// A duplicate (a forwarded copy of the same index, Invariant 6.6) keeps
	// the original and takes no reference to its own buffer.
	dup := heldPayload(p, 1)
	ep.HandleMessageHeld("q", types.WireMsg{
		Kind: types.KindFwd, App: types.AppMsg{ID: 1, Payload: dup.B()}, Origin: "q", View: v1, Index: 1,
	}, dup)
	refs(dup, 1, "duplicate store")
	if again, _ := ep.curBuf("q").get(1); &again.Payload[0] != &a.B()[0] {
		t.Fatal("a duplicate store replaced the original")
	}
	dup.Release()

	ep.HandleMessage("q", types.WireMsg{Kind: types.KindAck, Cut: types.Cut{"p": 0, "q": 1}})
	refs(a, 1, "after stability collection")
	if got := ep.BufferedBytes(); got != 0 {
		t.Fatalf("BufferedBytes = %d after collection, want 0", got)
	}
	a.Release()

	// A stable index stores nothing and takes nothing.
	late := heldPayload(p, 1)
	ep.HandleMessageHeld("q", types.WireMsg{
		Kind: types.KindFwd, App: types.AppMsg{ID: 1, Payload: late.B()}, Origin: "q", View: v1, Index: 1,
	}, late)
	refs(late, 1, "store below the stable prefix")
	late.Release()

	// View installation: the delivery that completes the cut and the
	// installation that drops the slot happen inside one input, before anyone
	// can take the event — the event's own reference is what keeps its
	// payload readable.
	b := heldPayload(p, 2)
	want := append([]byte(nil), b.B()...)
	ep.HandleStartChange(types.StartChange{ID: 2, Set: types.NewProcSet("p", "q")})
	ep.HandleMessageHeld("q", app(b, 2), b) // beyond p's committed cut: stored, not delivered
	refs(b, 2, "stored, delivery restricted")
	ep.HandleView(twoMemberView(2, "p", "q", 2, 2))
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindSync, CID: 2, View: v1, Cut: types.Cut{"p": 0, "q": 2}})
	if ep.CurrentView().ID != 2 {
		t.Fatalf("setup: view 2 not installed, current = %s", ep.CurrentView())
	}
	refs(b, 2, "slot dropped at view installation, event pending") // ours, the event's
	evs := ep.TakeEvents()
	for _, ev := range evs {
		if d, ok := ev.(DeliverEvent); ok && !bytes.Equal(d.Msg.Payload, want) {
			t.Fatal("payload of an event that outlived its slot is damaged")
		}
	}
	if n := releaseHolds(evs); n != 1 {
		t.Fatalf("%d deliveries across the view change, want 1", n)
	}
	refs(b, 1, "after view installation")
	b.Release()

	// Recover, with events still queued at the crash: a received message and
	// a sent one, held the same way.
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: ep.CurrentView()})
	c, d := heldPayload(p, 3), heldPayload(p, 4)
	ep.HandleMessageHeld("q", app(c, 3), c)
	refs(c, 3, "stored and delivered in view 2")
	m, err := ep.SendHeld(d.B(), d)
	if err != nil {
		t.Fatal(err)
	}
	if &m.Payload[0] != &d.B()[0] {
		t.Fatal("SendHeld did not keep the payload where it was")
	}
	refs(d, 3, "sent and self-delivered")
	ep.Crash()
	refs(c, 2, "crash drops the untaken event")
	ep.Recover()
	refs(c, 1, "after Recover")
	refs(d, 1, "after Recover")
	c.Release()
	d.Release()

	// Close, on an end-point that never collects.
	ep, _ = newTestEndpoint(t, "p", nil)
	e := heldPayload(p, 5)
	if _, err := ep.SendHeld(e.B(), e); err != nil {
		t.Fatal(err)
	}
	refs(e, 3, "sent and self-delivered, no acks")
	ep.Close()
	refs(e, 1, "after Close")
	e.Release()

	if got := p.Outstanding(); got != 0 {
		t.Fatalf("%d buffers still checked out at the end", got)
	}
}

// TestPayloadWithoutHolderIsCopied pins the rule for an end-point without a
// pool (the simulator, the enumerator, a shard World): bytes handed in without
// a holder are borrowed, what the end-point stores is a heap copy that survives
// the caller reusing its buffer, and it is delivered with no holder — the
// garbage collector owns it, so the application may keep it.
func TestPayloadWithoutHolderIsCopied(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", nil)
	v1 := joinShared(t, ep)
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v1})

	in := bytes.Repeat([]byte("x"), bulk)
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 1, Payload: in}})
	out := bytes.Repeat([]byte("y"), bulk)
	sent, err := ep.Send(out)
	if err != nil {
		t.Fatal(err)
	}
	clear(in)
	clear(out)

	stored, _ := ep.curBuf("q").get(1)
	own, _ := ep.curBuf("p").get(1)
	for name, got := range map[string][]byte{"received": stored.Payload, "sent": own.Payload, "returned by Send": sent.Payload} {
		if len(got) != bulk || bytes.IndexFunc(got, func(r rune) bool { return r != 'x' && r != 'y' }) >= 0 {
			t.Errorf("%s payload changed when the caller reused its buffer", name)
		}
	}
	if ep.BufferedBytes() != 2*bulk {
		t.Fatalf("BufferedBytes = %d, want the two payload lengths %d", ep.BufferedBytes(), 2*bulk)
	}
	for _, ev := range ep.TakeEvents() {
		if d, ok := ev.(DeliverEvent); ok && d.Hold != nil {
			t.Fatal("a copied payload was delivered with a holder")
		}
	}
}

// small is a payload size that a live receiver gets in a staging slab it
// shares with other frames, so it reaches the end-point without a holder.
const small = 256

// TestPooledEndpointPacksSmallPayloads pins the rule for an end-point with a
// pool: a payload handed in without a holder is copied into pooled memory the
// slot holds — a chunk it shares with its neighbours, or past packLimit a
// buffer of its own — and is delivered with that holder, so that from there on
// it lives and dies like a payload that arrived in a buffer of its own. With
// the pool overwriting whatever it gets back, an event's bytes stay intact
// after stability has collected the slot they were delivered from and read as
// poison only after the event's own release. Every way a slot can die — a
// stability round, a view installation that discards a buffer with a
// half-filled chunk open, Recover, Close — returns every buffer to the pool.
func TestPooledEndpointPacksSmallPayloads(t *testing.T) {
	p := pool.New()
	p.PoisonOnRelease(true)
	pooled := func(c *Config) { c.AckInterval, c.Pool = 1, p }
	ep, _ := newTestEndpoint(t, "p", pooled)
	v1 := joinShared(t, ep)
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v1})

	in := bytes.Repeat([]byte("x"), small)
	app := func(id int64) types.WireMsg {
		return types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: id, Payload: in}}
	}
	deliveries := func(evs []Event) (out []DeliverEvent) {
		for _, ev := range evs {
			if d, ok := ev.(DeliverEvent); ok {
				out = append(out, d)
			}
		}
		return out
	}
	outstanding := func(want int64, when string) {
		t.Helper()
		if got := p.Outstanding(); got != want {
			t.Fatalf("%s: %d pooled buffers checked out, want %d", when, got, want)
		}
	}

	// Received: copied (the caller's buffer is its own again), packed, held.
	ep.HandleMessage("q", app(1))
	clear(in)
	ds := deliveries(ep.TakeEvents())
	if len(ds) != 1 || ds[0].Hold == nil {
		t.Fatalf("a small payload was delivered %d times, holder %v; want once with a holder", len(ds), ds)
	}
	want := bytes.Repeat([]byte("x"), small)
	got := ds[0].Msg.Payload
	if !bytes.Equal(got, want) {
		t.Fatal("the delivered payload changed when the caller reused its buffer")
	}
	if cap(got) != small {
		t.Fatalf("the delivered payload has capacity %d: an append would run into its neighbour", cap(got))
	}
	if ds[0].Hold.Cap() != chunkSize {
		t.Fatalf("holder capacity %d, want a %d-byte chunk", ds[0].Hold.Cap(), chunkSize)
	}
	if got := ep.BufferedBytes(); got != chunkSize {
		t.Fatalf("BufferedBytes = %d with one packed slot, want its length plus the open chunk's slack = %d", got, chunkSize)
	}
	outstanding(1, "one packed slot")

	// Stability collects the slot (and, the buffer being empty, closes the
	// chunk); only the event's reference stands between the bytes and the
	// poisoner now.
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindAck, Cut: types.Cut{"p": 0, "q": 1}})
	if got := ep.BufferedBytes(); got != 0 {
		t.Fatalf("BufferedBytes = %d after collection, want 0", got)
	}
	if ds[0].Hold.Refs() != 1 {
		t.Fatalf("holder has %d references after collection, want the event's alone", ds[0].Hold.Refs())
	}
	if !bytes.Equal(got, want) {
		t.Fatal("an undelivered event's payload was damaged when its slot was collected")
	}
	ds[0].Hold.Release()
	if got[0] == 'x' || got[small-1] == 'x' {
		t.Fatal("the chunk was not recycled by the event's release: its bytes are not poisoned")
	}
	outstanding(0, "after collection and the event's release")

	// Sent: the same, and a payload past packLimit gets a buffer to itself
	// that counts in full.
	sent, err := ep.Send(bytes.Repeat([]byte("y"), small))
	if err != nil {
		t.Fatal(err)
	}
	ds = deliveries(ep.TakeEvents())
	if len(ds) != 1 || ds[0].Hold == nil || &ds[0].Msg.Payload[0] != &sent.Payload[0] {
		t.Fatal("a small sent payload was not self-delivered from the pooled copy Send returned")
	}
	ds[0].Hold.Release()
	in = bytes.Repeat([]byte("z"), packLimit+1)
	ep.HandleMessage("q", app(2))
	ds = deliveries(ep.TakeEvents())
	if len(ds) != 1 || ds[0].Hold == nil || ds[0].Hold == ep.curBuf("p").chunk || ds[0].Hold.Cap() >= chunkSize {
		t.Fatal("a payload past packLimit did not get a pooled buffer of its own")
	}
	if got, want := ep.BufferedBytes(), int64(chunkSize+ds[0].Hold.Cap()); got != want {
		t.Fatalf("BufferedBytes = %d, want p's chunk and q's whole buffer = %d", got, want)
	}
	ds[0].Hold.Release()
	outstanding(2, "a packed slot and a slot with a buffer of its own")

	// A view installation discards both buffers, p's with its chunk open.
	in = bytes.Repeat([]byte("x"), small)
	ep.HandleStartChange(types.StartChange{ID: 2, Set: types.NewProcSet("p", "q")})
	ep.HandleMessage("q", app(3)) // beyond p's committed cut: stored, not delivered
	ep.HandleView(twoMemberView(2, "p", "q", 2, 2))
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindSync, CID: 2, View: v1, Cut: types.Cut{"p": 1, "q": 3}})
	if ep.CurrentView().ID != 2 {
		t.Fatalf("setup: view 2 not installed, current = %s", ep.CurrentView())
	}
	ds = deliveries(ep.TakeEvents())
	if len(ds) != 1 || !bytes.Equal(ds[0].Msg.Payload, in) {
		t.Fatal("payload of an event that outlived its slot's buffer is damaged")
	}
	outstanding(1, "old view discarded, one event pending")
	ds[0].Hold.Release()
	outstanding(0, "after the view installation")

	// Recover, with events nobody took; then Close on an end-point that
	// never collects.
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: ep.CurrentView()})
	ep.HandleMessage("q", app(4))
	if _, err := ep.Send(in); err != nil {
		t.Fatal(err)
	}
	outstanding(2, "one open chunk per sender")
	ep.Crash()
	ep.Recover()
	outstanding(0, "after Recover")

	ep, _ = newTestEndpoint(t, "p", func(c *Config) { c.Pool = p })
	for i := 0; i < 3*chunkSize/small; i++ {
		if _, err := ep.Send(in); err != nil {
			t.Fatal(err)
		}
	}
	releaseHolds(ep.TakeEvents())
	outstanding(3, "three chunks of sent messages, no acks")
	ep.Close()
	outstanding(0, "after Close")
}

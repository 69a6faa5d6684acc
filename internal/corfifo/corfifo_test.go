package corfifo

import (
	"math/rand"
	"testing"

	"vsgm/internal/types"
)

type recorder struct {
	got []types.WireMsg
}

func (r *recorder) HandleMessage(_ types.ProcID, m types.WireMsg) {
	r.got = append(r.got, m)
}

func appMsg(id int64) types.WireMsg {
	return types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: id}}
}

func TestFIFODeliveryPerChannel(t *testing.T) {
	n := NewNetwork()
	var rb recorder
	n.Register("a", nil)
	n.Register("b", &rb)

	for i := int64(1); i <= 5; i++ {
		n.Send("a", []types.ProcID{"b"}, appMsg(i))
	}
	for i := 0; i < 5; i++ {
		if _, ok := n.DeliverNext("a", "b"); !ok {
			t.Fatalf("delivery %d: nothing to deliver", i)
		}
	}
	if _, ok := n.DeliverNext("a", "b"); ok {
		t.Fatal("delivered from an empty channel")
	}
	for i, m := range rb.got {
		if m.App.ID != int64(i+1) {
			t.Fatalf("message %d has id %d: FIFO violated", i, m.App.ID)
		}
	}
}

func TestMulticastEnqueuesPerDestination(t *testing.T) {
	n := NewNetwork()
	n.Register("a", nil)
	n.Register("b", nil)
	n.Register("c", nil)
	n.Send("a", []types.ProcID{"b", "c"}, appMsg(1))
	if n.Pending("a", "b") != 1 || n.Pending("a", "c") != 1 {
		t.Fatal("multicast did not enqueue per destination")
	}
	if n.TotalPending() != 2 {
		t.Fatalf("total pending = %d, want 2", n.TotalPending())
	}
}

func TestSendObserverFiresPerDestination(t *testing.T) {
	n := NewNetwork()
	var fired []types.ProcID
	n.SetSendObserver(func(_, to types.ProcID, _ types.WireMsg) {
		fired = append(fired, to)
	})
	n.Send("a", []types.ProcID{"b", "c"}, appMsg(1))
	if len(fired) != 2 || fired[0] != "b" || fired[1] != "c" {
		t.Fatalf("observer fired for %v", fired)
	}
}

func TestLoseRequiresUnreliableDestination(t *testing.T) {
	n := NewNetwork()
	n.Register("a", nil)
	n.SetReliable("a", types.NewProcSet("a", "b"))
	n.Send("a", []types.ProcID{"b"}, appMsg(1))

	if err := n.LoseTail("a", "b"); err == nil {
		t.Fatal("lose succeeded for a reliable destination")
	}
	n.SetReliable("a", types.NewProcSet("a"))
	if err := n.LoseTail("a", "b"); err != nil {
		t.Fatalf("lose failed for unreliable destination: %v", err)
	}
	if n.Pending("a", "b") != 0 {
		t.Fatal("message not dropped")
	}
}

func TestLoseSuffixDropsFromTheTail(t *testing.T) {
	n := NewNetwork()
	n.Register("b", nil)
	for i := int64(1); i <= 4; i++ {
		n.Send("a", []types.ProcID{"b"}, appMsg(i))
	}
	if err := n.LoseSuffix("a", "b", 2); err != nil {
		t.Fatal(err)
	}
	if n.Pending("a", "b") != 2 {
		t.Fatalf("pending = %d, want 2", n.Pending("a", "b"))
	}
	m, _ := n.DeliverNext("a", "b")
	if m.App.ID != 1 {
		t.Fatalf("head id = %d, want 1: lose must drop the suffix, not the prefix", m.App.ID)
	}
}

func TestDropUnreliable(t *testing.T) {
	n := NewNetwork()
	n.Register("a", nil)
	n.SetReliable("a", types.NewProcSet("a", "b"))
	n.Send("a", []types.ProcID{"b", "c"}, appMsg(1))
	dropped := n.DropUnreliable()
	if dropped != 1 {
		t.Fatalf("dropped %d, want 1 (only the unreliable destination)", dropped)
	}
	if n.Pending("a", "b") != 1 || n.Pending("a", "c") != 0 {
		t.Fatal("wrong channel dropped")
	}
}

func TestDeliveryToUnregisteredEndpointDiscards(t *testing.T) {
	n := NewNetwork()
	n.Send("a", []types.ProcID{"b"}, appMsg(1))
	if _, ok := n.DeliverNext("a", "b"); !ok {
		t.Fatal("delivery should pop the message even without a handler")
	}
	if n.Pending("a", "b") != 0 {
		t.Fatal("message still queued")
	}
}

func TestUnregisterStopsHandler(t *testing.T) {
	n := NewNetwork()
	var rb recorder
	n.Register("b", &rb)
	n.Unregister("b")
	n.Send("a", []types.ProcID{"b"}, appMsg(1))
	n.DeliverNext("a", "b")
	if len(rb.got) != 0 {
		t.Fatal("handler invoked after unregister")
	}
}

func TestReliableAndLiveDefaults(t *testing.T) {
	n := NewNetwork()
	n.Register("p", nil)
	if !n.Reliable("p").Equal(types.NewProcSet("p")) {
		t.Error("reliable_set should initialize to {p}")
	}
	if !n.Live("p").Equal(types.NewProcSet("p")) {
		t.Error("live_set should initialize to {p}")
	}
	n.SetLive("p", types.NewProcSet("p", "q"))
	if !n.Live("p").Equal(types.NewProcSet("p", "q")) {
		t.Error("live_set not updated")
	}
	// Unknown processes report singleton defaults rather than nil.
	if !n.Reliable("ghost").Equal(types.NewProcSet("ghost")) {
		t.Error("unknown process should report default reliable set")
	}
}

func TestStats(t *testing.T) {
	n := NewNetwork()
	n.Register("b", nil)
	n.Send("a", []types.ProcID{"b"}, appMsg(1))
	n.Send("a", []types.ProcID{"b"}, types.WireMsg{Kind: types.KindSync, CID: 1, Small: true})
	n.DeliverNext("a", "b")

	s := n.Stats()
	if s.Sent.App != 1 || s.Sent.Sync != 1 || s.Sent.Total() != 2 {
		t.Errorf("sent = %+v", s.Sent)
	}
	if s.Delivered.App != 1 || s.Delivered.Total() != 1 {
		t.Errorf("delivered = %+v", s.Delivered)
	}
	if s.Sent.Control() != 1 {
		t.Errorf("control = %d, want 1", s.Sent.Control())
	}
	if s.SentBytes <= 0 {
		t.Error("sent bytes not recorded")
	}

	before := s
	n.Send("a", []types.ProcID{"b"}, appMsg(2))
	diff := n.Stats().Sub(before)
	if diff.Sent.App != 1 || diff.Sent.Sync != 0 {
		t.Errorf("diff = %+v", diff.Sent)
	}

	n.ResetStats()
	if n.Stats().Sent.Total() != 0 {
		t.Error("reset did not zero stats")
	}
}

func TestHandleBindsSender(t *testing.T) {
	n := NewNetwork()
	var rb recorder
	n.Register("b", &rb)
	h := n.Handle("a")
	if h.Proc() != "a" {
		t.Fatalf("handle proc = %s", h.Proc())
	}
	h.Send([]types.ProcID{"b"}, appMsg(9))
	h.SetReliable(types.NewProcSet("a", "b"))
	n.DeliverNext("a", "b")
	if len(rb.got) != 1 || rb.got[0].App.ID != 9 {
		t.Fatal("handle send did not reach the destination")
	}
	if !n.Reliable("a").Contains("b") {
		t.Fatal("handle SetReliable did not apply")
	}
}

// TestSteadyStateSendDeliverAllocatesNothing: once a link's queue has its
// array, a send to one destination and the delivery that drains it reuse
// that array.
func TestSteadyStateSendDeliverAllocatesNothing(t *testing.T) {
	n := NewNetwork()
	n.Register("b", HandlerFunc(func(types.ProcID, types.WireMsg) {}))
	dests := []types.ProcID{"b"}
	m := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 1, Payload: make([]byte, 64)}}
	n.Send("a", dests, m)
	n.DeliverNext("a", "b")
	allocs := testing.AllocsPerRun(1000, func() {
		n.Send("a", dests, m)
		n.DeliverNext("a", "b")
	})
	if allocs != 0 {
		t.Fatalf("a steady-state Send+DeliverNext allocates %.0f times, want 0", allocs)
	}
}

// TestLoseTailAfterPartialDrain: with the head of the queue already
// delivered, lose still drops the newest queued message.
func TestLoseTailAfterPartialDrain(t *testing.T) {
	n := NewNetwork()
	n.Register("b", nil)
	for i := int64(1); i <= 5; i++ {
		n.Send("a", []types.ProcID{"b"}, appMsg(i))
	}
	for i := 0; i < 2; i++ {
		n.DeliverNext("a", "b")
	}
	if err := n.LoseTail("a", "b"); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		m, ok := n.DeliverNext("a", "b")
		if !ok {
			break
		}
		got = append(got, m.App.ID)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("after delivering 1, 2 and losing the tail, delivered %v, want [3 4]", got)
	}
}

// TestQueueReuseKeepsFIFO drives one link through seeded sends, deliveries
// and tail losses, with backlogs that grow, slide and drain the queue's
// array, against a reference slice; every dequeued slot must be zeroed.
func TestQueueReuseKeepsFIFO(t *testing.T) {
	n := NewNetwork()
	n.Register("b", nil)
	rng := rand.New(rand.NewSource(3))
	var want []int64
	next := int64(1)
	for step := 0; step < 20000; step++ {
		// Phases of 500 steps alternate between filling and draining.
		fill := step/500%2 == 0
		switch r := rng.Intn(10); {
		case r < 7 && fill || r < 3:
			n.Send("a", []types.ProcID{"b"}, appMsg(next))
			want = append(want, next)
			next++
		case r == 9:
			if err := n.LoseTail("a", "b"); err != nil {
				t.Fatal(err)
			}
			if len(want) > 0 {
				want = want[:len(want)-1]
			}
		default:
			m, ok := n.DeliverNext("a", "b")
			if ok != (len(want) > 0) {
				t.Fatalf("step %d: delivered=%v with %d queued", step, ok, len(want))
			}
			if !ok {
				continue
			}
			if m.App.ID != want[0] {
				t.Fatalf("step %d: delivered %d, want %d", step, m.App.ID, want[0])
			}
			want = want[1:]
		}
		if got := n.Pending("a", "b"); got != len(want) {
			t.Fatalf("step %d: Pending = %d, want %d", step, got, len(want))
		}
		q := n.channels["a"]["b"]
		for i := 0; i < q.head; i++ {
			if q.msgs[i].App.ID != 0 {
				t.Fatalf("step %d: dequeued slot %d still holds message %d", step, i, q.msgs[i].App.ID)
			}
		}
		links := n.PendingLinks()
		if (len(links) == 1) != (len(want) > 0) || len(links) == 1 && links[0].Count != len(want) {
			t.Fatalf("step %d: PendingLinks = %v with %d queued", step, links, len(want))
		}
	}
}

// TestKindCountsTotalCountsEveryKind adds one message of each kind and checks
// that Total rises by exactly one each time.
func TestKindCountsTotalCountsEveryKind(t *testing.T) {
	var k KindCounts
	for _, kind := range []types.MsgKind{
		types.KindView, types.KindApp, types.KindFwd, types.KindSync, types.KindPropose,
		types.KindMembProposal, types.KindAck, types.KindHeartbeat, types.KindSyncBundle,
	} {
		before := k.Total()
		k.add(kind)
		if got := k.Total(); got != before+1 {
			t.Errorf("after one %v message Total = %d, want %d", kind, got, before+1)
		}
	}
}

package totalorder

import (
	"errors"
	"testing"

	"vsgm/internal/core"
	"vsgm/internal/types"
)

func newLoopbackSession(t *testing.T) (*Session, *[]string) {
	t.Helper()
	var delivered []string
	var s *Session
	var err error
	s, err = New("p",
		func(payload []byte) error {
			// Loopback: the GCS would deliver our own message back to us.
			return s.HandleEvent(core.DeliverEvent{Sender: "p", Msg: types.AppMsg{Payload: payload}})
		},
		func(sender types.ProcID, payload []byte) {
			delivered = append(delivered, string(payload))
		},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, &delivered
}

func TestNewRequiresCallbacks(t *testing.T) {
	if _, err := New("p", nil, func(types.ProcID, []byte) {}, nil); err == nil {
		t.Error("missing send accepted")
	}
	if _, err := New("p", func([]byte) error { return nil }, nil, nil); err == nil {
		t.Error("missing deliver accepted")
	}
}

func TestSingletonSelfOrdering(t *testing.T) {
	s, delivered := newLoopbackSession(t)
	// In a singleton view this process is its own sequencer: send →
	// self-delivery → self-assignment → release.
	if err := s.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Send([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if len(*delivered) != 2 || (*delivered)[0] != "one" || (*delivered)[1] != "two" {
		t.Fatalf("delivered = %v", *delivered)
	}
}

func TestRejectsEmptyAndUnknownPayloads(t *testing.T) {
	s, _ := newLoopbackSession(t)
	err := s.HandleEvent(core.DeliverEvent{Sender: "q", Msg: types.AppMsg{}})
	if err == nil {
		t.Error("empty payload accepted")
	}
	err = s.HandleEvent(core.DeliverEvent{Sender: "q", Msg: types.AppMsg{Payload: []byte{99}}})
	if err == nil {
		t.Error("unknown tag accepted")
	}
}

func TestRejectsShortAssignment(t *testing.T) {
	s, _ := newLoopbackSession(t)
	// tagOrder with a truncated body.
	err := s.HandleEvent(core.DeliverEvent{Sender: "q", Msg: types.AppMsg{Payload: []byte{2, 0, 0}}})
	if err == nil {
		t.Error("short assignment accepted")
	}
}

func TestBlockedSendSurfacesErrBlocked(t *testing.T) {
	s, err := New("p",
		func([]byte) error { return core.ErrBlocked },
		func(types.ProcID, []byte) {},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send([]byte("x")); !errors.Is(err, ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
}

func TestViewFlushDeliversUnassignedDeterministically(t *testing.T) {
	var delivered []string
	s, err := New("b",
		func([]byte) error { return nil }, // sends vanish: we are not the sequencer
		func(sender types.ProcID, payload []byte) {
			delivered = append(delivered, string(sender)+":"+string(payload))
		},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	// Data from two senders arrives but the sequencer's assignments never
	// do; the view change flushes in (sender, index) order.
	feed := func(sender types.ProcID, body string) {
		payload := append([]byte{1}, []byte(body)...)
		if err := s.HandleEvent(core.DeliverEvent{Sender: sender, Msg: types.AppMsg{Payload: payload}}); err != nil {
			t.Fatal(err)
		}
	}
	feed("z", "z1")
	feed("a", "a1")
	feed("z", "z2")

	v := types.NewView(1, types.NewProcSet("a", "b"),
		map[types.ProcID]types.StartChangeID{"a": 1, "b": 1})
	if err := s.HandleEvent(core.ViewEvent{View: v, TransitionalSet: types.NewProcSet("b")}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a:a1", "z:z1", "z:z2"}
	if len(delivered) != len(want) {
		t.Fatalf("delivered = %v, want %v", delivered, want)
	}
	for i := range want {
		if delivered[i] != want[i] {
			t.Fatalf("delivered = %v, want %v", delivered, want)
		}
	}
}

// bus is a synchronous stand-in for the GCS: one view, every payload delivered
// to every session in the order it was sent. A send made from inside a
// delivery is queued behind it, as an end-point would.
type bus struct {
	sessions map[types.ProcID]*Session
	queue    []core.DeliverEvent
	pumping  bool
}

func (b *bus) send(from types.ProcID, payload []byte) {
	b.queue = append(b.queue, core.DeliverEvent{Sender: from, Msg: types.AppMsg{Payload: payload}})
	if b.pumping {
		return
	}
	b.pumping = true
	for len(b.queue) > 0 {
		ev := b.queue[0]
		b.queue = b.queue[1:]
		for _, s := range b.sessions {
			if err := s.HandleEvent(ev); err != nil {
				panic(err)
			}
		}
	}
	b.pumping = false
}

func TestSessionKeepsNothingPerMessage(t *testing.T) {
	members := []types.ProcID{"a", "b", "c"}
	b := &bus{sessions: make(map[types.ProcID]*Session)}
	released := make(map[types.ProcID]int)
	sid := make(map[types.ProcID]types.StartChangeID)
	for _, p := range members {
		p := p
		s, err := New(p,
			func(payload []byte) error { b.send(p, payload); return nil },
			func(types.ProcID, []byte) { released[p]++ }, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.sessions[p] = s
		sid[p] = 1
	}
	v := types.NewView(1, types.NewProcSet(members...), sid)
	for _, s := range b.sessions {
		if err := s.HandleEvent(core.ViewEvent{View: v, TransitionalSet: types.NewProcSet(s.id)}); err != nil {
			t.Fatal(err)
		}
	}
	// Both ways into the order: the sequencer's own messages and, through its
	// assignments, everyone else's.
	const n = 10_000
	for i := 0; i < n; i++ {
		if err := b.sessions[members[i%len(members)]].Send([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range members {
		s := b.sessions[p]
		if released[p] != n {
			t.Errorf("%s released %d of %d messages", p, released[p], n)
		}
		if kept := len(s.pending) + len(s.order) + cap(s.order); kept > 2*len(members) {
			t.Errorf("%s keeps %d pending, %d slots (capacity %d) after %d messages in one view",
				p, len(s.pending), len(s.order), cap(s.order), n)
		}
		if len(s.seen) > len(members) || len(s.assigned) > len(members) {
			t.Errorf("%s keeps %d counters and %d marks for %d members", p, len(s.seen), len(s.assigned), len(members))
		}
	}
}

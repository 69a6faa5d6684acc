package live

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vsgm/internal/membership"
	"vsgm/internal/types"
	"vsgm/internal/wire"
)

func TestLiveTCPEndToEnd(t *testing.T) {
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 4})
	defer w.close()
	w.SetReachable()

	// Every client converges on the full view over real sockets.
	want := types.NewProcSet()
	for cid := range w.Clients() {
		want.Add(cid)
	}
	w.waitFor("all clients to install the full view", func() bool {
		for _, node := range w.Clients() {
			if !node.CurrentView().Members.Equal(want) {
				return false
			}
		}
		return true
	})

	// Concurrent multicasts from every client, delivered everywhere with
	// virtually synchronous semantics.
	const perClient = 5
	var senders sync.WaitGroup
	for cid, node := range w.Clients() {
		cid, node := cid, node
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < perClient; i++ {
				if _, err := node.Send([]byte(fmt.Sprintf("%s-%d", cid, i))); err != nil {
					t.Errorf("send from %s: %v", cid, err)
					return
				}
			}
		}()
	}
	senders.Wait()

	total := perClient * len(w.Clients())
	w.waitFor("all messages to be delivered everywhere", func() bool {
		snap := w.Delivered()
		for cid := range w.Clients() {
			if snap[cid] < total {
				return false
			}
		}
		return true
	})

	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violations on the live run:\n%v", err)
	}
}

func TestLiveViewChange(t *testing.T) {
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 3})
	defer w.close()
	w.SetReachable()

	all := types.NewProcSet()
	for cid := range w.Clients() {
		all.Add(cid)
	}
	w.waitFor("initial view", func() bool {
		for _, node := range w.Clients() {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})

	// A member leaves via its home server; the survivors reconfigure.
	leaver := all.Min()
	for _, sn := range w.Servers() {
		sn.RemoveClient(leaver)
	}
	w.Servers()[0].Reconfigure()

	rest := all.Minus(types.NewProcSet(leaver))
	w.waitFor("survivors to install the reduced view", func() bool {
		for cid, node := range w.Clients() {
			if cid == leaver {
				continue
			}
			if !node.CurrentView().Members.Equal(rest) {
				return false
			}
		}
		return true
	})

	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

func TestLiveNodeCloseIsIdempotent(t *testing.T) {
	node, err := NewNode(NodeConfig{ID: "x", Addr: "127.0.0.1:0", AutoBlock: true})
	if err != nil {
		t.Fatal(err)
	}
	node.Close()
	node.Close() // second close must not panic or hang
}

// takeOne takes a single entry through takeBatch, the mailbox's blocking
// consumer call.
func takeOne[T any](m *mailbox[T]) (T, bool) {
	got, ok := m.takeBatch(nil, 1)
	if !ok {
		var zero T
		return zero, false
	}
	return got[0], true
}

func TestMailboxOrderAndClose(t *testing.T) {
	mb := newMailbox[int]()
	for i := 0; i < 50; i++ {
		if !mb.put(i) {
			t.Fatal("put on open mailbox failed")
		}
	}
	if !mb.putAll([]int{50, 51, 52}) {
		t.Fatal("putAll on open mailbox failed")
	}
	for i := 53; i < 100; i++ {
		mb.put(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := takeOne(mb)
		if !ok || v != i {
			t.Fatalf("take %d = (%d, %v)", i, v, ok)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := takeOne(mb); ok {
			t.Error("take on closed empty mailbox reported a value")
		}
	}()
	mb.close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("take did not unblock on close")
	}
	if mb.put(1) || mb.putAll([]int{1}) {
		t.Fatal("put on closed mailbox succeeded")
	}
}

func TestLiveSurvivesAbruptNodeDeath(t *testing.T) {
	// A client dies without ceremony (its sockets close mid-traffic); the
	// membership removes it and the survivors keep working.
	w := deploy(t, DeploymentConfig{Servers: 1, Clients: 3})
	defer w.close()
	w.SetReachable()

	all := types.NewProcSet()
	for cid := range w.Clients() {
		all.Add(cid)
	}
	w.waitFor("initial view", func() bool {
		for _, node := range w.Clients() {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})

	victim := all.Min()
	w.Client(victim).Close() // abrupt: connections break, no goodbye
	for _, sn := range w.Servers() {
		sn.RemoveClient(victim)
	}
	w.Servers()[0].Reconfigure()

	rest := all.Minus(types.NewProcSet(victim))
	w.waitFor("survivors to reconfigure past the dead node", func() bool {
		for cid, node := range w.Clients() {
			if cid == victim {
				continue
			}
			if !node.CurrentView().Members.Equal(rest) {
				return false
			}
		}
		return true
	})
	for cid, node := range w.Clients() {
		if cid == victim {
			continue
		}
		if _, err := node.Send([]byte("post-mortem")); err != nil {
			t.Fatalf("send from %s after the death: %v", cid, err)
		}
	}
	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

func TestLiveCloseJoinsAllGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		w := deploy(t, DeploymentConfig{Servers: 2, Clients: 3})
		w.SetReachable()
		all := types.NewProcSet()
		for cid := range w.Clients() {
			all.Add(cid)
		}
		w.waitFor("view", func() bool {
			for _, node := range w.Clients() {
				if !node.CurrentView().Members.Equal(all) {
					return false
				}
			}
			return true
		})
		w.close()
	}
	// Allow lingering conn-watcher goroutines to finish.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestLiveHeartbeatsBootstrapMembership(t *testing.T) {
	// No SetReachable calls at all: the live heartbeat detectors discover
	// the server set and bootstrap the first view themselves.
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 3})
	defer w.close()

	serverSet := types.NewProcSet()
	for _, sn := range w.Servers() {
		serverSet.Add(sn.ID())
	}
	for _, sn := range w.Servers() {
		sn.StartHeartbeats(serverSet, 10*time.Millisecond, 50*time.Millisecond)
	}

	all := types.NewProcSet()
	for cid := range w.Clients() {
		all.Add(cid)
	}
	w.waitFor("heartbeat-driven group formation", func() bool {
		for _, node := range w.Clients() {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})

	// A server dies; the survivor's detector notices, and the surviving
	// server's clients reconfigure down to its own clients.
	dead := w.Servers()[1]
	deadClients := types.NewProcSet()
	for cid, node := range w.Clients() {
		_ = node
		if w.HomeOf(cid) == dead.ID() {
			deadClients.Add(cid)
		}
	}
	dead.Close()

	rest := all.Minus(deadClients)
	w.waitFor("survivor-side reconfiguration after server death", func() bool {
		for cid, node := range w.Clients() {
			if deadClients.Contains(cid) {
				continue
			}
			if !node.CurrentView().Members.Equal(rest) {
				return false
			}
		}
		return true
	})
	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

func TestFrameGobRoundTripAllKinds(t *testing.T) {
	// Every wire-message kind must survive the live transport's gob
	// encoding — including ProcSet's custom codec and the view's startId
	// maps (the cached view key is unexported and recomputed on demand).
	v := types.NewView(3, types.NewProcSet("a", "b"),
		map[types.ProcID]types.StartChangeID{"a": 1, "b": 2})
	msgs := []types.WireMsg{
		{Kind: types.KindView, View: v},
		{Kind: types.KindApp, App: types.AppMsg{ID: 7, Payload: []byte("x")}, HistView: v, HistIndex: 2},
		{Kind: types.KindFwd, App: types.AppMsg{ID: 8}, Origin: "a", View: v, Index: 3},
		{Kind: types.KindSync, CID: 4, View: v, Cut: types.Cut{"a": 1, "b": 0}},
		{Kind: types.KindSync, CID: 5, Small: true},
		{Kind: types.KindSync, CID: 6, ElideView: true, Cut: types.Cut{"a": 2}},
		{Kind: types.KindSync, CID: 7, Probe: true, View: v, Cut: types.Cut{"a": 3}},
		{Kind: types.KindAck, Cut: types.Cut{"a": 9}},
		{Kind: types.KindHeartbeat},
		{Kind: types.KindMembProposal, MembProp: &types.MembProposal{
			Attempt: 2, Servers: types.NewProcSet("s0", "s1"), MinVid: 4,
			Clients: map[types.ProcID]types.StartChangeID{"c": 3},
			Epochs:  map[types.ProcID]int64{"c": 2},
		}},
		{Kind: types.KindSyncBundle, Bundle: []types.SyncEntry{
			{From: "a", CID: 1, View: v, Cut: types.Cut{"a": 1}},
			{From: "b", CID: 2, Small: true},
		}},
	}

	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	dec := gob.NewDecoder(&buf)
	for i, m := range msgs {
		if err := enc.Encode(frame{From: "sender", Msg: &m}); err != nil {
			t.Fatalf("encode kind %s: %v", m.Kind, err)
		}
		var got frame
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode kind %s: %v", m.Kind, err)
		}
		if got.From != "sender" || got.Msg == nil || got.Msg.Kind != m.Kind {
			t.Fatalf("frame %d mangled: %+v", i, got)
		}
		switch m.Kind {
		case types.KindView:
			if !got.Msg.View.Equal(v) || got.Msg.View.Key() != v.Key() {
				t.Fatalf("view mangled: %s vs %s", got.Msg.View, v)
			}
		case types.KindSync:
			if got.Msg.CID != m.CID || got.Msg.Small != m.Small ||
				got.Msg.ElideView != m.ElideView || got.Msg.Probe != m.Probe {
				t.Fatalf("sync flags mangled: %+v", got.Msg)
			}
			if m.Cut != nil && !got.Msg.Cut.Equal(m.Cut) {
				t.Fatalf("cut mangled: %v vs %v", got.Msg.Cut, m.Cut)
			}
		case types.KindMembProposal:
			if !got.Msg.MembProp.Servers.Equal(m.MembProp.Servers) ||
				got.Msg.MembProp.Clients["c"] != 3 ||
				got.Msg.MembProp.Epochs["c"] != 2 {
				t.Fatalf("proposal mangled: %+v", got.Msg.MembProp)
			}
		case types.KindSyncBundle:
			if len(got.Msg.Bundle) != 2 || !got.Msg.Bundle[0].View.Equal(v) {
				t.Fatalf("bundle mangled: %+v", got.Msg.Bundle)
			}
		}
	}

	// A membership notification frame.
	notif := membership.Notification{
		Kind:        membership.NotifyStartChange,
		StartChange: types.StartChange{ID: 9, Set: types.NewProcSet("a", "b", "c")},
	}
	if err := enc.Encode(frame{From: "srv", Notify: &notif}); err != nil {
		t.Fatal(err)
	}
	var got frame
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Notify == nil || got.Notify.StartChange.ID != 9 ||
		!got.Notify.StartChange.Set.Equal(notif.StartChange.Set) {
		t.Fatalf("notification mangled: %+v", got.Notify)
	}

	// An attach-protocol frame.
	att := wire.Attach{Kind: wire.AttachAck, Client: "c", Epoch: 2, CID: 2 << 32, Vid: 5}
	if err := enc.Encode(frame{From: "srv", Attach: &att}); err != nil {
		t.Fatal(err)
	}
	var gotAtt frame
	if err := dec.Decode(&gotAtt); err != nil {
		t.Fatal(err)
	}
	if gotAtt.Attach == nil || *gotAtt.Attach != att {
		t.Fatalf("attach frame mangled: %+v", gotAtt.Attach)
	}
}

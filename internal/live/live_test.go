package live

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/membership"
	"vsgm/internal/spec"
	"vsgm/internal/types"
	"vsgm/internal/wire"
)

// liveWorld spins up membership servers and client nodes on real TCP
// loopback sockets and collects every application event, tagged per client,
// into a spec suite (serialized by a collector mutex). Collection uses the
// synchronous Observe/ObserveNotify/OnSend hooks rather than the pump-based
// OnEvent: the online checkers need an arrival order consistent with
// causality — in particular a send recorded before any peer's delivery of
// it — and the pump can report an event after a fast peer has already
// reacted to its consequences.
type liveWorld struct {
	t       *testing.T
	servers []*ServerNode
	clients map[types.ProcID]*Node
	homes   map[types.ProcID]types.ProcID

	mu    sync.Mutex
	suite *spec.Suite
	views map[types.ProcID]types.View
	dlvrs map[types.ProcID]int
}

func (w *liveWorld) homeOf(cid types.ProcID) types.ProcID { return w.homes[cid] }

// testTransport shrinks the supervised transport's timeouts so
// fault-injection tests reconnect and shed load quickly.
func testTransport() TransportConfig {
	return TransportConfig{
		DialTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		BackoffBase:  10 * time.Millisecond,
		BackoffMax:   250 * time.Millisecond,
	}
}

func newLiveWorld(t *testing.T, nServers, nClients int) *liveWorld {
	t.Helper()
	return newLiveWorldWith(t, nServers, nClients, nil)
}

// newLiveWorldWith is newLiveWorld with a hook that adjusts each client's
// configuration before the node starts.
func newLiveWorldWith(t *testing.T, nServers, nClients int, tune func(*NodeConfig)) *liveWorld {
	t.Helper()
	w := &liveWorld{
		t:       t,
		clients: make(map[types.ProcID]*Node),
		homes:   make(map[types.ProcID]types.ProcID),
		suite:   spec.FullSuite(spec.WithTrace()),
		views:   make(map[types.ProcID]types.View),
		dlvrs:   make(map[types.ProcID]int),
	}

	serverIDs := make([]types.ProcID, nServers)
	for i := range serverIDs {
		serverIDs[i] = types.ProcID(fmt.Sprintf("srv%d", i))
	}
	serverSet := types.NewProcSet(serverIDs...)

	dir := make(map[types.ProcID]string)
	for _, sid := range serverIDs {
		sn, err := NewServerNode(ServerConfig{ID: sid, Addr: "127.0.0.1:0", Servers: serverSet, Transport: testTransport()})
		if err != nil {
			t.Fatal(err)
		}
		w.servers = append(w.servers, sn)
		dir[sid] = sn.Addr()
	}

	for i := 0; i < nClients; i++ {
		cid := types.ProcID(fmt.Sprintf("cli%d", i))
		cfg := NodeConfig{
			ID:            cid,
			Addr:          "127.0.0.1:0",
			AutoBlock:     true,
			MsgIDBase:     int64(i+1) * 1_000_000,
			Transport:     testTransport(),
			Observe:       func(ev core.Event) { w.onEvent(cid, ev) },
			OnSend:        func(m types.AppMsg) { w.recordSend(cid, m.ID) },
			ObserveNotify: func(n membership.Notification) { w.onNotify(cid, n) },
		}
		if tune != nil {
			tune(&cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.clients[cid] = node
		dir[cid] = node.Addr()
	}

	for _, sn := range w.servers {
		sn.SetPeers(dir)
	}
	for _, node := range w.clients {
		node.SetPeers(dir)
	}

	// Home each client at a server, round-robin.
	i := 0
	for cid := range w.clients {
		srv := w.servers[i%len(w.servers)]
		srv.AddClient(cid)
		w.homes[cid] = srv.ID()
		i++
	}
	return w
}

func (w *liveWorld) onEvent(p types.ProcID, ev core.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch e := ev.(type) {
	case core.DeliverEvent:
		w.dlvrs[p]++
		w.suite.OnEvent(spec.EDeliver{P: p, From: e.Sender, MsgID: e.Msg.ID})
	case core.ViewEvent:
		w.views[p] = e.View
		w.suite.OnEvent(spec.EView{P: p, View: e.View, Trans: e.TransitionalSet, HasTrans: true})
	case core.BlockEvent:
		// AutoBlock end-points acknowledge immediately (as in sim.drain).
		w.suite.OnEvent(spec.EBlock{P: p})
		w.suite.OnEvent(spec.EBlockOK{P: p})
	}
}

// onNotify feeds membership notifications into the MBRSHP checker, in the
// per-client order the node's event pump guarantees.
func (w *liveWorld) onNotify(p types.ProcID, n membership.Notification) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch n.Kind {
	case membership.NotifyStartChange:
		w.suite.OnEvent(spec.EMStartChange{P: p, SC: n.StartChange})
	case membership.NotifyView:
		w.suite.OnEvent(spec.EMView{P: p, View: n.View})
	}
}

// specErr finalizes the suite under the collector lock (event pumps may
// still be running).
func (w *liveWorld) specErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.suite.Err()
}

func (w *liveWorld) recordSend(p types.ProcID, id int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.suite.OnEvent(spec.ESend{P: p, MsgID: id})
}

func (w *liveWorld) boot() {
	all := types.NewProcSet()
	for _, sn := range w.servers {
		all.Add(sn.ID())
	}
	for _, sn := range w.servers {
		sn.SetReachable(all)
	}
}

func (w *liveWorld) startHeartbeats(interval, timeout time.Duration) {
	serverSet := types.NewProcSet()
	for _, sn := range w.servers {
		serverSet.Add(sn.ID())
	}
	for _, sn := range w.servers {
		sn.StartHeartbeats(serverSet, interval, timeout)
	}
}

// chaosOf returns every node's chaos controller keyed by process.
func (w *liveWorld) chaosOf() map[types.ProcID]*Chaos {
	out := make(map[types.ProcID]*Chaos)
	for _, sn := range w.servers {
		out[sn.ID()] = sn.Chaos()
	}
	for cid, node := range w.clients {
		out[cid] = node.Chaos()
	}
	return out
}

// partitionServers splits the deployment the way sim.PartitionServers does:
// each group of servers plus the clients homed at them becomes one
// component, and every node blocks outbound frames to nodes outside its
// component. The heartbeat detectors then observe the silence and
// reconfigure each side independently.
func (w *liveWorld) partitionServers(groups ...types.ProcSet) {
	comps := make([]types.ProcSet, len(groups))
	for i, g := range groups {
		comp := g.Clone()
		for cid, home := range w.homes {
			if g.Contains(home) {
				comp.Add(cid)
			}
		}
		comps[i] = comp
	}
	all := types.NewProcSet()
	for _, comp := range comps {
		for p := range comp {
			all.Add(p)
		}
	}
	chaos := w.chaosOf()
	for _, comp := range comps {
		outside := all.Minus(comp).Sorted()
		for p := range comp {
			if c := chaos[p]; c != nil {
				c.BlockOutbound(outside...)
			}
		}
	}
}

// healServers lifts every partition block.
func (w *liveWorld) healServers() {
	for _, c := range w.chaosOf() {
		c.Heal()
	}
}

// waitFor polls until cond holds or the deadline passes.
func (w *liveWorld) waitFor(what string, cond func() bool) {
	w.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.t.Fatalf("timed out waiting for %s", what)
}

func (w *liveWorld) close() {
	for _, node := range w.clients {
		node.Close()
	}
	for _, sn := range w.servers {
		sn.Close()
	}
	w.checkPoolLeaks()
}

// checkPoolLeaks asserts that every process returned all pooled receive
// buffers after Close: a nonzero outstanding count means a frame body (or a
// staging slab) was delivered without a matching Release.
func (w *liveWorld) checkPoolLeaks() {
	w.t.Helper()
	check := func(kind string, id types.ProcID, f *fabric) {
		// Close has joined every loop, so the count is already final; the
		// brief poll only absorbs pump goroutines that Close let finish.
		var n int64
		for deadline := time.Now().Add(time.Second); ; {
			if n = f.PoolStats().Outstanding; n == 0 || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if n != 0 {
			w.t.Errorf("%s %s: %d pooled buffers still outstanding after Close (leaked reference)", kind, id, n)
		}
	}
	for cid, node := range w.clients {
		check("client", cid, node.fabric)
	}
	for _, sn := range w.servers {
		check("server", sn.id, sn.fabric)
	}
}

func TestLiveTCPEndToEnd(t *testing.T) {
	w := newLiveWorld(t, 2, 4)
	defer w.close()
	w.boot()

	// Every client converges on the full view over real sockets.
	want := types.NewProcSet()
	for cid := range w.clients {
		want.Add(cid)
	}
	w.waitFor("all clients to install the full view", func() bool {
		for _, node := range w.clients {
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
	for cid, node := range w.clients {
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

	total := perClient * len(w.clients)
	w.waitFor("all messages to be delivered everywhere", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		for cid := range w.clients {
			if w.dlvrs[cid] < total {
				return false
			}
		}
		return true
	})

	if err := w.specErr(); err != nil {
		t.Fatalf("spec violations on the live run:\n%v", err)
	}
}

func TestLiveViewChange(t *testing.T) {
	w := newLiveWorld(t, 2, 3)
	defer w.close()
	w.boot()

	all := types.NewProcSet()
	for cid := range w.clients {
		all.Add(cid)
	}
	w.waitFor("initial view", func() bool {
		for _, node := range w.clients {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})

	// A member leaves via its home server; the survivors reconfigure.
	leaver := all.Min()
	for _, sn := range w.servers {
		sn.RemoveClient(leaver)
	}
	w.servers[0].Reconfigure()

	rest := all.Minus(types.NewProcSet(leaver))
	w.waitFor("survivors to install the reduced view", func() bool {
		for cid, node := range w.clients {
			if cid == leaver {
				continue
			}
			if !node.CurrentView().Members.Equal(rest) {
				return false
			}
		}
		return true
	})

	if err := w.specErr(); err != nil {
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
	w := newLiveWorld(t, 1, 3)
	defer w.close()
	w.boot()

	all := types.NewProcSet()
	for cid := range w.clients {
		all.Add(cid)
	}
	w.waitFor("initial view", func() bool {
		for _, node := range w.clients {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})

	victim := all.Min()
	w.clients[victim].Close() // abrupt: connections break, no goodbye
	for _, sn := range w.servers {
		sn.RemoveClient(victim)
	}
	w.servers[0].Reconfigure()

	rest := all.Minus(types.NewProcSet(victim))
	w.waitFor("survivors to reconfigure past the dead node", func() bool {
		for cid, node := range w.clients {
			if cid == victim {
				continue
			}
			if !node.CurrentView().Members.Equal(rest) {
				return false
			}
		}
		return true
	})
	for cid, node := range w.clients {
		if cid == victim {
			continue
		}
		if _, err := node.Send([]byte("post-mortem")); err != nil {
			t.Fatalf("send from %s after the death: %v", cid, err)
		}
	}
	if err := w.specErr(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

func TestLiveCloseJoinsAllGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		w := newLiveWorld(t, 2, 3)
		w.boot()
		all := types.NewProcSet()
		for cid := range w.clients {
			all.Add(cid)
		}
		w.waitFor("view", func() bool {
			for _, node := range w.clients {
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
	w := newLiveWorld(t, 2, 3)
	defer w.close()

	serverSet := types.NewProcSet()
	for _, sn := range w.servers {
		serverSet.Add(sn.ID())
	}
	for _, sn := range w.servers {
		sn.StartHeartbeats(serverSet, 10*time.Millisecond, 50*time.Millisecond)
	}

	all := types.NewProcSet()
	for cid := range w.clients {
		all.Add(cid)
	}
	w.waitFor("heartbeat-driven group formation", func() bool {
		for _, node := range w.clients {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})

	// A server dies; the survivor's detector notices, and the surviving
	// server's clients reconfigure down to its own clients.
	dead := w.servers[1]
	deadClients := types.NewProcSet()
	for cid, node := range w.clients {
		_ = node
		if w.homeOf(cid) == dead.ID() {
			deadClients.Add(cid)
		}
	}
	dead.Close()

	rest := all.Minus(deadClients)
	w.waitFor("survivor-side reconfiguration after server death", func() bool {
		for cid, node := range w.clients {
			if deadClients.Contains(cid) {
				continue
			}
			if !node.CurrentView().Members.Equal(rest) {
				return false
			}
		}
		return true
	})
	if err := w.specErr(); err != nil {
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

package live

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vsgm/internal/types"
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
		sn.StartHeartbeats(10*time.Millisecond, 50*time.Millisecond)
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

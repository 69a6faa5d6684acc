package live

// Regime 4 tests: server failure. Clients register through the in-band
// attach protocol, so a dead or partitioned home server is survivable: the
// node fails over down its HomeServers list under a fresh attach epoch, the
// adopting server issues identifiers that dominate everything the old home
// handed out, and the full spec suite checks that Virtual Synchrony, Local
// Monotonicity, and Self Delivery hold across the hand-off. Durable server
// state (WAL + snapshot) is exercised by restarting a server on its store,
// and the reconfiguration watchdog by running attempts over a lossy
// server-to-server trunk that would wedge a retry-free protocol.

import (
	"fmt"
	"testing"
	"time"

	"vsgm/internal/membership"
	"vsgm/internal/types"
)

// serverCount reads one of the membership core's counters under the
// server's lock.
func serverCount(sn *ServerNode, read func(*membership.Server) int64) int64 {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return read(sn.srv)
}

// attachState reads a node's attach state from its attach automaton, under
// the node's lock.
func attachState(node *Node) (st membership.ClientState) {
	node.withClient(func(c *membership.Client) { st = c.State() })
	return st
}

// TestLiveServerCrashFailover kills a home server mid-deployment: its
// clients detect the dead link (or the silent home), re-attach to the next
// server in their list, and the surviving server reconfigures everyone into
// a fresh full view. Traffic flows before and after, and the full spec
// suite holds across the hand-off.
func TestLiveServerCrashFailover(t *testing.T) {
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 4, Attach: true})
	defer w.close()
	w.SetReachable()
	w.StartHeartbeats(20*time.Millisecond, 150*time.Millisecond)

	w.waitFullView("all clients attached and in the full view", 0)
	w.roundOfTraffic("pre-crash")

	dead, survivor := w.Servers()[0], w.Servers()[1]
	orphans := w.sideClients(dead.ID())
	if orphans.Len() == 0 {
		t.Fatalf("no client homed at %s before the crash", dead.ID())
	}
	floor := w.MaxViewID()
	dead.Close()

	w.waitFor("all clients re-homed at the survivor", func() bool {
		for _, node := range w.Clients() {
			if node.Home() != survivor.ID() {
				return false
			}
		}
		return true
	})
	w.waitFullView("survivor reinstalls the full view", floor)
	w.roundOfTraffic("post-crash")

	// The orphans (clients whose home died) must have failed over.
	for cid, node := range w.Clients() {
		if !orphans.Contains(cid) {
			continue
		}
		st := attachState(node)
		if failovers, epoch := st.Failovers, st.Epoch; failovers == 0 || epoch < 2 {
			t.Errorf("%s: expected a failover under a fresh epoch, got %d failovers at epoch %d", cid, failovers, epoch)
		}
	}
	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violation across server crash: %v", err)
	}
}

// TestLiveServerRestartFromWAL crashes the only server and restarts it on
// the same address from its file store: the replayed WAL restores every
// client's identifier record, so the resumed deployment issues cids and
// view ids strictly above everything from before the crash — Local
// Monotonicity survives the restart (the spec suite would flag any
// regression in the notification stream).
func TestLiveServerRestartFromWAL(t *testing.T) {
	dir := t.TempDir()
	// Every start, the restart included, opens a fresh handle to the same
	// store.
	w := deploy(t, DeploymentConfig{Servers: 1, Clients: 2, Attach: true,
		Server: func(_ types.ProcID, cfg *ServerConfig) error {
			store, err := NewFileStore(dir)
			if err != nil {
				return err
			}
			cfg.Store = store
			return nil
		}})
	defer w.close()
	w.SetReachable()

	w.waitFullView("clients attached and in the full view", 0)
	w.roundOfTraffic("pre-crash")

	pre := w.Servers()[0].Records()
	if len(pre) != len(w.Clients()) {
		t.Fatalf("expected %d pre-crash records, got %v", len(w.Clients()), pre)
	}
	for p, rec := range pre {
		if rec.CID <= 0 || rec.Vid <= 0 {
			t.Fatalf("pre-crash record for %s not yet populated: %+v", p, rec)
		}
	}
	floor := w.MaxViewID()
	w.must(w.RestartServer("srv0"))
	sn := w.Server("srv0")

	// The WAL replay restored at least the pre-crash identifier state
	// (clients may already be re-attaching, which only raises the values).
	got := sn.Records()
	for p, rec := range pre {
		g, ok := got[p]
		if !ok || g.CID < rec.CID || g.Vid < rec.Vid || g.Epoch < rec.Epoch {
			t.Fatalf("record for %s regressed across restart: pre %+v post %+v", p, rec, g)
		}
	}

	w.waitFullView("clients re-attached to the restarted server", floor)
	w.roundOfTraffic("post-restart")

	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violation across server restart: %v", err)
	}
}

// TestLiveWatchdogRecoversDroppedProposals runs reconfiguration attempts
// over a server-to-server trunk that drops 85% of frames in each direction.
// Without the watchdog a single lost proposal wedges the one-round protocol
// forever; with it, attempts complete in bounded retries (proposals are
// idempotent, so the spec suite stays green — drops are confined to
// server-to-server traffic).
func TestLiveWatchdogRecoversDroppedProposals(t *testing.T) {
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 2, Attach: true,
		Server: func(_ types.ProcID, cfg *ServerConfig) error { cfg.Watchdog = 20 * time.Millisecond; return nil }})
	defer w.close()
	w.SetReachable() // static reachability: no heartbeats, so drops cannot churn the detector

	w.waitFullView("all clients attached and in the full view", 0)

	srv0, srv1 := w.Servers()[0], w.Servers()[1]
	srv0.Chaos().SetDropProbabilityFor(0.85, srv1.ID())
	srv1.Chaos().SetDropProbabilityFor(0.85, srv0.ID())

	for round := 0; round < 3; round++ {
		floor := w.MaxViewID()
		w.Servers()[round%2].Reconfigure()
		w.waitFullView(fmt.Sprintf("round %d view over the lossy trunk", round), floor)
	}

	srv0.Chaos().Heal()
	srv1.Chaos().Heal()

	if rp := serverCount(srv0, (*membership.Server).Reproposals) + serverCount(srv1, (*membership.Server).Reproposals); rp == 0 {
		t.Fatal("attempts completed over an 85%-lossy trunk without any reproposal — watchdog never fired")
	}
	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violation under proposal drops: %v", err)
	}
}

// TestLivePartitionedHomeEvictsStaleClients partitions one home server away
// from everything: its clients fail over on the silent-home timeout and the
// survivor serves the full group. When the partition heals, the stale
// server learns from epoch gossip that its registrations moved and evicts
// them instead of fighting over ownership; its late notifications are
// filtered client-side, so the spec suite stays green throughout.
func TestLivePartitionedHomeEvictsStaleClients(t *testing.T) {
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 4, Attach: true})
	defer w.close()
	w.SetReachable()
	w.StartHeartbeats(20*time.Millisecond, 150*time.Millisecond)

	w.waitFullView("all clients attached and in the full view", 0)
	w.roundOfTraffic("pre-partition")

	stale, survivor := w.Servers()[0], w.Servers()[1]
	floor := w.MaxViewID()

	// Symmetric partition: srv0 cut off from its peer and every client.
	rest := []types.ProcID{survivor.ID()}
	for cid := range w.Clients() {
		rest = append(rest, cid)
	}
	stale.Chaos().BlockOutbound(rest...)
	survivor.Chaos().BlockOutbound(stale.ID())
	for _, node := range w.Clients() {
		node.Chaos().BlockOutbound(stale.ID())
	}

	w.waitFor("orphans fail over to the survivor", func() bool {
		for _, node := range w.Clients() {
			if node.Home() != survivor.ID() {
				return false
			}
		}
		return true
	})
	w.waitFullView("survivor reinstalls the full view", floor)
	w.roundOfTraffic("during-partition")

	w.Heal()

	// Post-heal proposal exchange gossips the orphans' new epochs; the stale
	// server must cede them rather than keep claiming ownership.
	w.waitFor("stale server evicts its superseded registrations", func() bool {
		return stale.Clients().Len() == 0
	})
	if ev := serverCount(stale, (*membership.Server).Evictions); ev == 0 {
		t.Fatal("stale server dropped its clients without recording an eviction")
	}

	w.roundOfTraffic("post-heal")
	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violation across partition and heal: %v", err)
	}
}

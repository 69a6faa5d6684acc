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

	"vsgm/internal/core"
	"vsgm/internal/membership"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// attachOptions tunes newAttachWorld.
type attachOptions struct {
	// stores optionally backs individual servers with durable state.
	stores map[types.ProcID]Store
	// watchdog overrides the servers' stall-detection interval
	// (default 25ms — fast enough that lossy-trunk tests converge quickly).
	watchdog time.Duration
	// transport, when non-nil, replaces testTransport() for every node —
	// flow-control tests shrink the credit window this way.
	transport *TransportConfig
	// tuneServer / tuneNode, when set, adjust each node's config just
	// before construction (slow-consumer grace, memory budgets, throttled
	// event callbacks, bans).
	tuneServer func(sid types.ProcID, cfg *ServerConfig)
	tuneNode   func(i int, cfg *NodeConfig)
}

// transportOrDefault picks the per-test transport override.
func (o attachOptions) transportOrDefault() TransportConfig {
	if o.transport != nil {
		return *o.transport
	}
	return testTransport()
}

// newAttachWorld is newLiveWorld's in-band sibling: no AddClient calls —
// every client is configured with a rotated HomeServers list and registers
// itself through the attach protocol, with intervals shrunk so failover
// happens in test time. w.homes records each client's *preferred* home
// (the actual home moves on failover; read Node.Home for that).
func newAttachWorld(t *testing.T, nServers, nClients int, opt attachOptions) *liveWorld {
	t.Helper()
	w := &liveWorld{
		t:       t,
		clients: make(map[types.ProcID]*Node),
		homes:   make(map[types.ProcID]types.ProcID),
		suite:   spec.FullSuite(spec.WithTrace()),
		views:   make(map[types.ProcID]types.View),
		dlvrs:   make(map[types.ProcID]int),
	}
	if opt.watchdog == 0 {
		opt.watchdog = 25 * time.Millisecond
	}

	serverIDs := make([]types.ProcID, nServers)
	for i := range serverIDs {
		serverIDs[i] = types.ProcID(fmt.Sprintf("srv%d", i))
	}
	serverSet := types.NewProcSet(serverIDs...)

	dir := make(map[types.ProcID]string)
	for _, sid := range serverIDs {
		cfg := ServerConfig{
			ID:        sid,
			Addr:      "127.0.0.1:0",
			Servers:   serverSet,
			Store:     opt.stores[sid],
			Watchdog:  opt.watchdog,
			Transport: opt.transportOrDefault(),
		}
		if opt.tuneServer != nil {
			opt.tuneServer(sid, &cfg)
		}
		sn, err := NewServerNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.servers = append(w.servers, sn)
		dir[sid] = sn.Addr()
	}

	for i := 0; i < nClients; i++ {
		cid := types.ProcID(fmt.Sprintf("cli%d", i))
		// Rotate the server list so preferred homes round-robin and each
		// client's failover target is the next server along.
		homeList := make([]types.ProcID, nServers)
		for j := range homeList {
			homeList[j] = serverIDs[(i+j)%nServers]
		}
		cfg := NodeConfig{
			ID:             cid,
			Addr:           "127.0.0.1:0",
			AutoBlock:      true,
			MsgIDBase:      int64(i+1) * 1_000_000,
			HomeServers:    homeList,
			AttachInterval: 40 * time.Millisecond,
			AttachTimeout:  250 * time.Millisecond,
			Transport:      opt.transportOrDefault(),
			Observe:        func(ev core.Event) { w.onEvent(cid, ev) },
			OnSend:         func(m types.AppMsg) { w.recordSend(cid, m.ID) },
			ObserveNotify:  func(n membership.Notification) { w.onNotify(cid, n) },
		}
		if opt.tuneNode != nil {
			opt.tuneNode(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.clients[cid] = node
		w.homes[cid] = homeList[0]
		dir[cid] = node.Addr()
	}

	for _, sn := range w.servers {
		sn.SetPeers(dir)
	}
	for _, node := range w.clients {
		node.SetPeers(dir)
	}
	return w
}

// serverCount reads one of the membership core's counters under the
// server's lock.
func serverCount(sn *ServerNode, read func(*membership.Server) int64) int64 {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return read(sn.srv)
}

// directory rebuilds the address book (needed when a server restarts).
func (w *liveWorld) directory() map[types.ProcID]string {
	dir := make(map[types.ProcID]string)
	for _, sn := range w.servers {
		dir[sn.ID()] = sn.Addr()
	}
	for cid, node := range w.clients {
		dir[cid] = node.Addr()
	}
	return dir
}

// maxViewID returns the highest view identifier any client has installed.
func (w *liveWorld) maxViewID() types.ViewID {
	var max types.ViewID
	for _, node := range w.clients {
		if v := node.CurrentView().ID; v > max {
			max = v
		}
	}
	return max
}

// waitFullView waits until every client is attached somewhere and has
// installed a view containing all clients with an id above floor.
func (w *liveWorld) waitFullView(what string, floor types.ViewID) {
	w.t.Helper()
	all := w.allClients()
	w.waitFor(what, func() bool {
		for _, node := range w.clients {
			if node.Home() == "" {
				return false
			}
			v := node.CurrentView()
			if v.ID <= floor || !v.Members.Equal(all) {
				return false
			}
		}
		return true
	})
}

// roundOfTraffic has every client multicast once and waits until every
// client has delivered the whole round.
func (w *liveWorld) roundOfTraffic(tag string) {
	w.t.Helper()
	base := w.deliveredSnapshot()
	for cid := range w.clients {
		w.sendRetry(cid, tag+"-"+string(cid))
	}
	n := len(w.clients)
	w.waitFor(tag+" traffic delivered everywhere", func() bool {
		snap := w.deliveredSnapshot()
		for cid := range w.clients {
			if snap[cid]-base[cid] < n {
				return false
			}
		}
		return true
	})
}

// TestLiveServerCrashFailover kills a home server mid-deployment: its
// clients detect the dead link (or the silent home), re-attach to the next
// server in their list, and the surviving server reconfigures everyone into
// a fresh full view. Traffic flows before and after, and the full spec
// suite holds across the hand-off.
func TestLiveServerCrashFailover(t *testing.T) {
	w := newAttachWorld(t, 2, 4, attachOptions{})
	defer w.close()
	w.boot()
	w.startHeartbeats(20*time.Millisecond, 150*time.Millisecond)

	w.waitFullView("all clients attached and in the full view", 0)
	w.roundOfTraffic("pre-crash")

	dead, survivor := w.servers[0], w.servers[1]
	floor := w.maxViewID()
	dead.Close()

	w.waitFor("all clients re-homed at the survivor", func() bool {
		for _, node := range w.clients {
			if node.Home() != survivor.ID() {
				return false
			}
		}
		return true
	})
	w.waitFullView("survivor reinstalls the full view", floor)
	w.roundOfTraffic("post-crash")

	// The orphans (clients whose preferred home died) must have failed over.
	for cid, node := range w.clients {
		if w.homes[cid] != dead.ID() {
			continue
		}
		node.amu.Lock()
		epoch := node.epoch
		node.amu.Unlock()
		if failovers := node.failovers.Value(); failovers == 0 || epoch < 2 {
			t.Errorf("%s: expected a failover under a fresh epoch, got %d failovers at epoch %d", cid, failovers, epoch)
		}
	}
	if err := w.specErr(); err != nil {
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
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := newAttachWorld(t, 1, 2, attachOptions{
		stores: map[types.ProcID]Store{"srv0": store},
	})
	defer w.close()
	w.boot()

	w.waitFullView("clients attached and in the full view", 0)
	w.roundOfTraffic("pre-crash")

	pre := w.servers[0].Records()
	if len(pre) != len(w.clients) {
		t.Fatalf("expected %d pre-crash records, got %v", len(w.clients), pre)
	}
	for p, rec := range pre {
		if rec.CID <= 0 || rec.Vid <= 0 {
			t.Fatalf("pre-crash record for %s not yet populated: %+v", p, rec)
		}
	}
	addr := w.servers[0].Addr()
	floor := w.maxViewID()
	w.servers[0].Close()

	// Restart on the same address with a fresh handle to the same store.
	store2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := NewServerNode(ServerConfig{
		ID:        "srv0",
		Addr:      addr,
		Servers:   types.NewProcSet("srv0"),
		Store:     store2,
		Watchdog:  25 * time.Millisecond,
		Transport: testTransport(),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.servers[0] = sn // w.close now tears down the restarted instance

	// The WAL replay restored at least the pre-crash identifier state
	// (clients may already be re-attaching, which only raises the values).
	got := sn.Records()
	for p, rec := range pre {
		g, ok := got[p]
		if !ok || g.CID < rec.CID || g.Vid < rec.Vid || g.Epoch < rec.Epoch {
			t.Fatalf("record for %s regressed across restart: pre %+v post %+v", p, rec, g)
		}
	}

	sn.SetPeers(w.directory())
	sn.SetReachable(types.NewProcSet("srv0"))

	w.waitFullView("clients re-attached to the restarted server", floor)
	w.roundOfTraffic("post-restart")

	if err := w.specErr(); err != nil {
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
	w := newAttachWorld(t, 2, 2, attachOptions{watchdog: 20 * time.Millisecond})
	defer w.close()
	w.boot() // static reachability: no heartbeats, so drops cannot churn the detector

	w.waitFullView("all clients attached and in the full view", 0)

	srv0, srv1 := w.servers[0], w.servers[1]
	srv0.Chaos().SetDropProbabilityFor(0.85, srv1.ID())
	srv1.Chaos().SetDropProbabilityFor(0.85, srv0.ID())

	for round := 0; round < 3; round++ {
		floor := w.maxViewID()
		w.servers[round%2].Reconfigure()
		w.waitFullView(fmt.Sprintf("round %d view over the lossy trunk", round), floor)
	}

	srv0.Chaos().Heal()
	srv1.Chaos().Heal()

	if rp := serverCount(srv0, (*membership.Server).Reproposals) + serverCount(srv1, (*membership.Server).Reproposals); rp == 0 {
		t.Fatal("attempts completed over an 85%-lossy trunk without any reproposal — watchdog never fired")
	}
	if err := w.specErr(); err != nil {
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
	w := newAttachWorld(t, 2, 4, attachOptions{})
	defer w.close()
	w.boot()
	w.startHeartbeats(20*time.Millisecond, 150*time.Millisecond)

	w.waitFullView("all clients attached and in the full view", 0)
	w.roundOfTraffic("pre-partition")

	stale, survivor := w.servers[0], w.servers[1]
	floor := w.maxViewID()

	// Symmetric partition: srv0 cut off from its peer and every client.
	rest := []types.ProcID{survivor.ID()}
	for cid := range w.clients {
		rest = append(rest, cid)
	}
	stale.Chaos().BlockOutbound(rest...)
	survivor.Chaos().BlockOutbound(stale.ID())
	for _, node := range w.clients {
		node.Chaos().BlockOutbound(stale.ID())
	}

	w.waitFor("orphans fail over to the survivor", func() bool {
		for _, node := range w.clients {
			if node.Home() != survivor.ID() {
				return false
			}
		}
		return true
	})
	w.waitFullView("survivor reinstalls the full view", floor)
	w.roundOfTraffic("during-partition")

	w.healServers()

	// Post-heal proposal exchange gossips the orphans' new epochs; the stale
	// server must cede them rather than keep claiming ownership.
	w.waitFor("stale server evicts its superseded registrations", func() bool {
		return stale.Clients().Len() == 0
	})
	if ev := serverCount(stale, (*membership.Server).Evictions); ev == 0 {
		t.Fatal("stale server dropped its clients without recording an eviction")
	}

	w.roundOfTraffic("post-heal")
	if err := w.specErr(); err != nil {
		t.Fatalf("spec violation across partition and heal: %v", err)
	}
}

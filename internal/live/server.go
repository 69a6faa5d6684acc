package live

import (
	"sync"
	"time"

	"vsgm/internal/membership"
	"vsgm/internal/obs"
	"vsgm/internal/types"
	"vsgm/internal/wire"
	"vsgm/internal/wire/pool"
)

// ServerConfig parameterizes a live membership server.
type ServerConfig struct {
	// ID is the server's identifier; required.
	ID types.ProcID
	// Addr is the TCP listen address ("127.0.0.1:0" for ephemeral).
	Addr string
	// Servers is the static set of all membership servers (including ID).
	Servers types.ProcSet
	// Store durably backs the per-client identifier state (cid, view id,
	// attach epoch): every mutation is appended to it and its contents are
	// replayed on construction, so a restarted server resumes above
	// everything it issued before the crash. Nil runs without durability.
	// A FileStore keeps the fsync rule it was given (SetSyncEvery).
	Store Store
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// appends. Zero or negative selects the default (64).
	SnapshotEvery int
	// Watchdog is the stall-detection period: an attempt still incomplete a
	// period after the server first saw it stalled gets its proposal re-sent,
	// repairing lost proposal frames. Until StartHeartbeats it is also the
	// period of the server's timer. Zero or negative selects 500ms.
	Watchdog time.Duration
	// Transport tunes the supervised transport (timeouts, backoff, queue
	// bounds); the zero value selects production defaults.
	Transport TransportConfig
	// AttachLease is the server-side failure detector for clients: an
	// in-band registration whose keepalives stop for a full lease is
	// presumed dead and deregistered (a dead member would otherwise stall
	// every future view's sync round forever). A live client that was
	// merely cut off re-attaches on its next keepalive and resumes its
	// identifiers from the retained record. Leases are swept on every tick
	// of the server's timer. Clients registered out of band (AddClient)
	// hold no lease and are never swept. Zero or negative selects the
	// default (membership.DefaultAttachLease, 10s).
	AttachLease time.Duration
	// Obs, when set, is the metrics registry the server publishes into — the
	// only place its numbers are read from: counters labeled with the server
	// id, and a scrape-time collector for the membership core's and the
	// detector's counters and the link counters (one series per peer),
	// frozen on Close.
	Obs *obs.Registry
}

const defaultSnapshotEvery = 64

// ServerNode is one dedicated membership server deployed as a concurrent
// process: the one-round membership algorithm (internal/membership) runs
// over TCP proposals to its peer servers, start_change / view notifications
// flow to its local clients as dedicated frames on the same fabric, and
// clients register themselves in-band through the attach protocol, whose
// lease, ban and complaint policy is the membership server's.
type ServerNode struct {
	id     types.ProcID
	fabric *fabric
	peers  []types.ProcID // the other servers, sorted

	mu    sync.Mutex
	srv   *membership.Server
	ready chan struct{}

	// phiHist distributes the detector's accrual scores, observed for every
	// peer on every heartbeat tick.
	phiHist *obs.Histogram

	store         Store
	snapshotEvery int
	sinceSnapshot int
	walAppends    *obs.Counter
	walSnapshots  *obs.Counter
	walErrors     *obs.Counter

	// What the attach policy (membership.Server.HandleAttach and Tick's
	// lease sweep) did.
	attachesServed    *obs.Counter
	detaches          *obs.Counter
	overloadEvictions *obs.Counter
	leaseEvictions    *obs.Counter

	// obs is the registry the server's collector lives in (nil when
	// unconfigured; the counters still work as unregistered handles).
	obs *obs.Registry

	// The server's one timer goroutine (run): heartbeats hands it the
	// heartbeat interval once StartHeartbeats turned the detector on.
	heartbeats chan time.Duration
	stop       chan struct{}
	wg         sync.WaitGroup

	closeOnce sync.Once
}

// NewServerNode starts a live membership server listening on cfg.Addr. With
// a Store configured, the previously persisted identifier state is replayed
// before the listener serves its first frame.
func NewServerNode(cfg ServerConfig) (*ServerNode, error) {
	serverLabel := obs.L("server", string(cfg.ID))
	n := &ServerNode{
		id:            cfg.ID,
		peers:         cfg.Servers.Minus(types.NewProcSet(cfg.ID)).Sorted(),
		ready:         make(chan struct{}),
		heartbeats:    make(chan time.Duration, 1),
		stop:          make(chan struct{}),
		store:         cfg.Store,
		snapshotEvery: cfg.SnapshotEvery,
		obs:           cfg.Obs,

		phiHist: cfg.Obs.Histogram("vsgm_detector_phi",
			"Accrual suspicion scores observed per peer per heartbeat tick.",
			[]float64{0.25, 0.5, 1, 2, 4, 8, 12, 16, 24, 32}, serverLabel),

		walAppends: cfg.Obs.Counter("vsgm_server_wal_appends_total",
			"Identifier mutations appended to the write-ahead log.", serverLabel),
		walSnapshots: cfg.Obs.Counter("vsgm_server_wal_snapshots_total",
			"WAL compactions into a snapshot.", serverLabel),
		walErrors: cfg.Obs.Counter("vsgm_server_wal_errors_total",
			"Appends and snapshots the store refused; identifiers issued since are not durable.", serverLabel),
		attachesServed: cfg.Obs.Counter("vsgm_server_attaches_served_total",
			"Attach requests acknowledged (registrations and keepalives).", serverLabel),
		detaches: cfg.Obs.Counter("vsgm_server_detaches_total",
			"Client-initiated detaches applied.", serverLabel),
		overloadEvictions: cfg.Obs.Counter("vsgm_server_overload_evictions_total",
			"Clients evicted (and banned) on slow-consumer complaints.", serverLabel),
		leaseEvictions: cfg.Obs.Counter("vsgm_server_lease_evictions_total",
			"Registrations dropped because the client's keepalives stopped for a full attach lease.", serverLabel),
	}
	if n.snapshotEvery <= 0 {
		n.snapshotEvery = defaultSnapshotEvery
	}
	var restored map[types.ProcID]membership.ClientRecord
	if n.store != nil {
		if fs, ok := n.store.(*FileStore); ok {
			fs.RepairReport().Publish(cfg.Obs, serverLabel)
		}
		var err error
		if restored, err = n.store.Load(); err != nil {
			return nil, err
		}
	}
	f, err := newFabric(cfg.ID, cfg.Addr, cfg.Transport, n.receive, n.linkDown)
	if err != nil {
		return nil, err
	}
	n.fabric = f
	// The server sends and notifies with mu held (from within its
	// handlers), so both only enqueue: the fabric encodes each frame
	// immediately and queues the bytes, never blocking on the network.
	srv, err := membership.NewServer(cfg.ID, cfg.Servers, f, f.SendNotify)
	if err != nil {
		close(n.ready)
		f.Close()
		return nil, err
	}
	srv.ServeAttach(cfg.AttachLease, f.SendAttach)
	period := srv.SetWatchdog(cfg.Watchdog)
	if len(restored) > 0 {
		srv.RestoreRecords(restored)
	}
	if n.store != nil {
		srv.SetRecorder(n.onRecord)
	}
	n.mu.Lock()
	n.srv = srv
	n.mu.Unlock()
	close(n.ready)
	n.registerObs()

	n.wg.Add(1)
	go n.run(period)
	return n, nil
}

// onRecord is the membership recorder hook: it appends every identifier
// mutation to the WAL and periodically compacts it into a snapshot. It runs
// with n.mu held (the server invokes it from within its handlers), so the
// snapshot can read the server's state directly. A store that refuses a
// write (a full disk) does not stop the server — the identifier is issued
// and is simply not durable — so each refusal is counted: walErrors moving
// is the only sign that restarts have stopped being safe.
func (n *ServerNode) onRecord(p types.ProcID, rec membership.ClientRecord) {
	if n.store.Append(wire.WALRecord{Client: p, CID: rec.CID, Vid: rec.Vid, Epoch: rec.Epoch}) != nil {
		n.walErrors.Inc()
		return
	}
	n.walAppends.Inc()
	n.sinceSnapshot++
	if n.sinceSnapshot >= n.snapshotEvery {
		if n.store.WriteSnapshot(n.srv.ClientRecords()) != nil {
			n.walErrors.Inc()
			return
		}
		n.walSnapshots.Inc()
		n.sinceSnapshot = 0
	}
}

// registerObs publishes the server's scrape-time collector into the
// registry: the membership core's and the detector's counters, link and pool
// counters. Frozen on Close.
func (n *ServerNode) registerObs() {
	if n.obs == nil {
		return
	}
	serverLabel := obs.L("server", string(n.id))
	n.obs.RegisterCollector("server/"+string(n.id), func() []obs.Sample {
		n.mu.Lock()
		evictions, reproposals := n.srv.Evictions(), n.srv.Reproposals()
		attempts, views := n.srv.AttemptsRun(), n.srv.ViewsDelivered()
		clients, san := n.srv.LocalClients().Len(), n.srv.Sanitized()
		var det membership.DetectorStats
		if d := n.srv.Detector(); d != nil {
			det = d.Stats()
		}
		n.mu.Unlock()
		samples := []obs.Sample{
			{Name: "vsgm_server_clients", Kind: obs.KindGauge, Labels: []obs.Label{serverLabel}, Value: float64(clients)},
			{Name: "vsgm_server_evictions_total", Kind: obs.KindCounter, Labels: []obs.Label{serverLabel}, Value: float64(evictions)},
			{Name: "vsgm_server_reproposals_total", Kind: obs.KindCounter, Labels: []obs.Label{serverLabel}, Value: float64(reproposals)},
			{Name: "vsgm_server_attempts_total", Kind: obs.KindCounter, Labels: []obs.Label{serverLabel}, Value: float64(attempts)},
			{Name: "vsgm_server_views_delivered_total", Kind: obs.KindCounter, Labels: []obs.Label{serverLabel}, Value: float64(views)},
			{Name: "vsgm_detector_suspects_total", Kind: obs.KindCounter, Labels: []obs.Label{serverLabel}, Value: float64(det.Suspects)},
			{Name: "vsgm_detector_flaps_total", Kind: obs.KindCounter, Labels: []obs.Label{serverLabel}, Value: float64(det.Flaps)},
			{Name: "vsgm_detector_quarantines_total", Kind: obs.KindCounter, Labels: []obs.Label{serverLabel}, Value: float64(det.Quarantines)},
			{Name: "vsgm_detector_quarantined", Kind: obs.KindGauge, Labels: []obs.Label{serverLabel}, Value: float64(det.Quarantined)},
			{Name: "vsgm_detector_gray_downgrades_total", Kind: obs.KindCounter, Labels: []obs.Label{serverLabel}, Value: float64(det.GrayDowngrades)},
			{Name: "vsgm_detector_gray_excluded", Kind: obs.KindGauge, Labels: []obs.Label{serverLabel}, Value: float64(det.GrayExcluded)},
			{Name: "vsgm_view_churn_total", Kind: obs.KindCounter, Labels: []obs.Label{serverLabel}, Value: float64(det.VerdictChanges)},
		}
		for _, rs := range []struct {
			rule string
			v    int64
		}{
			{"negative", san.Negative},
			{"wrapped_epoch", san.WrappedEpoch},
			{"cid_ceiling", san.CIDCeiling},
			{"vid_ceiling", san.VidCeiling},
			{"vid_orphan", san.VidOrphan},
			{"epoch_raised", san.EpochRaised},
		} {
			samples = append(samples, obs.Sample{
				Name: "vsgm_sanitize_clamps_total", Kind: obs.KindCounter,
				Labels: []obs.Label{serverLabel, obs.L("rule", rs.rule)}, Value: float64(rs.v),
			})
		}
		samples = append(samples, n.fabric.linkSamples(serverLabel)...)
		return append(samples, poolSamples(serverLabel, n.fabric.PoolStats())...)
	})
	setFabricHelp(n.obs)
	n.obs.SetHelp("vsgm_server_clients", "Local clients currently registered.")
	n.obs.SetHelp("vsgm_server_evictions_total", "Registrations dropped because a peer claimed the client under a higher epoch.")
	n.obs.SetHelp("vsgm_server_reproposals_total", "Watchdog-triggered proposal re-sends.")
	n.obs.SetHelp("vsgm_server_attempts_total", "Membership attempts run.")
	n.obs.SetHelp("vsgm_server_views_delivered_total", "Views assembled and delivered to local clients.")
	n.obs.SetHelp("vsgm_detector_suspects_total", "Failure-detector crossings into suspicion (accrual threshold or external link evidence).")
	n.obs.SetHelp("vsgm_detector_flaps_total", "Suspect-to-restore crossings — the signal flap damping acts on.")
	n.obs.SetHelp("vsgm_detector_quarantines_total", "Rejoin quarantines imposed on flapping peers.")
	n.obs.SetHelp("vsgm_detector_quarantined", "Peer servers currently serving a rejoin quarantine.")
	n.obs.SetHelp("vsgm_detector_gray_downgrades_total", "Peers downgraded on one-way-link (gray-failure) evidence from heartbeat bitmaps.")
	n.obs.SetHelp("vsgm_detector_gray_excluded", "Peer servers currently excluded by bitmap reconciliation.")
	n.obs.SetHelp("vsgm_view_churn_total", "Failure-detector verdict changes — each one triggers a reconfiguration attempt.")
	n.obs.SetHelp("vsgm_sanitize_clamps_total", "Impossible identifier values clamped out of restored state and attach claims, by rule.")
}

// run is the server's one timer. Every period — the watchdog period until
// StartHeartbeats hands it the heartbeat interval, then that interval,
// starting at once so peers learn of this server one dial, not one interval,
// after it starts — it ticks the membership server. Each wait is jittered so
// co-started servers do not tick in lockstep.
func (n *ServerNode) run(period time.Duration) {
	defer n.wg.Done()
	timer := time.NewTimer(jitter(period))
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case period = <-n.heartbeats:
		case <-n.stop:
			return
		}
		n.tick()
		timer.Reset(jitter(period))
	}
}

// tick runs membership.Server.Tick (heartbeat, detector verdict, stall
// watchdog, lease sweep) and counts what it did.
func (n *ServerNode) tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	n.leaseEvictions.Add(int64(n.srv.Tick(now)))
	if d := n.srv.Detector(); d != nil {
		for _, p := range n.peers {
			n.phiHist.Observe(d.Phi(p, now))
		}
	}
}

// Addr returns the server's listen address.
func (n *ServerNode) Addr() string { return n.fabric.Addr() }

// ID returns the server's identifier.
func (n *ServerNode) ID() types.ProcID { return n.id }

// SetPeers installs the address directory (peer servers and local clients).
func (n *ServerNode) SetPeers(peers map[types.ProcID]string) { n.fabric.SetPeers(peers) }

// Chaos returns the server's fault-injection controller.
func (n *ServerNode) Chaos() *Chaos { return n.fabric.Chaos() }

// linkDown hands transport-link failures to the membership server as
// suspicions: a broken or undialable connection to a peer server is
// evidence of unreachability, and feeding it here makes the membership
// react immediately instead of waiting out the heartbeat timeout. The
// detector ignores non-server peers, so client-link churn is harmless.
func (n *ServerNode) linkDown(peer types.ProcID, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srv != nil {
		n.srv.Suspect(peer, time.Now())
	}
}

// AddClient registers a local client; follow with Reconfigure to admit it.
func (n *ServerNode) AddClient(p types.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.srv.AddClient(p)
}

// RemoveClient deregisters a local client.
func (n *ServerNode) RemoveClient(p types.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.srv.RemoveClient(p)
}

// Clients returns the currently registered local clients.
func (n *ServerNode) Clients() types.ProcSet {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv.LocalClients()
}

// Records snapshots the durable per-client identifier state this server
// holds (live registrations plus retained records).
func (n *ServerNode) Records() map[types.ProcID]membership.ClientRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv.ClientRecords()
}

// InjectRecords merges arbitrary per-client identifier records into the
// server's retained state and forces a reconfiguration — a chaos hook for
// arbitrary-state soak testing. The records pass through the same sanitizer
// as a WAL replay, so this exercises exactly the convergence path a server
// resurrected from corrupted storage takes, without a restart.
func (n *ServerNode) InjectRecords(recs map[types.ProcID]membership.ClientRecord) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.srv.RestoreRecords(recs)
	n.srv.Reconfigure()
}

// SetReachable feeds the failure detector: the servers currently reachable.
func (n *ServerNode) SetReachable(set types.ProcSet) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.srv.SetReachable(set)
}

// Reachable reports the servers this node's failure detector currently
// believes reachable.
func (n *ServerNode) Reachable() types.ProcSet {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv.Reachable()
}

// Reconfigure starts a fresh membership attempt.
func (n *ServerNode) Reconfigure() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.srv.Reconfigure()
}

// receive handles an inbound frame: attach-protocol frames from clients,
// heartbeats and proposals from peer servers. fr's payloads may alias body,
// a pooled network buffer released once the synchronous handlers return (the
// server core copies anything it retains).
func (n *ServerNode) receive(from types.ProcID, fr frame, body *pool.Buf) {
	if body != nil {
		defer body.Release()
	}
	<-n.ready
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.srv == nil:
	case fr.Attach != nil:
		// The attach policy is the membership server's; what stays here is
		// counting what it did.
		switch n.srv.HandleAttach(from, *fr.Attach, time.Now()) {
		case membership.OutcomeServed:
			n.attachesServed.Inc()
		case membership.OutcomeDetached:
			n.detaches.Inc()
		case membership.OutcomeEvicted:
			n.overloadEvictions.Inc()
		}
	case fr.Msg != nil:
		n.srv.HandleMessage(from, *fr.Msg, time.Now())
	}
}

// Close shuts the server down, joins its goroutines, and closes its store.
// Idempotent: a kill-path Close followed by a deferred Close must not close
// the fabric or store twice. The registry collector is frozen last, so a
// report after the kill reads the final values without touching the closed
// node.
func (n *ServerNode) Close() {
	n.closeOnce.Do(func() {
		close(n.stop)
		n.wg.Wait()
		n.fabric.Close()
		if n.store != nil {
			n.store.Close()
		}
		n.obs.Detach("server/" + string(n.id))
	})
}

// StartHeartbeats turns on this server's heartbeat failure detector with
// the given timeout: from then on the server's timer ticks at jittered
// intervals of about interval, starting at once, and each tick heartbeats
// the peer servers and feeds the detector's verdict changes straight into
// the membership algorithm. A second call changes nothing. Close stops it.
func (n *ServerNode) StartHeartbeats(interval, timeout time.Duration) {
	n.mu.Lock()
	started := n.srv.StartDetector(timeout, time.Now())
	n.mu.Unlock()
	if started {
		n.heartbeats <- interval // buffered: only the first call sends
	}
}

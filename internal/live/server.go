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
	Store Store
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// appends. 0 selects the default (64); negative disables compaction.
	SnapshotEvery int
	// Watchdog is the stall-detection interval: an attempt still incomplete
	// across two consecutive ticks gets its proposal re-sent, repairing
	// proposal frames lost to faults. 0 selects the default (500ms);
	// negative disables the watchdog.
	Watchdog time.Duration
	// Transport tunes the supervised transport (timeouts, backoff, queue
	// bounds); the zero value selects production defaults.
	Transport TransportConfig
	// SlowBan is how long a client evicted for slow consumption is barred
	// from re-attaching, so a laggard cannot flap the view by immediately
	// re-registering. 0 selects the default (30s); negative disables the
	// ban (suspects are still evicted).
	SlowBan time.Duration
	// AttachLease is the server-side failure detector for clients: an
	// in-band registration whose keepalives stop for a full lease is
	// presumed dead and deregistered (a dead member would otherwise stall
	// every future view's sync round forever). A live client that was
	// merely cut off re-attaches on its next keepalive and resumes its
	// identifiers from the retained record. Leases are swept on the
	// watchdog tick, so a disabled watchdog disables them too. Clients
	// registered out of band (AddClient) hold no lease and are never
	// swept. 0 selects the default (10s); negative disables leases.
	AttachLease time.Duration
	// WALFsyncEvery makes a FileStore fsync its log on every Nth append (1
	// syncs each one), bounding what a machine crash can lose to N-1
	// identifier mutations. 0 (the default) and negative values never sync:
	// appends are OS-buffered, which the protocol tolerates — attach claims
	// re-float any identifier a client actually observed.
	WALFsyncEvery int
	// Detector tunes the heartbeat failure detector StartHeartbeats runs:
	// the accrual window size, the suspect/restore hysteresis thresholds,
	// the flap-damping quarantine base/cap, and the gray grace. The zero
	// value selects the defaults.
	Detector membership.DetectorConfig
	// Obs, when set, is the metrics registry the server publishes into — the
	// only place its numbers are read from: counters labeled with the server
	// id, and a scrape-time collector for the membership core's and the
	// detector's counters and the link counters (one series per peer),
	// frozen on Close.
	Obs *obs.Registry
}

const (
	defaultSnapshotEvery = 64
	defaultWatchdog      = 500 * time.Millisecond
	defaultSlowBan       = 30 * time.Second
	defaultAttachLease   = 10 * time.Second
)

// ServerNode is one dedicated membership server deployed as a concurrent
// process: the one-round membership algorithm (internal/membership) runs
// over TCP proposals to its peer servers, start_change / view notifications
// flow to its local clients as dedicated frames on the same fabric, and
// clients register themselves in-band through the attach protocol.
type ServerNode struct {
	id     types.ProcID
	fabric *fabric

	mu          sync.Mutex
	srv         *membership.Server
	detector    *membership.Detector
	detectorCfg membership.DetectorConfig
	ready       chan struct{}

	// phiHist distributes the detector's accrual scores, observed for every
	// peer on every heartbeat tick.
	phiHist *obs.Histogram

	store         Store
	snapshotEvery int
	sinceSnapshot int
	walAppends    *obs.Counter
	walSnapshots  *obs.Counter
	walErrors     *obs.Counter

	attachesServed *obs.Counter
	detaches       *obs.Counter

	// Slow-consumer policy: the static server set (to route a suspected
	// server into the detector), ban expiries for evicted laggards, and
	// the eviction counter. Guarded by mu.
	servers           types.ProcSet
	slowBan           time.Duration
	banned            map[types.ProcID]time.Time
	overloadEvictions *obs.Counter

	// Attach leases: the last keepalive seen from each in-band client, and
	// the counter for registrations dropped when a lease ran out. Guarded
	// by mu; swept on the watchdog tick.
	attachLease    time.Duration
	leases         map[types.ProcID]time.Time
	leaseEvictions *obs.Counter

	// obs is the registry the server's collector lives in (nil when
	// unconfigured; the counters still work as unregistered handles).
	obs *obs.Registry

	hbStop chan struct{}
	hbWG   sync.WaitGroup

	wdStop chan struct{}
	wdWG   sync.WaitGroup

	closeOnce sync.Once
}

// serverTransport adapts the fabric to membership.ServerTransport.
type serverTransport struct {
	f *fabric
}

func (t serverTransport) Send(dests []types.ProcID, m types.WireMsg) {
	t.f.Send(dests, m)
}

// NewServerNode starts a live membership server listening on cfg.Addr. With
// a Store configured, the previously persisted identifier state is replayed
// before the listener serves its first frame.
func NewServerNode(cfg ServerConfig) (*ServerNode, error) {
	serverLabel := obs.L("server", string(cfg.ID))
	n := &ServerNode{
		id:            cfg.ID,
		ready:         make(chan struct{}),
		store:         cfg.Store,
		snapshotEvery: cfg.SnapshotEvery,
		servers:       cfg.Servers,
		slowBan:       cfg.SlowBan,
		banned:        make(map[types.ProcID]time.Time),
		attachLease:   cfg.AttachLease,
		leases:        make(map[types.ProcID]time.Time),
		obs:           cfg.Obs,
		detectorCfg:   cfg.Detector,

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
	if n.snapshotEvery == 0 {
		n.snapshotEvery = defaultSnapshotEvery
	}
	if n.slowBan == 0 {
		n.slowBan = defaultSlowBan
	}
	if n.attachLease == 0 {
		n.attachLease = defaultAttachLease
	}
	var restored map[types.ProcID]membership.ClientRecord
	if n.store != nil {
		if fs, ok := n.store.(*FileStore); ok {
			fs.SetSyncEvery(cfg.WALFsyncEvery)
			cfg.Obs.PublishWALRepair(fs.RepairReport(), serverLabel)
		}
		var err error
		if restored, err = n.store.Load(); err != nil {
			return nil, err
		}
	}
	f, err := newFabricRef(cfg.ID, cfg.Addr, cfg.Transport, n.receiveRef, n.linkDown)
	if err != nil {
		return nil, err
	}
	n.fabric = f
	srv, err := membership.NewServer(cfg.ID, cfg.Servers, serverTransport{f: f}, n.notify)
	if err != nil {
		close(n.ready)
		f.Close()
		return nil, err
	}
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

	wd := cfg.Watchdog
	if wd == 0 {
		wd = defaultWatchdog
	}
	if wd > 0 {
		n.startWatchdog(wd)
	}
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
	if n.snapshotEvery > 0 && n.sinceSnapshot >= n.snapshotEvery {
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
		var evictions, reproposals, attempts, views int64
		var clients int
		var san membership.SanitizeStats
		if n.srv != nil {
			evictions = n.srv.Evictions()
			reproposals = n.srv.Reproposals()
			attempts = n.srv.AttemptsRun()
			views = n.srv.ViewsDelivered()
			clients = n.srv.LocalClients().Len()
			san = n.srv.Sanitized()
		}
		var det membership.DetectorStats
		if n.detector != nil {
			det = n.detector.Stats()
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

// startWatchdog re-proposes the current attempt whenever it stays stalled
// across two consecutive ticks: a one-round attempt that has not completed
// after a full interval has almost certainly lost a proposal frame, and
// proposals are idempotent, so retrying is always safe. The tick is
// jittered so co-started servers do not retry in lockstep.
func (n *ServerNode) startWatchdog(interval time.Duration) {
	stop := make(chan struct{})
	n.wdStop = stop
	n.wdWG.Add(1)
	go func() {
		defer n.wdWG.Done()
		timer := time.NewTimer(jitter(interval))
		defer timer.Stop()
		lastAttempt := int64(-1)
		for {
			select {
			case <-timer.C:
				n.mu.Lock()
				if n.srv.Stalled() {
					if a := n.srv.CurrentAttempt(); a == lastAttempt {
						n.srv.Repropose()
					} else {
						lastAttempt = a
					}
				} else {
					lastAttempt = -1
				}
				n.mu.Unlock()
				n.sweepLeases(time.Now())
				timer.Reset(jitter(interval))
			case <-stop:
				return
			}
		}
	}()
}

// Addr returns the server's listen address.
func (n *ServerNode) Addr() string { return n.fabric.Addr() }

// ID returns the server's identifier.
func (n *ServerNode) ID() types.ProcID { return n.id }

// SetPeers installs the address directory (peer servers and local clients).
func (n *ServerNode) SetPeers(peers map[types.ProcID]string) { n.fabric.SetPeers(peers) }

// Chaos returns the server's fault-injection controller.
func (n *ServerNode) Chaos() *Chaos { return n.fabric.Chaos() }

// linkDown translates transport-link failures into failure-detector
// suspicions: a broken or undialable connection to a peer server is
// evidence of unreachability, and feeding it here makes the membership
// react immediately instead of waiting out the heartbeat timeout. The
// detector ignores non-server peers, so client-link churn is harmless.
func (n *ServerNode) linkDown(peer types.ProcID, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.detector == nil || n.srv == nil {
		return
	}
	n.detector.Suspect(peer, time.Now())
	if reachable, changed := n.detector.Tick(time.Now()); changed {
		n.srv.SetReachable(reachable)
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
	if n.srv == nil {
		return
	}
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

// DetectorStats snapshots the heartbeat failure detector's counters (all
// zero before StartHeartbeats).
func (n *ServerNode) DetectorStats() membership.DetectorStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.detector == nil {
		return membership.DetectorStats{}
	}
	return n.detector.Stats()
}

// Reconfigure starts a fresh membership attempt.
func (n *ServerNode) Reconfigure() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.srv.Reconfigure()
}

// notify relays a membership notification to a client over the fabric. It
// runs with n.mu held (the server calls it from within its handlers), so it
// must only enqueue — the fabric encodes the frame immediately and queues
// the bytes, never blocking on the network.
func (n *ServerNode) notify(p types.ProcID, notif membership.Notification) {
	n.fabric.SendNotify(p, notif)
}

// receiveRef is the zero-copy receive entry point: fr's payloads may alias
// body, a pooled network buffer released once the synchronous handlers
// return (the server core copies anything it retains).
func (n *ServerNode) receiveRef(from types.ProcID, fr frame, body *pool.Buf) {
	n.receive(from, fr)
	if body != nil {
		body.Release()
	}
}

// receive handles an inbound frame: attach-protocol frames from clients,
// heartbeats and proposals from peer servers.
func (n *ServerNode) receive(from types.ProcID, fr frame) {
	<-n.ready
	if fr.Attach != nil {
		n.handleAttach(from, *fr.Attach)
		return
	}
	if fr.Msg == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if fr.Msg.Kind == types.KindHeartbeat {
		if n.detector != nil {
			n.detector.OnHeartbeatInfo(from, time.Now(), fr.Msg.Reach)
		}
		return
	}
	if n.srv != nil {
		n.srv.HandleMessage(from, *fr.Msg)
	}
}

// sweepLeases deregisters every in-band client whose keepalives stopped a
// full attach lease ago — the server-side failure detector for clients. A
// client can die the instant after its attach request is sent (a flash
// crowd straggler, a crashed process): no peer will ever claim it under a
// higher epoch, so without a lease its registration would keep a dead
// member in every future view, wedging the sync rounds forever. A falsely
// suspected client re-attaches on its next keepalive and resumes its
// identifiers from the retained record.
func (n *ServerNode) sweepLeases(now time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.attachLease <= 0 || n.srv == nil {
		return
	}
	changed := false
	for p, seen := range n.leases {
		if now.Sub(seen) <= n.attachLease {
			continue
		}
		delete(n.leases, p)
		if n.srv.HasClient(p) {
			n.srv.RemoveClient(p)
			n.leaseEvictions.Inc()
			changed = true
		}
	}
	if changed {
		n.srv.Reconfigure()
	}
}

// handleAttach serves the in-band attach protocol. A request registers (or
// keeps alive) the sender under its attach epoch and is always acknowledged
// with the server's recorded identifier state; only a registration this
// call created triggers a reconfiguration, so keepalives are cheap. A
// detach deregisters the sender unless the registration has moved to a
// newer epoch since (a late detach must not evict a fresh attach).
func (n *ServerNode) handleAttach(from types.ProcID, a wire.Attach) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srv == nil {
		return
	}
	switch a.Kind {
	case wire.AttachRequest:
		if until, ok := n.banned[from]; ok {
			if time.Now().Before(until) {
				return // banned laggard: no ack, so it keeps failing over
			}
			delete(n.banned, from)
		}
		rec, added := n.srv.AttachClientClaim(from, a.Epoch,
			membership.ClientRecord{CID: a.CID, Vid: a.Vid})
		n.attachesServed.Inc()
		n.leases[from] = time.Now()
		// The ack must precede any notification from the registration's
		// first attempt on the client's FIFO link, so enqueue it before
		// reconfiguring.
		n.fabric.SendAttach(from, wire.Attach{
			Kind:   wire.AttachAck,
			Client: from,
			Epoch:  rec.Epoch,
			CID:    rec.CID,
			Vid:    rec.Vid,
		})
		if added {
			n.srv.Reconfigure()
		}
	case wire.AttachDetach:
		if rec, ok := n.srv.RecordOf(from); ok && rec.Epoch > a.Epoch {
			return
		}
		if n.srv.HasClient(from) {
			n.srv.RemoveClient(from)
			delete(n.leases, from)
			n.detaches.Inc()
			n.srv.Reconfigure()
		}
	case wire.AttachSuspect:
		n.handleSuspectLocked(a.Client)
	}
}

// handleSuspectLocked applies a slow-consumer complaint: a client holding a
// reporter's credit window exhausted past the grace period is evicted from
// the live view and banned from re-attaching for the cooldown (overload
// degrades membership, it must not flap it); a suspected peer server feeds
// the failure detector instead, the same path a broken trunk link takes.
// Complaints are broadcast to every server, so the laggard's actual home
// acts no matter which link the reporter had; non-homes holding no
// registration just refresh the ban. Callers hold mu.
func (n *ServerNode) handleSuspectLocked(laggard types.ProcID) {
	if laggard == n.id || laggard == "" {
		return
	}
	now := time.Now()
	if n.servers.Contains(laggard) {
		if n.detector != nil {
			n.detector.Suspect(laggard, now)
			if reachable, changed := n.detector.Tick(now); changed {
				n.srv.SetReachable(reachable)
			}
		}
		return
	}
	if n.slowBan > 0 {
		n.banned[laggard] = now.Add(n.slowBan)
	}
	if n.srv.HasClient(laggard) {
		n.srv.RemoveClient(laggard)
		delete(n.leases, laggard)
		n.overloadEvictions.Inc()
		// A best-effort detach tells the laggard its registration is gone,
		// so it starts courting (and being refused by) the next server
		// instead of trusting a home that no longer serves it.
		n.fabric.SendAttach(laggard, wire.Attach{Kind: wire.AttachDetach, Client: laggard})
		n.srv.Reconfigure()
	}
}

// Close shuts the server down, joins its goroutines, and closes its store.
// Idempotent: a kill-path Close followed by a deferred Close must not close
// the fabric or store twice. The registry collector is frozen last, so a
// report after the kill reads the final values without touching the closed
// node.
func (n *ServerNode) Close() {
	n.closeOnce.Do(func() {
		n.mu.Lock()
		if n.hbStop != nil {
			close(n.hbStop)
			n.hbStop = nil
		}
		if n.wdStop != nil {
			close(n.wdStop)
			n.wdStop = nil
		}
		n.mu.Unlock()
		n.hbWG.Wait()
		n.wdWG.Wait()
		n.fabric.Close()
		if n.store != nil {
			n.store.Close()
		}
		n.obs.Detach("server/" + string(n.id))
	})
}

// StartHeartbeats runs a heartbeat failure detector for this server: it
// multicasts a heartbeat to its peer servers — immediately on start, then
// at jittered intervals so co-started servers don't burst in lockstep — and
// re-evaluates suspicions with the given timeout, feeding verdict changes
// straight into the membership algorithm. Stop by closing the server (Close
// joins the ticker goroutine).
func (n *ServerNode) StartHeartbeats(peers types.ProcSet, interval, timeout time.Duration) {
	n.mu.Lock()
	if n.detector == nil {
		n.detector = membership.NewDetectorWith(n.id, peers, timeout, time.Now(), n.detectorCfg)
	}
	if n.hbStop != nil {
		n.mu.Unlock()
		return // already running
	}
	stop := make(chan struct{})
	n.hbStop = stop
	n.mu.Unlock()

	others := peers.Minus(types.NewProcSet(n.id)).Sorted()
	n.hbWG.Add(1)
	go func() {
		defer n.hbWG.Done()
		// Fire immediately: peers learn of this server one dial, not one
		// interval, after it starts.
		timer := time.NewTimer(0)
		defer timer.Stop()
		for {
			select {
			case <-timer.C:
				if len(others) > 0 {
					// Piggyback the hearing set as the reachability bitmap:
					// peers use it to reconcile one-way links. Heartbeat
					// frames coalesce newest-wins per link, so a queued stale
					// bitmap is superseded, never delivered late.
					n.mu.Lock()
					reach := n.detector.Bitmap()
					n.mu.Unlock()
					n.fabric.Send(others, types.WireMsg{Kind: types.KindHeartbeat, Reach: reach})
				}
				n.mu.Lock()
				now := time.Now()
				reachable, changed := n.detector.Tick(now)
				for _, p := range others {
					n.phiHist.Observe(n.detector.Phi(p, now))
				}
				if changed {
					n.srv.SetReachable(reachable)
				}
				n.mu.Unlock()
				timer.Reset(jitter(interval))
			case <-stop:
				return
			}
		}
	}()
}

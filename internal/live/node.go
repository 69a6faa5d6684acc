package live

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/membership"
	"vsgm/internal/obs"
	"vsgm/internal/types"
	"vsgm/internal/wire"
	"vsgm/internal/wire/pool"
)

// ErrOverloaded is TrySend's fast-fail: a destination's credit window is
// exhausted or the memory budget is above its high watermark, so admitting
// the send would have to stall. Blocking Send returns it only when the node
// closes underneath a parked sender.
var ErrOverloaded = errors.New("live: overloaded (credit window or memory budget exhausted)")

// NodeConfig parameterizes a live GCS end-point.
type NodeConfig struct {
	// ID is the process identifier; required.
	ID types.ProcID
	// Addr is the TCP listen address; "127.0.0.1:0" picks an ephemeral
	// port (read it back with Addr).
	Addr string
	// Level selects the automaton layer; defaults to core.LevelGCS.
	Level core.Level
	// Forwarding selects the forwarding strategy; defaults to simple.
	Forwarding core.ForwardingStrategy
	// AutoBlock makes the end-point acknowledge block requests itself.
	AutoBlock bool
	// SmallSync enables the Section 5.2.4 optimization.
	SmallSync bool
	// MsgIDBase offsets diagnostic message identifiers.
	MsgIDBase int64
	// OnEvent receives the end-point's application events, serialized (one
	// at a time, in order). A delivered payload (DeliverEvent.Msg.Payload) is
	// valid until the handler returns — it lies in pooled memory (a large one
	// in the network buffer it arrived in), recycled afterwards; copy what you
	// keep. The same holds for Observe and for the message OnSend sees.
	OnEvent func(core.Event)
	// OnSend observes successful sends synchronously at the send point,
	// before the message reaches the wire — so a send is reported before
	// any event it causes on ANY node, not just this one (cross-node trace
	// collectors rely on that ordering). Unlike OnEvent it runs on the
	// sending goroutine, concurrently with the event stream: observers
	// shared with OnEvent must do their own locking, and the callback must
	// not call back into the Node.
	OnSend func(types.AppMsg)
	// OnNotify observes membership notifications (start_change and view)
	// as they arrive from the node's server, serialized on the same ordered
	// stream as OnEvent — a notification is reported before any event it
	// caused. Spec harnesses feed EMStartChange/EMView from here.
	OnNotify func(membership.Notification)
	// Observe, when set, receives every endpoint event synchronously under
	// the node's state lock, in exact automaton order, at the moment it is
	// produced. Together with OnSend's pre-wire report this gives trace
	// collectors an interleaving consistent with causality across nodes —
	// OnEvent's pump can report an event after a peer has already reacted
	// to its consequences. Observe does not participate in flow control
	// (credit is returned when the pump drains past OnEvent, not here).
	// The callback must be fast and must not call back into the Node.
	Observe func(core.Event)
	// ObserveNotify mirrors Observe for membership notifications: it runs
	// synchronously under the node's state lock, before the notification is
	// handed to the endpoint, so the record precedes any event it causes.
	ObserveNotify func(membership.Notification)
	// HomeServers, when non-empty, enables in-band attachment: the node
	// registers with HomeServers[0] through the attach protocol and fails
	// over down the list (wrapping around) when its home goes silent or its
	// link dies. Notifications from any server other than the current home
	// are ignored, so a stale previous home cannot corrupt the notification
	// stream. Empty keeps the legacy out-of-band mode (ServerNode.AddClient
	// plus notifications accepted from anyone).
	HomeServers []types.ProcID
	// AttachInterval paces the attach manager: attach requests (first
	// registration and keepalives) go out at this jittered period, and the
	// stuck-view probe counts in these ticks. Defaults to 1s.
	AttachInterval time.Duration
	// AttachTimeout is how long the home may stay silent (no attach ack)
	// before the node fails over to the next server in HomeServers.
	// Defaults to 4× AttachInterval.
	AttachTimeout time.Duration
	// Transport tunes the supervised transport (timeouts, backoff, queue
	// bounds); the zero value selects production defaults.
	Transport TransportConfig
	// SlowConsumerGrace is how long a peer may hold an outbound credit
	// window exhausted (with a sender waiting) before the node reports it
	// to its membership servers for eviction — overload degrades to a
	// smaller live view instead of a stalled group. Defaults to 10s;
	// negative disables reporting.
	SlowConsumerGrace time.Duration
	// MemHighWater, when positive, is the node's memory budget in bytes
	// over resident transport queues plus endpoint message buffers: above
	// it Send stalls (TrySend fails) until usage falls to half of it. Zero
	// disables the budget.
	MemHighWater int64
	// Obs, when set, is the metrics registry the node publishes into — the
	// only place its numbers are read from: its counters become registered
	// series labeled with the node id, and a scrape-time collector
	// contributes the attach state, endpoint gauges, and link counters (one
	// series per peer). On Close the collector is frozen in the registry
	// (Detach), so a scrape after shutdown still sees the final values. Nil
	// keeps the counters node-local and unscraped.
	Obs *obs.Registry
	// Tracer, when set, records this end-point's reconfiguration timeline
	// (start_change → sync → view) via a core.ProtocolTrace hook.
	Tracer *obs.Tracer
}

// Node is a GCS end-point deployed as a concurrent process: inbound TCP
// connections feed the automaton one socket read at a time (the node's lock is
// taken once per read, see beginBatch), outbound multicasts are encoded once
// and fanned out through per-peer mailbox goroutines that batch their writes,
// and application events are dispatched serially to the configured callback
// by a pump goroutine that is handed each read's events in one piece.
type Node struct {
	id     types.ProcID
	fabric *fabric

	mu        sync.Mutex
	ep        *core.Endpoint
	unblocked *sync.Cond // signaled whenever endpoint state advances
	closed    bool

	// Flow-control policy and counters.
	slowGrace       time.Duration
	memHigh         int64
	overloaded      atomic.Bool // budget hysteresis latch
	sendsBlocked    *obs.Counter
	sendsOverloaded *obs.Counter
	slowReports     *obs.Counter

	// obs is the registry the node's collector is registered in (nil when
	// unconfigured; the counters above still work as unregistered handles).
	obs *obs.Registry

	// ready gates inbound frames until the endpoint exists: the listener is
	// live before NewNode finishes wiring.
	ready chan struct{}
	// events is the ring between the automaton and the pump goroutine. What
	// the holder of mu produces is staged (in automaton order) and published
	// before mu is released — one put, one pump wake, however many frames or
	// events the lock section covered. batchData counts the data frames the
	// open receive batch has handled; endBatch turns it into the batch's
	// consumed marker.
	events           *mailbox[pumpItem]
	staged           []pumpItem
	batchData        int
	pump             sync.WaitGroup
	pumpWakes        *obs.Counter
	eventsDispatched *obs.Counter

	onEvent    func(core.Event)
	onNotify   func(membership.Notification)
	observe    func(core.Event)
	observeNtf func(membership.Notification)

	// Attach/failover state, guarded by amu (a leaf lock: it may be taken
	// while holding mu, and no code path acquires mu while holding amu).
	amu      sync.Mutex
	homeList []types.ProcID
	homeIdx  int
	home     types.ProcID
	epoch    int64
	lastAck  time.Time
	// lastCID/lastVid are the node's identifier high-water marks: the
	// largest start-change id and view id it has accepted (from
	// notifications or attach acks). They ride every attach request as the
	// claim the server merges, and they floor the stale-notification
	// filter. lastSC is the id of the last start_change notification
	// actually accepted — the value the MBRSHP spec requires the next
	// view's startId entry to equal.
	lastCID       types.StartChangeID
	lastVid       types.ViewID
	lastSC        types.StartChangeID
	attaches      *obs.Counter
	failovers     *obs.Counter
	attachRetries *obs.Counter
	staleNotifies *obs.Counter
	syncProbes    *obs.Counter
	selfClamps    *obs.Counter

	attachInterval time.Duration
	attachTimeout  time.Duration
	mgrStop        chan struct{}
	mgrWG          sync.WaitGroup
	closeOnce      sync.Once
}

// pumpKind tags an entry of the node's event ring.
type pumpKind uint8

const (
	pumpEvent    pumpKind = iota // ev, for OnEvent
	pumpNotify                   // ntf, for OnNotify
	pumpConsumed                 // n data frames from peer are fully consumed: return their credit
)

// pumpItem is one entry of the event ring: a tagged value, not a closure, so
// staging an event allocates nothing and the pump dispatches on a byte. Only
// the fields its kind names are set. hold, on a delivery whose payload lies in
// a pooled buffer (every one that is not empty), is the event's own reference
// to it (core.DeliverEvent.Hold):
// the slot it was delivered from can be collected by an ack round while the
// event still waits in the ring, so the entry keeps the buffer alive until
// OnEvent has returned.
type pumpItem struct {
	kind pumpKind
	n    int32
	ev   core.Event
	hold *pool.Buf
	ntf  *membership.Notification
	peer types.ProcID
}

// ackInterval is the core.Config.AckInterval of every live end-point: a
// stability acknowledgment per this many deliveries, so members collect the
// slots the whole view has acknowledged (Section 5.1's closing remark) and a
// node retains O(ackInterval × members) messages, not everything sent in the
// view. The manager tick flushes the remainder (Endpoint.FlushAck), so a
// group gone quiet drains to empty. It is a constant, not a knob, chosen on
// bench/ (mcast_stream 256 B, mcast_bulk 16 KiB; the sweep over 16, 64, 256
// and 1024 is tabulated in CHANGES.md under PR 24): below 64 the ack frames
// cost a quarter of the small-message rate; above it that rate gains about a
// tenth, but the resident tail grows in proportion — its share of a chunk per
// retained small message, a whole slab per large one, which at 256 is a third
// more peak memory on mcast_bulk and at 1024 outgrows the pool's rings.
const ackInterval = 64

// maxBatchFrames and maxBatchBytes bound the link writer's batches: how many
// queued frames one takeBatch drains (a burst of k <= maxBatchFrames frames
// costs one vectored write instead of k), and the size at which a run of them
// closes and goes out, so a batch of large frames is split over several writes
// and no one write — nor the write deadline armed for it — covers all of it.
// Constants, not knobs: the only code that ever set other values was the pre-batching benchmark foil, and
// every number bench/ gates was measured at these.
const (
	maxBatchFrames = 64
	maxBatchBytes  = 128 << 10
)

// liveTransport adapts the fabric to core.Transport.
type liveTransport struct {
	f *fabric
}

func (t liveTransport) Send(dests []types.ProcID, m types.WireMsg) {
	t.f.Send(dests, m)
}

func (t liveTransport) SetReliable(types.ProcSet) {
	// TCP never drops acknowledged stream data; the reliable-set contract
	// is vacuously met for connected peers, and disconnected peers already
	// lose their suffix when the connection breaks.
}

// NewNode starts a live end-point listening on cfg.Addr.
func NewNode(cfg NodeConfig) (*Node, error) {
	nodeLabel := obs.L("node", string(cfg.ID))
	n := &Node{
		id:             cfg.ID,
		ready:          make(chan struct{}),
		events:         newMailbox[pumpItem](),
		onEvent:        cfg.OnEvent,
		onNotify:       cfg.OnNotify,
		observe:        cfg.Observe,
		observeNtf:     cfg.ObserveNotify,
		homeList:       append([]types.ProcID(nil), cfg.HomeServers...),
		attachInterval: cfg.AttachInterval,
		attachTimeout:  cfg.AttachTimeout,
		mgrStop:        make(chan struct{}),
		slowGrace:      cfg.SlowConsumerGrace,
		memHigh:        cfg.MemHighWater,
		obs:            cfg.Obs,

		attaches: cfg.Obs.Counter("vsgm_node_attaches_total",
			"Completed attachments to a home server (first and after failover).", nodeLabel),
		failovers: cfg.Obs.Counter("vsgm_node_failovers_total",
			"Home-server failovers (silent-home timeouts, broken links, evictions).", nodeLabel),
		attachRetries: cfg.Obs.Counter("vsgm_node_attach_retries_total",
			"Attach requests re-sent while courting an unresponsive server.", nodeLabel),
		staleNotifies: cfg.Obs.Counter("vsgm_node_stale_notifies_total",
			"Membership notifications dropped because they came from a server other than the current home.", nodeLabel),
		syncProbes: cfg.Obs.Counter("vsgm_node_sync_probes_total",
			"Watchdog sync resends fired for a wedged view change.", nodeLabel),
		selfClamps: cfg.Obs.Counter("vsgm_node_self_clamps_total",
			"Attach ticks that clamped impossible local identifier watermarks (client-side self-stabilization).", nodeLabel),
		sendsBlocked: cfg.Obs.Counter("vsgm_node_sends_blocked_total",
			"Sends that stalled on a flow-control gate (credit window, memory budget, or reconfiguration block).", nodeLabel),
		sendsOverloaded: cfg.Obs.Counter("vsgm_node_sends_overloaded_total",
			"Non-blocking sends refused with ErrOverloaded.", nodeLabel),
		slowReports: cfg.Obs.Counter("vsgm_node_slow_reports_total",
			"Slow-consumer complaints filed with the membership servers.", nodeLabel),
		pumpWakes: cfg.Obs.Counter("vsgm_node_pump_wakes_total",
			"Times the event pump woke to a non-empty ring.", nodeLabel),
		eventsDispatched: cfg.Obs.Counter("vsgm_node_events_dispatched_total",
			"Ring entries the event pump handled: events, notifications, credit markers (dispatched/wakes is entries per pump wake).", nodeLabel),
	}
	n.unblocked = sync.NewCond(&n.mu)
	if n.attachInterval <= 0 {
		n.attachInterval = time.Second
	}
	if n.attachTimeout <= 0 {
		n.attachTimeout = 4 * n.attachInterval
	}
	if n.slowGrace == 0 {
		n.slowGrace = 10 * time.Second
	}
	if len(n.homeList) > 0 {
		n.epoch = 1
	}
	f, err := buildFabric(cfg.ID, cfg.Addr, cfg.Transport, n.linkDown)
	if err != nil {
		return nil, err
	}
	f.receiveRef = n.receiveRef
	f.batchBegin, f.batchEnd = n.beginBatch, n.endBatch
	f.start()
	n.fabric = f
	n.pump.Add(1)
	go n.pumpLoop()
	coreCfg := core.Config{
		ID:          cfg.ID,
		Transport:   liveTransport{f: f},
		Level:       cfg.Level,
		Forwarding:  cfg.Forwarding,
		AutoBlock:   cfg.AutoBlock,
		SmallSync:   cfg.SmallSync,
		MsgIDBase:   cfg.MsgIDBase,
		OnSend:      cfg.OnSend,
		AckInterval: ackInterval,
		Pool:        f.pool,
	}
	if cfg.Tracer != nil {
		coreCfg.Trace = cfg.Tracer.ForEndpoint(cfg.ID)
	}
	ep, err := core.NewEndpoint(coreCfg)
	if err != nil {
		close(n.ready) // unblock any early readers; they drop their frames
		f.Close()
		n.events.close()
		n.pump.Wait()
		return nil, err
	}
	n.mu.Lock()
	n.ep = ep
	n.mu.Unlock()
	close(n.ready)
	n.registerObs()
	n.startManager()
	return n, nil
}

// registerObs publishes the node's scrape-time collector into the registry:
// attach state, endpoint gauges, link and pool counters. It runs only at
// scrape time; on Close the registry freezes its final evaluation (Detach),
// which is what lets a late report read a killed node safely.
func (n *Node) registerObs() {
	if n.obs == nil {
		return
	}
	nodeLabel := obs.L("node", string(n.id))
	n.obs.RegisterCollector("node/"+string(n.id), func() []obs.Sample {
		n.amu.Lock()
		home, epoch, lastCID, lastVid := n.home, n.epoch, n.lastCID, n.lastVid
		n.amu.Unlock()
		attached := float64(0)
		if home != "" {
			attached = 1
		}
		// The end-point gauges are read before the pool's: an ack landing
		// between the two reads can only lower what the pool reports out.
		n.mu.Lock()
		var views, delivered, forwards int64
		var bufMsgs int
		var bufBytes int64
		if n.ep != nil {
			views = n.ep.ViewsInstalled()
			delivered = n.ep.MessagesDelivered()
			forwards = n.ep.ForwardsSent()
			bufMsgs = n.ep.BufferedMessages()
			bufBytes = n.ep.BufferedBytes()
		}
		n.mu.Unlock()
		overloaded := float64(0)
		if n.overloaded.Load() {
			overloaded = 1
		}
		samples := []obs.Sample{
			{Name: "vsgm_node_home", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel, obs.L("home", string(home))}, Value: attached},
			{Name: "vsgm_node_epoch", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel}, Value: float64(epoch)},
			{Name: "vsgm_node_last_cid", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel}, Value: float64(lastCID)},
			{Name: "vsgm_node_last_vid", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel}, Value: float64(lastVid)},
			{Name: "vsgm_endpoint_views_installed_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(views)},
			{Name: "vsgm_endpoint_msgs_delivered_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(delivered)},
			{Name: "vsgm_endpoint_forwards_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(forwards)},
			{Name: "vsgm_endpoint_buffered_messages", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel}, Value: float64(bufMsgs)},
			{Name: "vsgm_endpoint_buffered_bytes", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel}, Value: float64(bufBytes)},
			{Name: "vsgm_node_mem_bytes", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel}, Value: float64(bufBytes + n.fabric.QueuedBytes())},
			{Name: "vsgm_node_overloaded", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel}, Value: overloaded},
		}
		samples = append(samples, n.fabric.linkSamples(nodeLabel)...)
		return append(samples, poolSamples(nodeLabel, n.fabric.PoolStats())...)
	})
	setFabricHelp(n.obs)
	n.obs.SetHelp("vsgm_node_home", "1 under the label of the home server the node is attached to; 0, with an empty home, while it is detached or registered out of band.")
	n.obs.SetHelp("vsgm_node_epoch", "Attach epoch; it increments on every failover.")
	n.obs.SetHelp("vsgm_node_last_cid", "Highest start-change identifier the node has accepted.")
	n.obs.SetHelp("vsgm_node_last_vid", "Highest view identifier the node has accepted.")
	n.obs.SetHelp("vsgm_endpoint_views_installed_total", "Views delivered to the application.")
	n.obs.SetHelp("vsgm_endpoint_msgs_delivered_total", "Application messages delivered.")
	n.obs.SetHelp("vsgm_endpoint_forwards_total", "Forwarded message copies sent during reconfigurations.")
	n.obs.SetHelp("vsgm_endpoint_buffered_messages", "Application messages resident in the endpoint's buffers.")
	n.obs.SetHelp("vsgm_endpoint_buffered_bytes", "Bytes the endpoint's message buffers keep resident: a payload's whole pooled buffer when it has one to itself, its length when it is packed into a shared chunk, plus each open chunk's unfilled rest.")
	n.obs.SetHelp("vsgm_node_mem_bytes", "Bytes governed by the memory budget: transport queues plus what the message buffers pin.")
	n.obs.SetHelp("vsgm_node_overloaded", "1 while the memory-budget hysteresis latch is shut.")
}

// startManager runs the node's periodic maintenance loop: attach requests
// and keepalives toward the home server, silent-home failover, and the
// stuck-view sync probe. The loop runs for every node — probing repairs
// lost sync messages regardless of how the node was registered — while the
// attach duties engage only when HomeServers is configured.
func (n *Node) startManager() {
	n.mgrWG.Add(1)
	go func() {
		defer n.mgrWG.Done()
		n.amu.Lock()
		n.lastAck = time.Now() // courting starts now, not at the epoch origin
		n.amu.Unlock()
		// First tick immediately: a node with a home list attaches one dial,
		// not one interval, after it starts.
		timer := time.NewTimer(0)
		defer timer.Stop()
		var (
			stuckCID   types.StartChangeID = -1
			stuckTicks int
		)
		for {
			select {
			case <-timer.C:
				n.attachTick(time.Now())
				stuckCID, stuckTicks = n.probeTick(stuckCID, stuckTicks)
				n.overloadTick(time.Now())
				timer.Reset(jitter(n.attachInterval))
			case <-n.mgrStop:
				return
			}
		}
	}()
}

// attachTick performs one round of attach maintenance: fail over if the
// home has been silent past the timeout, then (re)send an attach request to
// the current target — a keepalive when attached, a registration retry when
// not.
func (n *Node) attachTick(now time.Time) {
	n.amu.Lock()
	if len(n.homeList) == 0 {
		n.amu.Unlock()
		return
	}
	n.sanitizeSelfLocked()
	if now.Sub(n.lastAck) > n.attachTimeout {
		n.failoverLocked(now)
	}
	if n.home == "" && n.attaches.Value() > 0 {
		n.attachRetries.Inc()
	}
	target := n.homeList[n.homeIdx%len(n.homeList)]
	epoch := n.epoch
	cid, vid := n.lastCID, n.lastVid
	n.amu.Unlock()
	// The request carries the node's identifier high-water mark: the server
	// merges it into the registration, so even a home with cold state (a
	// resurrected store, an empty gossip cache) mints identifiers strictly
	// above everything this node has seen.
	n.fabric.SendAttach(target, wire.Attach{Kind: wire.AttachRequest, Client: n.id, Epoch: epoch, CID: cid, Vid: vid})
}

// sanitizeSelfLocked is the client half of self-stabilizing recovery: clamp
// local identifier watermarks no correct execution produces (negative,
// above the plausibility ceilings) back to values the attach protocol can
// re-float from. Without it, a node restored from — or scrambled into —
// arbitrary state would reject every legitimate notification forever: the
// acceptNotify filter only moves forward, and the server sanitizes an
// impossible claim down to zero, so the views it mints would sit below the
// node's poisoned floor. Merely-huge-but-possible watermarks are left
// alone — the claim carries them and the server mints above them, which is
// the ordinary re-float path. Callers hold amu.
func (n *Node) sanitizeSelfLocked() {
	rec, st := membership.SanitizeClaim(membership.ClientRecord{CID: n.lastCID, Vid: n.lastVid, Epoch: n.epoch})
	if st.Total() > 0 {
		n.lastCID, n.lastVid, n.epoch = rec.CID, rec.Vid, rec.Epoch
		n.selfClamps.Inc()
	}
	// lastSC is the id of the last accepted start_change, never above the
	// cid watermark; an impossible value here self-heals on the next accepted
	// start_change, but clamping it now spares one rejected view round.
	if n.lastSC > n.lastCID || n.lastSC < 0 {
		n.lastSC = n.lastCID
		n.selfClamps.Inc()
	}
}

// ScrambleIdentifiers overwrites the node's in-memory identifier watermarks
// (start-change cid, view id, last-accepted start-change) with the given —
// typically adversarially random — values. It is a chaos-testing hook, the
// client-side analogue of ServerNode.InjectRecords: the soak harness uses
// it to prove the attach claim, the notification filter, and the sync probe
// re-converge the node from arbitrary state.
func (n *Node) ScrambleIdentifiers(cid types.StartChangeID, vid types.ViewID, sc types.StartChangeID) {
	n.amu.Lock()
	defer n.amu.Unlock()
	n.lastCID, n.lastVid, n.lastSC = cid, vid, sc
}

// failoverLocked abandons the current target: a best-effort detach is sent
// to it (rescinding only our current epoch, so it cannot evict a future
// re-attach), and courting moves to the next server in the list under a
// fresh epoch. Callers hold amu.
func (n *Node) failoverLocked(now time.Time) {
	old := n.homeList[n.homeIdx%len(n.homeList)]
	oldEpoch := n.epoch
	n.homeIdx++
	n.epoch++
	n.home = ""
	n.lastAck = now
	n.failovers.Inc()
	n.fabric.SendAttach(old, wire.Attach{Kind: wire.AttachDetach, Client: n.id, Epoch: oldEpoch})
}

// probeTick watches for a wedged view change: a start_change that stays
// pending across consecutive ticks means sync messages were lost (either
// ours to a peer or a peer's to us), so resend ours as a probe — receivers
// answer a probe with their own latest sync, repairing both directions.
func (n *Node) probeTick(prevCID types.StartChangeID, prevTicks int) (types.StartChangeID, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sc, ok := n.ep.PendingStartChange()
	if !ok {
		return -1, 0
	}
	if sc.ID != prevCID {
		return sc.ID, 0
	}
	if prevTicks+1 < 2 {
		return prevCID, prevTicks + 1
	}
	if n.ep.ResendSync() {
		n.syncProbes.Inc()
	}
	n.dispatchNow()
	return prevCID, 0
}

// Addr returns the node's listen address (for the peer directory).
func (n *Node) Addr() string { return n.fabric.Addr() }

// ID returns the node's process identifier.
func (n *Node) ID() types.ProcID { return n.id }

// SetPeers installs the address directory (other clients and the
// membership servers).
func (n *Node) SetPeers(peers map[types.ProcID]string) { n.fabric.SetPeers(peers) }

// Chaos returns the node's fault-injection controller.
func (n *Node) Chaos() *Chaos { return n.fabric.Chaos() }

// linkDown handles a transport-link failure: when the failed link is the
// home server's, the node fails over immediately instead of waiting out the
// silent-home timeout — a broken connection is positive evidence, so the next
// manager tick courts the next server in the list.
func (n *Node) linkDown(peer types.ProcID, _ error) {
	n.amu.Lock()
	defer n.amu.Unlock()
	if len(n.homeList) > 0 && peer == n.home && n.home != "" {
		n.failoverLocked(time.Now())
	}
}

// Send multicasts payload to the current view, stalling at the source
// instead of shedding downstream: it waits out an exhausted destination
// credit window, a memory budget above its high watermark, and the
// end-point's blocked phase during reconfiguration (retrying under the new
// view, so Self Delivery is preserved — an admitted send is enqueued in the
// automaton before Send returns). It returns ErrOverloaded only when the
// node closes underneath a parked sender. The node keeps its own copy of
// payload: the caller may reuse the slice as soon as Send returns.
func (n *Node) Send(payload []byte) (types.AppMsg, error) {
	return n.send(payload, true)
}

// TrySend is the non-blocking Send: it fails fast with ErrOverloaded when
// flow control or the memory budget would stall, and with core.ErrBlocked
// while the end-point is reconfiguring.
func (n *Node) TrySend(payload []byte) (types.AppMsg, error) {
	return n.send(payload, false)
}

// send makes the node's one copy of a large payload — into a pooled buffer,
// before any lock is taken — and lets the end-point hold that buffer for as
// long as it retains the message. Large means what it means to a receiver: too
// long to share a staging slab, so it arrives in (and is held as) a buffer of
// its own. A smaller payload the end-point copies into its message buffer's
// pooled chunk as it stores it. Either way the caller's slice is free again on
// return, and it is what the returned message carries: the stored bytes are
// pooled memory the caller holds no reference to, recycled once the message is
// stable.
func (n *Node) send(payload []byte, block bool) (types.AppMsg, error) {
	var hold *pool.Buf
	stored := payload
	if len(payload) >= stagingSlabSize {
		hold = n.fabric.pool.Get(len(payload))
		copy(hold.B(), payload)
		stored = hold.B()
	}
	m, err := n.admit(stored, hold, block)
	if hold != nil {
		hold.Release()
	}
	if err == nil {
		m.Payload = payload
	}
	return m, err
}

// admit takes payload through the three send gates and into the automaton.
// hold, when non-nil, is the pooled buffer payload lies in.
func (n *Node) admit(payload []byte, hold *pool.Buf, block bool) (types.AppMsg, error) {
	waited := false
	stall := func() {
		if !waited {
			waited = true
			n.sendsBlocked.Inc()
		}
	}
	for {
		// Gate 1: the memory budget. Watermark hysteresis: once usage
		// crosses high, senders stall until it falls back to low.
		for {
			gen := n.fabric.flowGeneration()
			if n.budgetOpen() {
				break
			}
			if !block {
				n.sendsOverloaded.Inc()
				return types.AppMsg{}, ErrOverloaded
			}
			stall()
			if !n.fabric.waitFlowChange(gen) {
				return types.AppMsg{}, ErrOverloaded
			}
		}
		// Gate 2: per-destination credit windows for the current view.
		// Checked before taking n.mu — credit arrives through fabric
		// goroutines that never need the endpoint lock, so a parked sender
		// cannot deadlock the node. On a shut window the blocking mode
		// waits one flow change and restarts the loop rather than parking
		// inside admitData: the wait may coincide with a view change (a
		// slow consumer getting evicted is the expected one), and the
		// retry re-resolves the destinations under the new view.
		gen := n.fabric.flowGeneration()
		n.mu.Lock()
		var dests []types.ProcID
		if n.ep != nil {
			dests = n.ep.CurrentOthers()
		}
		n.mu.Unlock()
		if err := n.fabric.admitData(dests, false); err != nil {
			if !block {
				n.sendsOverloaded.Inc()
				return types.AppMsg{}, err
			}
			stall()
			if !n.fabric.waitFlowChange(gen) {
				return types.AppMsg{}, ErrOverloaded
			}
			continue
		}
		// Gate 3: the automaton. ErrBlocked during a view change parks the
		// sender until endpoint state advances, then every gate re-runs
		// against the (possibly new) view.
		n.mu.Lock()
		m, err := n.ep.SendHeld(payload, hold)
		if err == core.ErrBlocked && block && !n.closed {
			stall()
			n.unblocked.Wait()
			n.mu.Unlock()
			continue
		}
		n.dispatchNow()
		n.mu.Unlock()
		return m, err
	}
}

// budgetOpen evaluates the watermark hysteresis: above MemHighWater the
// budget latches shut and reopens only at or below half of it.
func (n *Node) budgetOpen() bool {
	if n.memHigh <= 0 {
		return true
	}
	usage := n.MemUsage()
	if n.overloaded.Load() {
		if usage > n.memHigh/2 {
			return false
		}
		n.overloaded.Store(false)
		return true
	}
	if usage < n.memHigh {
		return true
	}
	n.overloaded.Store(true)
	return false
}

// MemUsage returns the bytes governed by the memory budget: encoded frames
// resident in outbound transport queues plus what the endpoint's message
// buffers pin (core.Endpoint.BufferedBytes) — the whole pooled buffer where a
// payload has one to itself, its length where it is packed into a shared chunk,
// and each buffer's open chunk's unfilled rest.
func (n *Node) MemUsage() int64 {
	n.mu.Lock()
	var buffered int64
	if n.ep != nil {
		buffered = n.ep.BufferedBytes()
	}
	n.mu.Unlock()
	return buffered + n.fabric.QueuedBytes()
}

// overloadTick is the manager's flow-control round: acknowledge whatever was
// delivered since the last stability ack (so peers of a group gone quiet
// still collect their buffers), re-advertise credit grants (healing credit
// frames lost to reconnects or injected faults), wake parked senders (the
// liveness backstop for the flow condvar), and file one complaint per peer
// that has held a window exhausted past the grace period. Complaints go to
// every configured membership server: a client laggard is evicted and banned
// by its home, a server laggard feeds the failure detector.
func (n *Node) overloadTick(now time.Time) {
	n.mu.Lock()
	n.ep.FlushAck()
	n.mu.Unlock()
	n.fabric.regrant()
	n.fabric.flowBroadcast()
	if n.slowGrace <= 0 {
		return
	}
	var targets []types.ProcID
	for _, p := range n.fabric.slowPeers(n.slowGrace, now) {
		n.slowReports.Inc()
		if targets == nil {
			n.amu.Lock()
			targets = append([]types.ProcID(nil), n.homeList...)
			n.amu.Unlock()
		}
		for _, s := range targets {
			if s == p {
				continue
			}
			n.fabric.SendAttach(s, wire.Attach{Kind: wire.AttachSuspect, Client: p})
		}
	}
}

// BlockOK acknowledges an outstanding block request.
func (n *Node) BlockOK() {
	n.mu.Lock()
	n.ep.BlockOK()
	n.dispatchNow()
	n.unblocked.Broadcast()
	n.mu.Unlock()
}

// CurrentView returns the view last delivered to the application.
func (n *Node) CurrentView() types.View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ep.CurrentView()
}

// beginBatch opens the lock section of one drained socket read: the fabric
// calls it before the first frame of the read that reaches receiveRef, and
// endBatch after the last, all on the connection's reader (or event-loop)
// goroutine. One read — not one frame — is the unit that pays for the lock,
// the ring put and the pump wake.
func (n *Node) beginBatch(types.ProcID) {
	<-n.ready
	n.mu.Lock()
}

// endBatch closes the section beginBatch opened: the batch's consumed marker
// is staged behind every event its frames caused, the staged entries are
// published in one piece, and the lock is released.
func (n *Node) endBatch(from types.ProcID) {
	if n.batchData > 0 {
		// The marker rides the serialized event ring behind the events these
		// frames caused, so credit returns to the sender only after the local
		// application has actually processed them — that ordering is what
		// makes the backpressure end to end.
		n.staged = append(n.staged, pumpItem{kind: pumpConsumed, peer: from, n: int32(n.batchData)})
		n.batchData = 0
	}
	n.publish()
	n.unblocked.Broadcast()
	n.mu.Unlock()
}

// receiveRef handles one inbound frame inside an open batch (n.mu held). fr's
// payloads may alias body, a pooled network buffer this method owns a
// reference to. Processing is synchronous, and whatever outlives it has taken
// a reference of its own by the time it ends — the message slot that keeps a
// dedicated buffer instead of copying out of it (msgBuf.set), the delivery
// events staged for the pump — so this reference is dropped as soon as the
// frame is handled. A body shared with other frames is offered to nobody: the
// end-point copies what it retains out of it, into its own pooled chunks.
func (n *Node) receiveRef(from types.ProcID, fr frame, body *pool.Buf) {
	var hold *pool.Buf
	if dedicated(body) {
		hold = body
	}
	n.receive(from, fr, hold)
	if body != nil {
		body.Release()
	}
}

// receive feeds one inbound frame to the end-point and stages what it
// produced; hold is the buffer the frame has to itself, if it has one. Callers
// hold n.mu (amu, a leaf lock, is taken under it).
func (n *Node) receive(from types.ProcID, fr frame, hold *pool.Buf) {
	if fr.Attach != nil {
		n.handleAttach(from, *fr.Attach)
		return
	}
	if fr.Notify != nil && !n.acceptNotify(from, fr.Notify) {
		// In-band attach mode: only the current home server's notifications
		// feed the endpoint. A stale previous home (partitioned, not yet
		// evicted) may still think it serves us; its notifications would
		// violate the per-client monotonicity the home hand-off preserved.
		return
	}
	if n.ep == nil {
		return
	}
	switch {
	case fr.Notify != nil:
		if n.observeNtf != nil {
			n.observeNtf(*fr.Notify)
		}
		if n.onNotify != nil {
			cp := *fr.Notify
			n.staged = append(n.staged, pumpItem{kind: pumpNotify, ntf: &cp})
		}
		switch fr.Notify.Kind {
		case membership.NotifyStartChange:
			n.ep.HandleStartChange(fr.Notify.StartChange)
		case membership.NotifyView:
			n.ep.HandleView(fr.Notify.View)
		}
	case fr.Msg != nil:
		n.ep.HandleMessageHeld(from, *fr.Msg, hold)
		switch fr.Msg.Kind {
		case types.KindApp:
			n.batchData++
		case types.KindAck:
			if n.overloaded.Load() {
				// The ack may have collected enough buffered messages to
				// reopen a latched memory budget.
				n.fabric.flowBroadcast()
			}
		}
	}
	n.dispatch(n.ep.TakeEvents())
}

// acceptNotify decides whether a notification from the given server may
// feed the endpoint, enforcing the client side of the MBRSHP discipline:
// only the current home is heard, start-change identifiers must strictly
// increase, and a view must carry an increasing id whose startId entry for
// this node equals the last accepted start_change. Anything else is the
// residue of a stale attempt — a previous home not yet evicted, or the
// current home's in-flight attempt from before this attachment — and is
// dropped, because the endpoint (and the spec) require a locally monotone
// stream. Accepted notifications advance the watermarks that ride the next
// attach request. Legacy mode (no home list) accepts everything.
func (n *Node) acceptNotify(from types.ProcID, ntf *membership.Notification) bool {
	n.amu.Lock()
	defer n.amu.Unlock()
	if len(n.homeList) == 0 {
		return true
	}
	if from != n.home {
		n.staleNotifies.Inc()
		return false
	}
	switch ntf.Kind {
	case membership.NotifyStartChange:
		if ntf.StartChange.ID <= n.lastCID {
			n.staleNotifies.Inc()
			return false
		}
		n.lastCID = ntf.StartChange.ID
		n.lastSC = ntf.StartChange.ID
	case membership.NotifyView:
		if ntf.View.ID <= n.lastVid || ntf.View.StartID[n.id] != n.lastSC {
			n.staleNotifies.Inc()
			return false
		}
		n.lastVid = ntf.View.ID
	}
	return true
}

// handleAttach processes an attach-protocol frame from a server. An ack
// from the currently courted target completes (or refreshes) the
// attachment; it is handled synchronously on the receive path so that the
// home is set before the notifications that follow it on the same FIFO
// link are filtered. An ack may carry a higher epoch than ours: the server
// remembers an earlier incarnation of this client (Section 8 recovery), and
// adopting its epoch resumes that identity. A detach from the current home
// is an eviction; fail over.
func (n *Node) handleAttach(from types.ProcID, a wire.Attach) {
	n.amu.Lock()
	defer n.amu.Unlock()
	if len(n.homeList) == 0 {
		return
	}
	switch a.Kind {
	case wire.AttachAck:
		if from != n.homeList[n.homeIdx%len(n.homeList)] || a.Epoch < n.epoch {
			return // stale ack from an abandoned target or epoch
		}
		n.epoch = a.Epoch
		if n.home != from {
			n.home = from
			n.attaches.Inc()
		}
		n.lastAck = time.Now()
		// Max-merge, never overwrite: an ack from a home with stale state
		// must not lower the watermarks the notification filter enforces.
		if a.CID > n.lastCID {
			n.lastCID = a.CID
		}
		if a.Vid > n.lastVid {
			n.lastVid = a.Vid
		}
	case wire.AttachDetach:
		if from == n.home && n.home != "" {
			n.failoverLocked(time.Now())
		}
	}
}

// Home returns the server the node is currently attached to ("" while
// detached or in legacy mode).
func (n *Node) Home() types.ProcID {
	n.amu.Lock()
	defer n.amu.Unlock()
	return n.home
}

// dispatch stages events for the pump goroutine (after handing each to the
// synchronous observer). It must be called while holding n.mu so that the
// global event order matches the automaton's; the caller publishes before it
// releases the lock. A delivery's buffer reference travels with its ring entry
// and is dropped here when there is no OnEvent to wait for.
func (n *Node) dispatch(evs []core.Event) {
	for _, ev := range evs {
		if n.observe != nil {
			n.observe(ev)
		}
		var hold *pool.Buf
		switch de := ev.(type) { // not a comma-ok assertion, which copies the event twice
		case core.DeliverEvent:
			hold = de.Hold
		}
		switch {
		case n.onEvent != nil:
			n.staged = append(n.staged, pumpItem{kind: pumpEvent, ev: ev, hold: hold})
		case hold != nil:
			hold.Release()
		}
	}
}

// dispatchNow stages and publishes what the end-point has queued: the form
// for lock sections that handle a single input (a send, a block_ok, a probe).
func (n *Node) dispatchNow() {
	n.dispatch(n.ep.TakeEvents())
	n.publish()
}

// publish hands everything staged under this hold of n.mu to the pump: one
// put, one wake. The staging slice is reused (its entries cleared, so it pins
// no delivered payload). A ring already closed takes nothing, and what was
// staged for it gives its buffers back here.
func (n *Node) publish() {
	if len(n.staged) == 0 {
		return
	}
	if !n.events.putAll(n.staged) {
		for i := range n.staged {
			if h := n.staged[i].hold; h != nil {
				h.Release()
			}
		}
	}
	clear(n.staged)
	n.staged = n.staged[:0]
}

// pumpBatch bounds how many ring entries the pump takes per wake. Credit for
// the markers in a batch goes back when the batch is done, so the bound keeps
// a backlog behind a slow OnEvent from turning into one window-sized credit
// burst (a quarter of the default window refreshes the sender well before it
// runs dry).
const pumpBatch = 256

// pumpLoop is the event pump: it takes what the ring holds, runs the
// callbacks strictly in ring order, and returns credit for the consumed
// markers it passed — one consumedData per run of markers from the same peer,
// after the events queued ahead of them have been processed.
func (n *Node) pumpLoop() {
	defer n.pump.Done()
	var batch []pumpItem
	for {
		var ok bool
		if batch, ok = n.events.takeBatch(batch[:0], pumpBatch); !ok {
			return
		}
		n.pumpWakes.Inc()
		n.eventsDispatched.Add(int64(len(batch)))
		var (
			creditPeer types.ProcID
			credit     int
		)
		for i := range batch {
			switch it := &batch[i]; it.kind {
			case pumpEvent:
				n.onEvent(it.ev)
				if it.hold != nil {
					it.hold.Release()
				}
			case pumpNotify:
				n.onNotify(*it.ntf)
			case pumpConsumed:
				if it.peer != creditPeer && credit > 0 {
					n.fabric.consumedData(creditPeer, credit)
					credit = 0
				}
				creditPeer = it.peer
				credit += int(it.n)
			}
		}
		if credit > 0 {
			n.fabric.consumedData(creditPeer, credit)
		}
		clear(batch)
	}
}

// Close shuts the node down and joins its goroutines. Senders parked on
// any flow-control gate are released (with ErrOverloaded or ErrBlocked)
// before the transport and event pump join; the end-point is then closed, which
// gives back every pooled buffer its message slots still hold (a Send after
// Close fails with core.ErrCrashed). The node's collector is frozen last,
// so post-close scrapes (and the deployment's final report) read the
// shutdown-complete values without touching the node again.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.mgrStop)
		n.mgrWG.Wait()
		n.mu.Lock()
		n.closed = true
		n.unblocked.Broadcast()
		n.mu.Unlock()
		n.fabric.Close()
		n.events.close()
		n.pump.Wait() // the ring's backlog has been handed to OnEvent, and released
		n.mu.Lock()
		n.ep.Close() // every pooled buffer a message slot still holds
		n.mu.Unlock()
		n.obs.Detach("node/" + string(n.id))
	})
}

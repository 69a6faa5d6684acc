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
	// AutoBlock makes the end-point acknowledge block requests itself.
	AutoBlock bool
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
	// smaller live view instead of a stalled group. Zero or negative
	// selects 10s.
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
	observe    func(core.Event)
	observeNtf func(membership.Notification)

	// client is the attach protocol's client half, guarded by mu; nil in
	// out-of-band mode (no HomeServers). The pointer itself never changes.
	client     *membership.Client
	syncProbes *obs.Counter

	attachInterval time.Duration
	mgrStop        chan struct{}
	mgrWG          sync.WaitGroup
	closeOnce      sync.Once
}

// pumpKind tags an entry of the node's event ring.
type pumpKind uint8

const (
	pumpEvent    pumpKind = iota // ev, for OnEvent
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
	peer types.ProcID
}

// ackInterval is the core.Config.AckInterval of every live end-point: a
// stability acknowledgment per this many deliveries, or sooner once they carry
// the end-point's 1 MiB byte trigger, so members collect the slots the whole
// view has acknowledged (Section 5.1's closing remark) and a node retains
// O(ackInterval × members) messages and O(1 MiB × members) of payload, not
// everything sent in the view. The manager tick flushes the remainder
// (Endpoint.FlushAck), so a group gone quiet drains to empty. It is a
// constant, not a knob. The byte trigger sets the cadence of large messages
// (every 64 at 16 KiB) whatever this is, so it only decides how often small
// ones are acknowledged: a member with nothing else to send pays a write per
// ack, and each peer a read and a wake-up. Swept on bench/ with the byte
// trigger on (medians of three 10 s runs, 2-core host, loopback; ops/s, p50,
// peak RSS):
//
//	interval  mcast_stream (256 B)      mcast_bulk (16 KiB)
//	      64  134 k/s  154 µs  15.7 MB  30.8 k/s  208 µs  29.3 MB
//	     256  154 k/s  131 µs  16.1 MB  30.6 k/s  211 µs  28.6 MB
//	     512  151 k/s  130 µs  16.6 MB  30.6 k/s  207 µs  28.8 MB
//	    1024  151 k/s  124 µs  19.2 MB  31.4 k/s  209 µs  28.3 MB
//
// mcast_bulk does not move: it acks every 64 deliveries at every setting.
// 256 and 512 are within run-to-run noise of each other, and 512 sends half
// the ack frames; past it the small-message rate stops rising while the
// resident tail keeps growing with the interval (1024: +16 % peak memory for
// −4 % p50).
const ackInterval = 512

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
		observe:        cfg.Observe,
		observeNtf:     cfg.ObserveNotify,
		attachInterval: cfg.AttachInterval,
		mgrStop:        make(chan struct{}),
		slowGrace:      cfg.SlowConsumerGrace,
		memHigh:        cfg.MemHighWater,
		obs:            cfg.Obs,

		syncProbes: cfg.Obs.Counter("vsgm_node_sync_probes_total",
			"Watchdog sync resends fired for a wedged view change.", nodeLabel),
		sendsBlocked: cfg.Obs.Counter("vsgm_node_sends_blocked_total",
			"Sends that stalled on a flow-control gate (credit window, memory budget, or reconfiguration block).", nodeLabel),
		sendsOverloaded: cfg.Obs.Counter("vsgm_node_sends_overloaded_total",
			"Non-blocking sends refused with ErrOverloaded.", nodeLabel),
		slowReports: cfg.Obs.Counter("vsgm_node_slow_reports_total",
			"Slow-consumer complaints filed with the membership servers.", nodeLabel),
		pumpWakes: cfg.Obs.Counter("vsgm_node_pump_wakes_total",
			"Times the event pump woke to a non-empty ring.", nodeLabel),
		eventsDispatched: cfg.Obs.Counter("vsgm_node_events_dispatched_total",
			"Ring entries the event pump handled: events and credit markers (dispatched/wakes is entries per pump wake).", nodeLabel),
	}
	n.unblocked = sync.NewCond(&n.mu)
	if n.attachInterval <= 0 {
		n.attachInterval = time.Second
	}
	if n.slowGrace <= 0 {
		n.slowGrace = 10 * time.Second
	}
	if len(cfg.HomeServers) > 0 {
		timeout := cfg.AttachTimeout
		if timeout <= 0 {
			timeout = 4 * n.attachInterval
		}
		n.client = membership.NewClient(cfg.ID, cfg.HomeServers, timeout, time.Now(),
			func(to types.ProcID, a membership.Attach) { n.fabric.SendAttach(to, a) })
	}
	f, err := buildFabric(cfg.ID, cfg.Addr, cfg.Transport, n.linkDown)
	if err != nil {
		return nil, err
	}
	f.receive = n.receive
	f.batchBegin, f.batchEnd = n.beginBatch, n.endBatch
	n.fabric = f
	f.start()
	n.pump.Add(1)
	go n.pumpLoop()
	coreCfg := core.Config{
		ID:          cfg.ID,
		Transport:   liveTransport{f: f},
		AutoBlock:   cfg.AutoBlock,
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
		// The end-point gauges are read before the pool's: an ack landing
		// between the two reads can only lower what the pool reports out.
		n.mu.Lock()
		var attach membership.ClientState
		if n.client != nil {
			attach = n.client.State()
		}
		var views, delivered, forwards, acks int64
		var bufMsgs int
		var bufBytes int64
		if n.ep != nil {
			views = n.ep.ViewsInstalled()
			delivered = n.ep.MessagesDelivered()
			forwards = n.ep.ForwardsSent()
			acks = n.ep.AcksSent()
			bufMsgs = n.ep.BufferedMessages()
			bufBytes = n.ep.BufferedBytes()
		}
		n.mu.Unlock()
		attached := float64(0)
		if attach.Home != "" {
			attached = 1
		}
		overloaded := float64(0)
		if n.overloaded.Load() {
			overloaded = 1
		}
		samples := []obs.Sample{
			{Name: "vsgm_node_home", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel, obs.L("home", string(attach.Home))}, Value: attached},
			{Name: "vsgm_node_epoch", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel}, Value: float64(attach.Epoch)},
			{Name: "vsgm_node_last_cid", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel}, Value: float64(attach.CID)},
			{Name: "vsgm_node_last_vid", Kind: obs.KindGauge, Labels: []obs.Label{nodeLabel}, Value: float64(attach.Vid)},
			{Name: "vsgm_node_attaches_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(attach.Attaches)},
			{Name: "vsgm_node_failovers_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(attach.Failovers)},
			{Name: "vsgm_node_attach_retries_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(attach.AttachRetries)},
			{Name: "vsgm_node_stale_notifies_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(attach.StaleNotifies)},
			{Name: "vsgm_node_self_clamps_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(attach.SelfClamps)},
			{Name: "vsgm_endpoint_views_installed_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(views)},
			{Name: "vsgm_endpoint_msgs_delivered_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(delivered)},
			{Name: "vsgm_endpoint_forwards_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(forwards)},
			{Name: "vsgm_endpoint_acks_sent_total", Kind: obs.KindCounter, Labels: []obs.Label{nodeLabel}, Value: float64(acks)},
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
	n.obs.SetHelp("vsgm_node_attaches_total", "Completed attachments to a home server (first and after failover).")
	n.obs.SetHelp("vsgm_node_failovers_total", "Home-server failovers (silent-home timeouts, broken links, evictions).")
	n.obs.SetHelp("vsgm_node_attach_retries_total", "Attach requests re-sent while courting an unresponsive server.")
	n.obs.SetHelp("vsgm_node_stale_notifies_total", "Membership notifications dropped because they came from a server other than the current home.")
	n.obs.SetHelp("vsgm_node_self_clamps_total", "Attach ticks that clamped impossible local identifier watermarks (client-side self-stabilization).")
	n.obs.SetHelp("vsgm_endpoint_views_installed_total", "Views delivered to the application.")
	n.obs.SetHelp("vsgm_endpoint_msgs_delivered_total", "Application messages delivered.")
	n.obs.SetHelp("vsgm_endpoint_forwards_total", "Forwarded message copies sent during reconfigurations.")
	n.obs.SetHelp("vsgm_endpoint_acks_sent_total", "Stability acknowledgments multicast to the view, one per ack round.")
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
				n.withClient(func(c *membership.Client) { c.Tick(time.Now()) })
				stuckCID, stuckTicks = n.probeTick(stuckCID, stuckTicks)
				n.overloadTick(time.Now())
				timer.Reset(jitter(n.attachInterval))
			case <-n.mgrStop:
				return
			}
		}
	}()
}

// withClient runs f on the attach automaton under mu; out of band, where
// there is none, it does nothing.
func (n *Node) withClient(f func(*membership.Client)) {
	if n.client == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	f(n.client)
}

// ScrambleIdentifiers overwrites the node's in-memory identifier watermarks
// (start-change cid, view id, last-accepted start-change) with the given —
// typically adversarially random — values. It is a chaos-testing hook, the
// client-side analogue of ServerNode.InjectRecords: the soak harness uses
// it to prove the attach claim, the notification filter, and the sync probe
// re-converge the node from arbitrary state. An out-of-band node has no
// watermarks to scramble.
func (n *Node) ScrambleIdentifiers(cid types.StartChangeID, vid types.ViewID, sc types.StartChangeID) {
	n.withClient(func(c *membership.Client) { c.Scramble(cid, vid, sc) })
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

// linkDown hands a transport-link failure to the attach automaton, which
// fails over at once when the link is the home's. The fabric calls it from
// its link goroutines, never under mu.
func (n *Node) linkDown(peer types.ProcID, _ error) {
	n.withClient(func(c *membership.Client) { c.LinkDown(peer, time.Now()) })
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
	for _, p := range n.fabric.slowPeers(n.slowGrace, now) {
		n.slowReports.Inc()
		n.withClient(func(c *membership.Client) { c.Complain(p) })
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
// calls it before the first frame of the read that reaches receive, and
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

// receive feeds one inbound frame to the end-point inside an open batch and
// stages what it produced. Callers hold n.mu. fr's payloads may alias body,
// a pooled network buffer this method owns a reference to. Processing is
// synchronous, and whatever outlives it has taken a reference of its own by
// the time it ends — the message slot that keeps a dedicated buffer instead
// of copying out of it (msgBuf.set), the delivery events staged for the pump
// — so this reference is dropped as soon as the frame is handled. A body
// shared with other frames is offered to nobody: the end-point copies what it
// retains out of it, into its own pooled chunks.
func (n *Node) receive(from types.ProcID, fr frame, body *pool.Buf) {
	if body != nil {
		defer body.Release()
	}
	if fr.Attach != nil {
		// Applied here, synchronously on the receive path: an ack sets the
		// home before the notifications behind it on the same FIFO link
		// reach acceptNotify.
		if n.client != nil {
			n.client.HandleAttach(from, *fr.Attach, time.Now())
		}
		return
	}
	if fr.Notify != nil && !n.acceptNotify(from, fr.Notify) {
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
		switch fr.Notify.Kind {
		case membership.NotifyStartChange:
			n.ep.HandleStartChange(fr.Notify.StartChange)
		case membership.NotifyView:
			n.ep.HandleView(fr.Notify.View)
		}
	case fr.Msg != nil:
		hold := body
		if !dedicated(body) {
			hold = nil
		}
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

// acceptNotify is the notification filter: in attach mode only what the
// attach automaton accepts from the current home feeds the end-point (see
// membership.Client.AcceptNotify); out of band, the one trusted stream is
// accepted from anyone. Callers hold n.mu.
func (n *Node) acceptNotify(from types.ProcID, ntf *membership.Notification) bool {
	return n.client == nil || n.client.AcceptNotify(from, ntf)
}

// Home returns the server the node is currently attached to ("" while
// detached or in out-of-band mode).
func (n *Node) Home() (home types.ProcID) {
	n.withClient(func(c *membership.Client) { home = c.State().Home })
	return home
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

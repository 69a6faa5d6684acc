package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vsgm/internal/membership"
	"vsgm/internal/obs"
	"vsgm/internal/types"
	"vsgm/internal/wire"
	"vsgm/internal/wire/pool"
)

// TransportConfig tunes the supervised transport underneath a live node.
// The zero value selects production defaults; tests shrink the timeouts to
// keep fault-injection runs fast.
type TransportConfig struct {
	// DialTimeout bounds one connection attempt; a dead peer can never
	// block connection setup past it. It is also how long an accepted
	// connection has to say hello when ReadIdleTimeout is off. Default 3s.
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write, so a peer that stops draining
	// its socket stalls a sender for at most this long before the link is
	// torn down and redialed. Default 10s.
	WriteTimeout time.Duration
	// ReadIdleTimeout, when positive, severs an inbound connection that has
	// been silent for the duration. Off by default: client links are
	// legitimately idle between multicasts.
	ReadIdleTimeout time.Duration
	// BackoffBase is the first reconnection delay; each failed attempt
	// doubles it (with jitter) up to BackoffMax. Defaults 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Window is the per-link credit window: how many application data
	// frames may be outstanding (sent but not yet consumed by the peer's
	// application) before Node.Send stalls. It is the only bound on a
	// link's backlog: no queued data frame is ever dropped to make room.
	// Control-plane frames are never gated. Default 1024; negative starts
	// links with zero credit, so every data send waits for an explicit
	// grant (used by tests).
	Window int
}

func (c TransportConfig) withDefaults() TransportConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 3 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.Window == 0 {
		c.Window = 1024
	}
	return c
}

// mailbox is an unbounded FIFO queue: outbound sends and application events
// enqueue here so the automaton's step loop never blocks on a slow consumer,
// and a single goroutine drains in order, in coalesced batches (takeBatch).
// Nothing bounds it here: the credit window bounds a link's data backlog
// upstream (Node.admit) and, because credit returns only as the event pump
// drains, the data events in a node's event ring too. onDrop, when set,
// observes every entry the mailbox discards — superseded heartbeats and
// anything still queued at close — so pooled entries can be released; such
// a mailbox drops its backlog at close instead of handing it out.
//
// classOf, when set, makes a newly queued heartbeat supersede an already
// queued one (coalesced, not a drop: the newest always flows).
type mailbox[T any] struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queue     []T // live entries are queue[head:]; the prefix is zeroed slack
	head      int
	onDrop    func(T)
	classOf   func(T) wire.FrameClass
	coalesced int64
	closed    bool
}

// compact reclaims the consumed prefix so the backing array is reused
// instead of reallocated: a full reset when the queue drains, a copy-down
// when an append would otherwise grow the array past dead slack.
func (m *mailbox[T]) compact() {
	if m.head == len(m.queue) {
		m.queue = m.queue[:0]
		m.head = 0
		return
	}
	if m.head > 0 && len(m.queue) == cap(m.queue) {
		n := copy(m.queue, m.queue[m.head:])
		var zero T
		for i := n; i < len(m.queue); i++ {
			m.queue[i] = zero
		}
		m.queue = m.queue[:n]
		m.head = 0
	}
}

func newMailbox[T any]() *mailbox[T] {
	m := &mailbox[T]{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put enqueues v; it reports false if the mailbox is closed (the caller
// keeps ownership of v).
func (m *mailbox[T]) put(v T) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	if m.classOf != nil && m.classOf(v) == wire.ClassHeartbeat {
		if i := m.findClass(wire.ClassHeartbeat); i >= 0 {
			m.coalesced++
			m.removeAt(i)
		}
	}
	m.compact()
	m.queue = append(m.queue, v)
	m.cond.Signal()
	m.mu.Unlock()
	return true
}

// putAll enqueues vs in order under one lock round trip and one wake, so a
// producer's batch reaches the consumer as a batch. It serves unclassified
// mailboxes (the node's event ring: no heartbeat to coalesce) and reports
// false, enqueueing nothing, once the mailbox is closed.
func (m *mailbox[T]) putAll(vs []T) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.compact()
	m.queue = append(m.queue, vs...)
	m.cond.Signal()
	return true
}

// findClass returns the index of the oldest queued entry of class c, or -1.
func (m *mailbox[T]) findClass(c wire.FrameClass) int {
	for i := m.head; i < len(m.queue); i++ {
		if m.classOf(m.queue[i]) == c {
			return i
		}
	}
	return -1
}

// removeAt discards queue[i] (head <= i < len): onDrop observes the entry,
// and later entries shift down so FIFO order is preserved.
func (m *mailbox[T]) removeAt(i int) {
	v := m.queue[i]
	var zero T
	if i == m.head {
		m.queue[m.head] = zero
		m.head++
	} else {
		copy(m.queue[i:], m.queue[i+1:])
		m.queue[len(m.queue)-1] = zero
		m.queue = m.queue[:len(m.queue)-1]
	}
	if m.onDrop != nil {
		m.onDrop(v)
	}
}

// takeBatch blocks until at least one entry is available (or the mailbox
// closes empty), then drains up to max entries into dst in FIFO order. One
// takeBatch per burst is what turns k queued frames into a single flush.
func (m *mailbox[T]) takeBatch(dst []T, max int) ([]T, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == len(m.queue) && !m.closed {
		m.cond.Wait()
	}
	n := len(m.queue) - m.head
	if n == 0 {
		return dst, false
	}
	if max > 0 && n > max {
		n = max
	}
	dst = append(dst, m.queue[m.head:m.head+n]...)
	var zero T
	for i := 0; i < n; i++ {
		m.queue[m.head+i] = zero
	}
	m.head += n
	m.compact()
	return dst, true
}

func (m *mailbox[T]) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	if m.onDrop != nil {
		for i := m.head; i < len(m.queue); i++ {
			m.onDrop(m.queue[i])
			var zero T
			m.queue[i] = zero
		}
		m.queue = nil
		m.head = 0
	}
	m.cond.Broadcast()
}

func (m *mailbox[T]) coalescedCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.coalesced
}

// link is the supervised state for one destination: its outbound queue of
// pre-encoded frames, counters, and both directions of credit bookkeeping.
// The writer goroutine starts on first use and owns the
// dial/backoff/reconnect cycle.
type link struct {
	peer    types.ProcID
	mb      *mailbox[*wire.FrameBuf]
	started bool

	// Counters, scraped through linkSeries (which says what each counts).
	// Atomics: the writer, the inbound reader and senders bump them without
	// the link lock.
	dials, dialFailures, reconnects, retries      atomic.Int64
	framesSent, flushes, writeErrors              atomic.Int64
	chaosDrops, chaosDups                         atomic.Int64
	creditsGranted, creditFrames, windowExhausted atomic.Int64
	reads, framesIn                               atomic.Int64

	mu        sync.Mutex
	connected bool // ever connected (distinguishes connects from reconnects)

	// Outbound credit (sender role): used counts data frames charged
	// toward the peer, refunded when one is discarded before the socket;
	// granted is the peer's cumulative permission. used >= granted means
	// the window is shut and data sends must wait.
	used    int64
	granted int64
	// Inbound credit (receiver role): consumed counts the peer's data
	// frames fully consumed by the local application; grantedOut is the
	// cumulative grant advertised back, advanced in half-window refreshes.
	consumed   int64
	grantedOut int64
	// exhaustedSince stamps the start of the current exhaustion episode
	// (zero while the window is open); reported latches the one
	// slow-consumer complaint filed per episode.
	exhaustedSince time.Time
	reported       bool
}

// linkSeries is every counter a link reports: the metric it is scraped as,
// one series per (owner, peer) (see fabric.linkSamples), its help text, and
// how to read it off the link.
var linkSeries = []struct {
	name, help string
	read       func(*link) int64
}{
	{"vsgm_link_dials_total", "Connection attempts.",
		func(l *link) int64 { return l.dials.Load() }},
	{"vsgm_link_dial_failures_total", "Connection attempts that errored.",
		func(l *link) int64 { return l.dialFailures.Load() }},
	{"vsgm_link_reconnects_total", "Successful connections after the first.",
		func(l *link) int64 { return l.reconnects.Load() }},
	{"vsgm_link_retries_total", "Backoff sleeps taken while the link was down.",
		func(l *link) int64 { return l.retries.Load() }},
	{"vsgm_link_frames_sent_total", "Frames written to the socket.",
		func(l *link) int64 { return l.framesSent.Load() }},
	{"vsgm_link_flushes_total", "Socket flushes: one vectored write per run of queued frames (a run closes once it holds 128 KiB), so it stays well below frames sent under bursts; equals write syscalls on a link with no write-shaping fault.",
		func(l *link) int64 { return l.flushes.Load() }},
	{"vsgm_link_write_errors_total", "Frame writes that failed; each tears the connection down for a supervised redial.",
		func(l *link) int64 { return l.writeErrors.Load() }},
	{"vsgm_link_chaos_drops_total", "Frames dropped by the chaos controller, one-way partition blocks included.",
		func(l *link) int64 { return l.chaosDrops.Load() }},
	{"vsgm_link_chaos_dups_total", "Frames duplicated by the chaos controller.",
		func(l *link) int64 { return l.chaosDups.Load() }},
	{"vsgm_link_credits_consumed_total", "Outbound credit consumed: data frames charged against the peer's grant, net of refunds for frames that never reached the socket.",
		func(l *link) int64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return l.used
		}},
	{"vsgm_link_credits_granted_total", "Credit granted to the peer beyond its initial window as the local application consumed its frames.",
		func(l *link) int64 { return l.creditsGranted.Load() }},
	{"vsgm_link_credit_frames_total", "Standalone credit frames sent to the peer, keepalive re-grants included.",
		func(l *link) int64 { return l.creditFrames.Load() }},
	{"vsgm_link_window_exhausted_total", "Exhaustion episodes: the outbound credit window shut with a sender waiting.",
		func(l *link) int64 { return l.windowExhausted.Load() }},
	{"vsgm_link_heartbeats_coalesced_total", "Queued heartbeats superseded by a newer one before reaching the wire (not drops: the newest always flows).",
		func(l *link) int64 { return l.mb.coalescedCount() }},
	{"vsgm_link_reads_total", "Socket reads that brought bytes from the peer: the receive path's unit of work.",
		func(l *link) int64 { return l.reads.Load() }},
	{"vsgm_link_frames_received_total", "Frames decoded out of those reads; frames_received/reads is frames per read.",
		func(l *link) int64 { return l.framesIn.Load() }},
}

// windowOpen reports whether one more data frame fits the peer's window,
// stamping the start of an exhaustion episode (for the slow-consumer grace
// clock) when it does not — the only branch that reads the clock.
func (l *link) windowOpen() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.used < l.granted {
		return true
	}
	if l.exhaustedSince.IsZero() {
		l.exhaustedSince = time.Now()
		l.reported = false
		l.windowExhausted.Add(1)
	}
	return false
}

// chargeData consumes one unit of outbound credit.
func (l *link) chargeData() {
	l.mu.Lock()
	l.used++
	l.mu.Unlock()
}

// fabric owns a process's listener, its supervised outbound links (one per
// destination, dialed lazily with timeout/backoff/reconnect), and the
// inbound reader goroutines. Incoming frames are handed to the receive
// callback in per-connection order. Link failures are reported through
// onDown so the layer above can translate them into detector suspicions.
type fabric struct {
	id  types.ProcID
	cfg TransportConfig
	ln  net.Listener
	// receive is the delivery callback: the frame's payload aliases body
	// (nil when the frame owns its memory) and the callee must Release body
	// when the payload is out of use. The frame's pointers are scratch, valid
	// for the call only.
	receive func(from types.ProcID, f frame, body *pool.Buf)
	// batchBegin/batchEnd (optional, set before start) bracket the receive
	// callbacks of one drained socket read — all from one peer, on one
	// goroutine — so the consumer can take its lock once and publish what
	// the frames produced once, instead of per frame. batchBegin runs before
	// the first frame that reaches the consumer (a read of only credit or
	// chaos-dropped frames opens no batch), batchEnd after the last.
	batchBegin, batchEnd func(from types.ProcID)
	onDown               func(peer types.ProcID, err error)
	chaos                *Chaos
	// pool feeds the receive path's slab buffers; its outstanding count is
	// the transport's buffer-leak detector.
	pool *pool.Pool

	mu     sync.Mutex
	peers  map[types.ProcID]string
	links  map[types.ProcID]*link
	closed bool

	// flowMu/flowCond park data senders waiting out a shut credit window;
	// flowGen rises on every event that could reopen one (credit arrival,
	// consumption, refund, tick), so a waiter that sampled the generation
	// before checking cannot miss its wakeup.
	flowMu   sync.Mutex
	flowCond *sync.Cond
	flowGen  uint64

	wg      sync.WaitGroup
	closing chan struct{}
	once    sync.Once
}

// newFabric starts listening on addr (use "127.0.0.1:0" for an ephemeral
// port) and begins accepting inbound connections; receive gets every inbound
// frame (see fabric.receive). onDown (optional) is invoked from transport
// goroutines whenever an established link breaks or a dial fails; it must
// not block.
func newFabric(id types.ProcID, addr string, cfg TransportConfig,
	receive func(types.ProcID, frame, *pool.Buf), onDown func(types.ProcID, error)) (*fabric, error) {
	f, err := buildFabric(id, addr, cfg, onDown)
	if err != nil {
		return nil, err
	}
	f.receive = receive
	f.start()
	return f, nil
}

func buildFabric(id types.ProcID, addr string, cfg TransportConfig,
	onDown func(types.ProcID, error)) (*fabric, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", addr, err)
	}
	f := &fabric{
		id:      id,
		cfg:     cfg.withDefaults(),
		ln:      ln,
		onDown:  onDown,
		chaos:   newChaos(),
		pool:    pool.New(),
		peers:   make(map[types.ProcID]string),
		links:   make(map[types.ProcID]*link),
		closing: make(chan struct{}),
	}
	f.flowCond = sync.NewCond(&f.flowMu)
	return f, nil
}

func (f *fabric) start() {
	f.wg.Add(1)
	go f.acceptLoop()
}

// PoolStats snapshots the receive-slab pool counters.
func (f *fabric) PoolStats() pool.Stats { return f.pool.Stats() }

// Addr returns the fabric's listen address.
func (f *fabric) Addr() string { return f.ln.Addr().String() }

// Chaos returns the fabric's fault-injection controller.
func (f *fabric) Chaos() *Chaos { return f.chaos }

// SetPeers installs (or extends) the address directory. A link whose peer
// address arrives late is picked up on its next reconnection attempt.
func (f *fabric) SetPeers(peers map[types.ProcID]string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for p, addr := range peers {
		f.peers[p] = addr
	}
}

func (f *fabric) addrOf(q types.ProcID) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peers[q]
}

// linkList snapshots the fabric's links.
func (f *fabric) linkList() []*link {
	f.mu.Lock()
	defer f.mu.Unlock()
	links := make([]*link, 0, len(f.links))
	for _, l := range f.links {
		links = append(links, l)
	}
	return links
}

// setFabricHelp registers the help text of the series a fabric owner's
// collector emits for its links and its pool.
func setFabricHelp(reg *obs.Registry) {
	for _, s := range linkSeries {
		reg.SetHelp(s.name, s.help)
	}
	reg.SetHelp("vsgm_pool_gets_total", "Buffer requests served by the transport slab pool.")
	reg.SetHelp("vsgm_pool_hits_total", "Pool requests satisfied from a free ring (hits/gets is the recycle ratio).")
	reg.SetHelp("vsgm_pool_misses_total", "Pool requests that had to allocate fresh slabs.")
	reg.SetHelp("vsgm_pool_outstanding", "Pooled buffers currently on loan: read windows, and the buffers and chunks retained messages lie in until stable; zero after Close.")
}

// linkSamples reads every link's counters for the owner's collector: one
// series per linkSeries entry and peer, labeled with owner and the peer.
func (f *fabric) linkSamples(owner obs.Label) []obs.Sample {
	links := f.linkList()
	out := make([]obs.Sample, 0, len(links)*len(linkSeries))
	for _, l := range links {
		labels := []obs.Label{owner, obs.L("peer", string(l.peer))}
		for _, s := range linkSeries {
			out = append(out, obs.Sample{Name: s.name, Kind: obs.KindCounter, Labels: labels, Value: float64(s.read(l))})
		}
	}
	return out
}

// poolSamples exposes the receive-slab pool's health: hit ratio is
// hits/gets; outstanding counts buffers currently on loan — read windows, and
// large messages held until the view has acknowledged them — which is zero
// after Close; growth without traffic is a leak.
func poolSamples(owner obs.Label, ps pool.Stats) []obs.Sample {
	c := func(name string, kind obs.MetricKind, v int64) obs.Sample {
		return obs.Sample{Name: name, Kind: kind, Labels: []obs.Label{owner}, Value: float64(v)}
	}
	return []obs.Sample{
		c("vsgm_pool_gets_total", obs.KindCounter, ps.Gets),
		c("vsgm_pool_hits_total", obs.KindCounter, ps.Hits),
		c("vsgm_pool_misses_total", obs.KindCounter, ps.Misses),
		c("vsgm_pool_outstanding", obs.KindGauge, ps.Outstanding),
	}
}

// windowSize is the effective initial credit window (negative config means
// zero: grant-only links).
func (f *fabric) windowSize() int64 {
	if f.cfg.Window < 0 {
		return 0
	}
	return int64(f.cfg.Window)
}

// flowBroadcast advances the flow generation and wakes every parked sender.
func (f *fabric) flowBroadcast() {
	f.flowMu.Lock()
	f.flowGen++
	f.flowCond.Broadcast()
	f.flowMu.Unlock()
}

func (f *fabric) flowGeneration() uint64 {
	f.flowMu.Lock()
	defer f.flowMu.Unlock()
	return f.flowGen
}

// waitFlowChange parks until the flow generation moves past gen (credit
// arrived or was refunded, a tick fired) or the fabric closes; it reports
// false when closing.
func (f *fabric) waitFlowChange(gen uint64) bool {
	f.flowMu.Lock()
	defer f.flowMu.Unlock()
	for f.flowGen == gen && !f.isClosing() {
		f.flowCond.Wait()
	}
	return !f.isClosing()
}

// admitData gates one application data frame toward dests: nil once every
// destination's credit window has room, ErrOverloaded immediately when
// block is false and a window is shut (or, blocking, when the fabric closes
// under the waiter). Admission does not reserve the slot — accounting
// happens at enqueue — so concurrent senders can overshoot a window by at
// most the number of in-flight Send calls.
func (f *fabric) admitData(dests []types.ProcID, block bool) error {
	for {
		gen := f.flowGeneration()
		open := true
		for _, q := range dests {
			if q == f.id {
				continue
			}
			if !f.linkFor(q).windowOpen() {
				open = false
				break
			}
		}
		if open {
			return nil
		}
		if !block {
			return ErrOverloaded
		}
		if !f.waitFlowChange(gen) {
			return ErrOverloaded
		}
	}
}

// handleCredit applies a peer's cumulative grant to the outbound window.
// Grants are monotone, so duplicated, reordered, or keepalive re-grants are
// no-ops.
func (f *fabric) handleCredit(from types.ProcID, grant int64) {
	l := f.linkFor(from)
	l.mu.Lock()
	if grant > l.granted {
		l.granted = grant
		if l.used < l.granted {
			l.exhaustedSince = time.Time{}
			l.reported = false
		}
	}
	l.mu.Unlock()
	f.flowBroadcast()
}

// consumedData records that the local application fully consumed n data
// frames from peer. When the peer's remaining credit falls below half the
// window, the grant front advances to consumed+window and is shipped as a
// standalone (idempotent) credit frame — so a steady consumer costs one
// credit frame per window/2 data frames, however its consumption is batched.
func (f *fabric) consumedData(peer types.ProcID, n int) {
	l := f.linkFor(peer)
	w := f.windowSize()
	var grant int64
	l.mu.Lock()
	l.consumed += int64(n)
	if w > 0 && l.grantedOut-l.consumed < (w+1)/2 {
		if g := l.consumed + w; g > l.grantedOut {
			l.creditsGranted.Add(g - l.grantedOut)
			l.grantedOut = g
			grant = g
		}
	}
	l.mu.Unlock()
	if grant > 0 {
		f.sendCredit(peer, grant)
	}
	f.flowBroadcast()
}

// sendCredit ships a cumulative grant to peer. Credit frames are
// control-plane: never shed, never gated, coalesced onto whatever flush the
// link writer has pending.
func (f *fabric) sendCredit(peer types.ProcID, grant int64) {
	fb, err := wire.EncodeFrame(frame{Credit: &wire.Credit{Grant: uint64(grant)}})
	if err != nil {
		return
	}
	f.linkFor(peer).creditFrames.Add(1)
	f.fanOut(fb, []types.ProcID{peer})
}

// refundData returns one unit of outbound credit for a data frame that
// will never reach the peer's socket (chaos drop, closed mailbox), so
// injected loss and a closed link cannot leak the window shut forever.
func (f *fabric) refundData(l *link) {
	l.mu.Lock()
	l.used--
	if l.used < l.granted {
		l.exhaustedSince = time.Time{}
	}
	l.mu.Unlock()
	f.flowBroadcast()
}

// regrant re-advertises the current cumulative grant on every link that has
// carried inbound data. Grants are idempotent, so this periodic keepalive
// cheaply repairs credit frames lost to reconnects or injected faults.
func (f *fabric) regrant() {
	for _, l := range f.linkList() {
		var grant int64
		l.mu.Lock()
		if l.consumed > 0 {
			grant = l.grantedOut
		}
		l.mu.Unlock()
		if grant > 0 {
			f.sendCredit(l.peer, grant)
		}
	}
}

// slowPeers returns peers whose credit window has been exhausted for at
// least grace with a sender still waiting, marking each so one exhaustion
// episode yields exactly one complaint.
func (f *fabric) slowPeers(grace time.Duration, now time.Time) []types.ProcID {
	var out []types.ProcID
	for _, l := range f.linkList() {
		l.mu.Lock()
		if !l.reported && !l.exhaustedSince.IsZero() && l.used >= l.granted &&
			now.Sub(l.exhaustedSince) >= grace {
			l.reported = true
			out = append(out, l.peer)
		}
		l.mu.Unlock()
	}
	return out
}

// Send enqueues m toward each destination. The frame is marshaled exactly
// once — every destination queue holds a reference to the same pooled
// encoding, so fan-out costs one marshal instead of len(dests). Delivery is
// supervised per link: unknown or unreachable destinations retry with
// backoff in the background while the queue holds the backlog — a dead peer
// can never wedge the caller, and the credit window, not the queue, bounds
// how much data waits for it. A frame that cannot be encoded (or exceeds the
// wire bound) is dropped here, before any queue, rather than left to wedge a
// writer forever.
func (f *fabric) Send(dests []types.ProcID, m types.WireMsg) {
	if len(dests) == 0 {
		return
	}
	fb, err := wire.EncodeFrame(frame{Msg: &m})
	if err != nil {
		return
	}
	f.fanOut(fb, dests)
}

// SendNotify enqueues a membership notification toward one client.
func (f *fabric) SendNotify(dest types.ProcID, n membership.Notification) {
	fb, err := wire.EncodeFrame(frame{Notify: &n})
	if err != nil {
		return
	}
	f.fanOut(fb, []types.ProcID{dest})
}

// SendAttach enqueues an attach-protocol frame toward one peer.
func (f *fabric) SendAttach(dest types.ProcID, a membership.Attach) {
	fb, err := wire.EncodeFrame(frame{Attach: &a})
	if err != nil {
		return
	}
	f.fanOut(fb, []types.ProcID{dest})
}

// fanOut shares one encoded frame across every destination's queue. The
// extra references are taken before the first put so a fast writer draining
// one queue cannot recycle the buffer while it is still being enqueued
// elsewhere. Data frames are charged against each destination's credit
// window here (and refunded wherever a copy dies before the socket).
func (f *fabric) fanOut(fb *wire.FrameBuf, dests []types.ProcID) {
	fb.Retain(int32(len(dests) - 1))
	data := fb.Class() == wire.ClassData
	for _, q := range dests {
		l := f.outbox(q)
		if data {
			l.chargeData()
		}
		if !l.mb.put(fb) {
			if data {
				f.refundData(l)
			}
			fb.Release() // mailbox closed; this destination's reference
		}
	}
}

// linkFor returns (creating if needed) the link record for q without
// starting its writer — inbound chaos accounting needs counter-only access.
func (f *fabric) linkFor(q types.ProcID) *link {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.linkLocked(q)
}

func (f *fabric) linkLocked(q types.ProcID) *link {
	if l, ok := f.links[q]; ok {
		return l
	}
	l := &link{peer: q}
	w := f.windowSize()
	l.granted, l.grantedOut = w, w
	l.mb = newMailbox[*wire.FrameBuf]()
	l.mb.onDrop = func(fb *wire.FrameBuf) {
		if fb.Class() == wire.ClassData {
			f.refundData(l)
		}
		fb.Release()
	}
	l.mb.classOf = (*wire.FrameBuf).Class
	if f.closed {
		l.mb.close()
	}
	f.links[q] = l
	return l
}

// outbox returns q's link with its writeLoop goroutine running.
func (f *fabric) outbox(q types.ProcID) *link {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.linkLocked(q)
	if !l.started && !f.closed {
		l.started = true
		f.wg.Add(1)
		go f.writeLoop(l)
	}
	return l
}

// sleep pauses for d, returning false if the fabric closed meanwhile.
func (f *fabric) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.closing:
		return false
	case <-t.C:
		return true
	}
}

func (f *fabric) isClosing() bool {
	select {
	case <-f.closing:
		return true
	default:
		return false
	}
}

// linkDown reports a broken or undialable link upward (unless the fabric
// itself is shutting down, when breakage is expected).
func (f *fabric) linkDown(peer types.ProcID, err error) {
	if f.isClosing() || f.onDown == nil {
		return
	}
	f.onDown(peer, err)
}

// watchConn closes conn when the fabric shuts down (unblocking any stuck
// syscall) and exits promptly when the connection is retired.
func (f *fabric) watchConn(conn net.Conn, retired <-chan struct{}) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		select {
		case <-f.closing:
			conn.Close()
		case <-retired:
		}
	}()
}

// connect dials l's peer until a connection (with handshake) is
// established, backing off exponentially with jitter between attempts. It
// returns nils only when the fabric is closing. The peer address is
// re-resolved on every attempt, so directories installed after the first
// Send are picked up.
func (f *fabric) connect(l *link) (net.Conn, *wire.Encoder, chan struct{}) {
	backoff := f.cfg.BackoffBase
	for {
		if f.isClosing() {
			return nil, nil, nil
		}
		if addr := f.addrOf(l.peer); addr != "" {
			l.dials.Add(1)
			d := net.Dialer{Timeout: f.cfg.DialTimeout}
			conn, err := d.Dial("tcp", addr)
			if err == nil {
				enc := wire.NewEncoder(f.chaos.wrap(conn))
				enc.ArmWriteDeadline(conn, f.cfg.WriteTimeout)
				if err = enc.Encode(frame{From: f.id}); err == nil {
					l.mu.Lock()
					if l.connected {
						l.reconnects.Add(1)
					}
					l.connected = true
					l.mu.Unlock()
					retired := make(chan struct{})
					f.watchConn(conn, retired)
					return conn, enc, retired
				}
				conn.Close()
			}
			l.dialFailures.Add(1)
			f.linkDown(l.peer, err)
		}
		l.retries.Add(1)
		if !f.sleep(jitter(backoff)) {
			return nil, nil, nil
		}
		backoff = min(2*backoff, f.cfg.BackoffMax)
	}
}

// jitter spreads a backoff delay over [d/2, d] so a fleet of links redialing
// the same recovered peer does not thunder in lockstep.
func jitter(d time.Duration) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// writeLoop supervises one outbound link: it drains the queue in batches,
// applies outbound chaos frame by frame (so per-frame drop, dup, and
// latency verdicts — and their counters — are unchanged by coalescing),
// dials (and redials) the peer with backoff, and writes each surviving batch
// through the encoder, one vectored write per run (a run closes once it holds
// maxBatchBytes).
// Frames not yet known flushed are retained across reconnects, so a transient
// failure loses at most the bytes the kernel had already accepted.
func (f *fabric) writeLoop(l *link) {
	defer f.wg.Done()
	var (
		conn    net.Conn
		enc     *wire.Encoder
		retired chan struct{}
		batch   []*wire.FrameBuf // frames drained from the mailbox this round
		pending []*wire.FrameBuf // chaos survivors awaiting a flushed write
		bufs    [][]byte         // scratch aliasing pending for WriteBatch
	)
	dropConn := func() {
		if conn != nil {
			conn.Close()
			close(retired)
			conn, enc, retired = nil, nil, nil
		}
	}
	defer dropConn()
	release := func(fbs []*wire.FrameBuf) {
		for _, fb := range fbs {
			fb.Release()
		}
	}
	defer func() { release(pending) }() // fabric closing: drop the unsent tail
	for {
		if len(pending) == 0 {
			var ok bool
			batch, ok = l.mb.takeBatch(batch[:0], maxBatchFrames)
			if !ok {
				return
			}
			for i, fb := range batch {
				verdict := f.chaos.outbound(l.peer)
				if verdict.delay > 0 && !f.sleep(verdict.delay) {
					for _, rest := range batch[i:] {
						rest.Release()
					}
					return
				}
				if verdict.drop {
					l.chaosDrops.Add(1)
					if fb.Class() == wire.ClassData {
						f.refundData(l) // injected loss must not leak the window
					}
					fb.Release()
					continue
				}
				pending = append(pending, fb)
				if verdict.dup {
					l.chaosDups.Add(1)
					fb.Retain(1)
					pending = append(pending, fb)
				}
			}
			if len(pending) == 0 {
				continue
			}
		}
		if conn == nil {
			conn, enc, retired = f.connect(l)
			if conn == nil {
				return // fabric closing
			}
		}
		bufs = bufs[:0]
		for _, fb := range pending {
			bufs = append(bufs, fb.Wire())
		}
		sent, flushes, err := enc.WriteBatch(bufs, maxBatchBytes)
		l.framesSent.Add(int64(sent))
		l.flushes.Add(int64(flushes))
		release(pending[:sent])
		pending = append(pending[:0], pending[sent:]...)
		if err != nil {
			l.writeErrors.Add(1)
			dropConn()
			f.linkDown(l.peer, err)
			// pending retained; resent after reconnect
		}
	}
}

// acceptLoop hands each inbound connection to its own readLoop. An Accept
// error other than the listener closing is usually descriptor exhaustion
// (EMFILE/ENFILE), which lasts until something else closes: retry behind a
// delay that doubles from 5 ms to 1 s and resets on the next success
// (net/http.Server's rule) instead of spinning a core on it.
func (f *fabric) acceptLoop() {
	defer f.wg.Done()
	var delay time.Duration
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			delay = max(5*time.Millisecond, min(2*delay, time.Second))
			if !f.sleep(delay) {
				return
			}
			continue
		}
		delay = 0
		f.wg.Add(1)
		go f.readLoop(conn)
	}
}

// maxHelloSize is the largest body connect can send as a hello: the handshake
// tag and a u16-length sender identifier.
const maxHelloSize = 1 + 2 + math.MaxUint16

// errNoHello ends a connection whose first frame does not name its sender.
var errNoHello = errors.New("live: connection did not open with a hello")

// readHandshake consumes the hello frame (only its sender identity matters)
// using blocking reads on the net.Conn — deliberately unbuffered, so no
// stream byte is stranded in a userspace buffer when the assembler takes the
// stream over. The peer has not named itself yet, so it gets no more than the
// protocol needs: wait to deliver the whole hello, and a body of at most
// maxHelloSize — a hostile length prefix is refused before anything is
// allocated for it. A first frame that is not a hello naming someone — a
// data frame, say, which carries no sender — is refused before any link is
// keyed by it.
func readHandshake(conn net.Conn, wait time.Duration) (types.ProcID, error) {
	conn.SetReadDeadline(time.Now().Add(wait))
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return "", err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxHelloSize {
		return "", wire.ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(conn, body); err != nil {
		return "", err
	}
	hello, err := wire.UnmarshalFrame(body)
	if err != nil {
		return "", err
	}
	// Only a handshake decodes a sender.
	if hello.From == "" {
		return "", errNoHello
	}
	conn.SetReadDeadline(time.Time{})
	return hello.From, nil
}

// readLoop is a connection's inbound side: one blocking read into the
// connection's assembler, then one drain of everything the read completed.
// The read deadline is a read-progress budget: an idle connection may stay
// silent for ReadIdleTimeout, a frame in progress must complete within two of
// them of its stamp — an absolute deadline that trickled bytes cannot push
// out. Before the hello there is no idle state to respect, so with
// ReadIdleTimeout off the peer still has only DialTimeout to name itself (the
// clock its dialer works to).
func (f *fabric) readLoop(conn net.Conn) {
	defer f.wg.Done()
	defer conn.Close()
	retired := make(chan struct{})
	defer close(retired)
	f.watchConn(conn, retired)
	idle := f.cfg.ReadIdleTimeout
	helloWait := idle
	if helloWait <= 0 {
		helloWait = f.cfg.DialTimeout
	}
	from, err := readHandshake(conn, helloWait)
	if err != nil {
		return
	}
	l := f.linkFor(from)
	asm := newFrameAssembler(f.pool)
	defer asm.close()
	var fr frame
	for {
		if idle > 0 {
			deadline := time.Now().Add(idle)
			if start, mid := asm.midFrame(); mid {
				deadline = start.Add(2 * idle)
			}
			conn.SetReadDeadline(deadline)
		}
		n, err := conn.Read(asm.writable())
		if n > 0 {
			asm.advance(n)
			if derr := f.drain(l, asm, &fr); derr != nil {
				err = derr
			}
		}
		if err != nil {
			// A broken inbound stream is link-failure evidence too: the
			// peer crashed, closed, or went idle past the read deadline.
			f.linkDown(from, err)
			return
		}
	}
}

// errFabricClosing ends a drain that found the fabric shutting down.
var errFabricClosing = errors.New("live: fabric closing")

// drain decodes and delivers every frame the last socket read completed in
// asm. readLoop ends every read here, and the unit it works in is the read,
// not the frame: the closing check is taken once, the read/frame counters
// are bumped once, and the consumer's callbacks are bracketed by
// batchBegin/batchEnd so it can lock and publish once. Credit frames end
// here (they feed the outbound window, not the consumer). The batch is
// closed before drain returns, so a caller that goes on to report the link
// down does so behind the events of the frames already delivered. It
// returns the error that ends the connection, if any (a parse error, or
// errFabricClosing).
func (f *fabric) drain(l *link, asm *frameAssembler, fr *frame) (err error) {
	if f.isClosing() {
		return errFabricClosing
	}
	from := l.peer
	open := false
	var frames int64
	for {
		body, done, derr := asm.next(fr)
		if derr != nil {
			err = derr
			break
		}
		if done {
			break
		}
		frames++
		if fr.Credit != nil {
			f.handleCredit(from, int64(fr.Credit.Grant))
			if body != nil {
				body.Release()
			}
			continue
		}
		if !open && f.batchBegin != nil {
			f.batchBegin(from)
			open = true
		}
		f.receive(from, *fr, body) // receive owns body
	}
	if open {
		f.batchEnd(from)
	}
	l.reads.Add(1)
	l.framesIn.Add(frames)
	return err
}

// Close shuts the fabric down: the listener stops, outboxes close, and all
// goroutines are joined.
func (f *fabric) Close() {
	f.once.Do(func() {
		close(f.closing)
		f.ln.Close()
		f.mu.Lock()
		f.closed = true
		for _, l := range f.links {
			l.mb.close()
		}
		f.mu.Unlock()
		f.flowBroadcast() // release senders parked on credit
	})
	f.wg.Wait()
}

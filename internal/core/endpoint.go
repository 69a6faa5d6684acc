// Package core implements the GCS end-point automaton of Section 5 of
// Keidar & Khazan: the client-side algorithm that turns an external
// membership service (satisfying the MBRSHP spec) and a reliable FIFO
// substrate (CO_RFIFO) into a virtually synchronous group multicast service.
//
// The paper constructs the algorithm incrementally with an inheritance-based
// formalism: WV_RFIFO (Figure 9) provides within-view reliable FIFO
// multicast; VS_RFIFO+TS (Figure 10) adds Virtual Synchrony and Transitional
// Sets via a single round of synchronization messages tagged with locally
// unique start-change identifiers; GCS (Figure 11) adds Self Delivery by
// blocking the client during reconfiguration. The Level configuration knob
// selects how much of the hierarchy is active, exactly mirroring the child
// automata's transition restrictions.
//
// The end-point is a guarded-action state machine: external inputs are
// methods (HandleStartChange, HandleView, HandleMessage, Send, BlockOK), and
// after each input the automaton fires its enabled locally controlled
// actions to quiescence, queueing output events for the application.
package core

import (
	"errors"
	"fmt"

	"vsgm/internal/types"
	"vsgm/internal/wire/pool"
)

// Level selects which layer of the inheritance hierarchy the end-point runs.
type Level int

const (
	// LevelWV runs only the WV_RFIFO parent automaton (Figure 9):
	// within-view reliable FIFO multicast, no synchronization round.
	LevelWV Level = iota + 1

	// LevelVS runs VS_RFIFO+TS (Figure 10): Virtual Synchrony and
	// Transitional Sets, without Self Delivery (clients are never blocked).
	LevelVS

	// LevelGCS runs the complete GCS automaton (Figure 11): Virtual
	// Synchrony, Transitional Sets, and Self Delivery with client blocking.
	LevelGCS
)

// String names the level after the paper's automata.
func (l Level) String() string {
	switch l {
	case LevelWV:
		return "WV_RFIFO"
	case LevelVS:
		return "VS_RFIFO+TS"
	case LevelGCS:
		return "GCS"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// BlockStatus is the Self Delivery layer's client-blocking state.
type BlockStatus int

const (
	// Unblocked: the client may send.
	Unblocked BlockStatus = iota + 1
	// Requested: a block() request has been issued and not yet acknowledged.
	Requested
	// Blocked: the client acknowledged with block_ok and must not send.
	Blocked
)

// String renders the status.
func (s BlockStatus) String() string {
	switch s {
	case Unblocked:
		return "unblocked"
	case Requested:
		return "requested"
	case Blocked:
		return "blocked"
	default:
		return fmt.Sprintf("block_status(%d)", int(s))
	}
}

// ErrBlocked is returned by Send while the client is blocked: the abstract
// client automaton (Figure 12) requires the application to refrain from
// sending between block_ok and the next view.
var ErrBlocked = errors.New("gcs: client is blocked during view change")

// ErrCrashed is returned by Send after Crash and before Recover.
var ErrCrashed = errors.New("gcs: end-point has crashed")

// Transport is the sender-side interface to the CO_RFIFO substrate
// (corfifo.Handle satisfies it).
type Transport interface {
	// Send multicasts m to dests, appending it to the FIFO channel toward
	// each destination.
	Send(dests []types.ProcID, m types.WireMsg)
	// SetReliable declares the set of end-points to which gap-free FIFO
	// connectivity must be maintained.
	SetReliable(set types.ProcSet)
}

// Config parameterizes an end-point.
type Config struct {
	// ID is the process identifier; required.
	ID types.ProcID

	// Transport is the CO_RFIFO handle; required.
	Transport Transport

	// Level selects the automaton layer; defaults to LevelGCS.
	Level Level

	// Forwarding selects the forwarding-strategy predicate of Section
	// 5.2.2; defaults to the simple strategy. Ignored at LevelWV.
	Forwarding ForwardingStrategy

	// AutoBlock makes the end-point act as its own blocking client: block
	// requests are acknowledged immediately (a BlockEvent is still emitted
	// for observability). Applications that manage blocking themselves
	// leave it false and call BlockOK.
	AutoBlock bool

	// SmallSync enables the Section 5.2.4 optimization: end-points in
	// start_change.set but outside the current view receive a small,
	// cut-less synchronization message meaning "I am not in your
	// transitional set".
	SmallSync bool

	// RetainOldBuffers disables the garbage collection of message buffers
	// from superseded views when a new view is installed. The paper's
	// abstract automata never discard; real implementations do (Section
	// 5.1). Tests use this to inspect historical buffers.
	RetainOldBuffers bool

	// MsgIDBase offsets the identifiers stamped on this end-point's
	// application messages so that IDs are globally unique across a
	// cluster (purely diagnostic; the algorithm identifies messages by
	// (sender, view, index)).
	MsgIDBase int64

	// OnSend observes each accepted Send synchronously, after the message
	// is assigned its identifier and appended to the sender's stream but
	// before any resulting transmission. Cross-process trace collectors
	// need this pre-wire ordering: an observer notified after Send returns
	// can lose the race against a fast peer's delivery report. Runs on the
	// Send caller's goroutine; must not call back into the Endpoint.
	OnSend func(types.AppMsg)

	// AckInterval enables within-view garbage collection: after every
	// AckInterval deliveries the end-point multicasts a stability
	// acknowledgment (its per-sender delivered counts), and message slots
	// acknowledged by every view member are collected. 0 disables acks;
	// buffers are then only reclaimed at view changes (Section 5.1).
	AckInterval int

	// HierarchyGroupSize enables the two-tier synchronization hierarchy of
	// Section 9's future work: members send their synchronization message
	// only to a designated group leader, and leaders aggregate and exchange
	// bundles. Values ≤ 1 disable the hierarchy (flat all-to-all syncs).
	// When enabled it takes precedence over SmallSync for sync routing.
	HierarchyGroupSize int

	// Trace observes the end-point's reconfiguration milestones
	// (start_change, sync send/receive, view installation). Optional;
	// callbacks run synchronously inside the automaton and must not call
	// back into the Endpoint.
	Trace ProtocolTrace

	// Pool is where the message buffers keep payloads handed in without a
	// holder (Send, HandleMessage): copied into pooled memory and delivered
	// with DeliverEvent.Hold set, so whoever takes the events must release
	// them and nobody may read a payload past that. A live Node passes its
	// transport's pool. Nil — the simulator, the enumerator, anything whose
	// application keeps delivered payloads — means plain heap copies that
	// the garbage collector owns.
	Pool *pool.Pool
}

// Endpoint is the GCS end-point automaton state (Figures 9-11). It is not
// safe for concurrent use; drive it from one goroutine (the simulator's
// event loop, or a live runtime that serializes inputs).
type Endpoint struct {
	id             types.ProcID
	level          Level
	transport      Transport
	fwd            ForwardingStrategy
	autoBlock      bool
	smallSync      bool
	retainOld      bool
	ackInterval    int
	hierarchyGroup int
	onSend         func(types.AppMsg)
	trace          ProtocolTrace
	pool           *pool.Pool

	// WV_RFIFO state (Figure 9). streams holds view_msg[q] and last_rcvd[q]
	// for every peer heard from; the own entry view_msg[p] only ever equals
	// the current view or lags it, which is viewMsgSent.
	msgs     bufferMap
	lastSent int
	streams  map[types.ProcID]*stream

	currentView types.View
	mbrshpView  types.View
	viewMsgSent bool
	reliableSet types.ProcSet

	// Caches derived from currentView, rebuilt by setCurrentView: the
	// canonical view key, the sorted member list, the sorted
	// members-without-self destination list, and — indexed by a member's
	// rank in curMembers — msgs[q][currentView] and last_dlvrd[q]. The data
	// path reads these slices and never a map keyed by process.
	curKey     string
	curMembers []types.ProcID
	curOthers  []types.ProcID
	rank       map[types.ProcID]int
	self       int
	curBufs    []*msgBuf
	lastDlvrd  []int

	// Dirty state for the guards of step(), so that one which cannot fire
	// costs a comparison. [dlvLo, dlvHi) are the ranks whose next message
	// may be deliverable: a store or a send widens the range to that member,
	// anything that moves the delivery limits widens it to everyone, a scan
	// that finds nothing empties it. limits caches the Figure 10 delivery
	// restriction (nil when delivery is unrestricted); limitsValid is
	// cleared by every input that can change it. reliableDirty is set when
	// the current view or the pending start_change — the inputs of the
	// desired reliable set — change. fwdDirty marks that forwarding plans
	// may have changed (they depend only on synchronization state, not on
	// data traffic).
	dlvLo, dlvHi  int
	limits        types.Cut
	limitsValid   bool
	reliableDirty bool
	fwdDirty      bool

	// VS_RFIFO+TS state extension (Figure 10).
	startChange *types.StartChange
	syncMsgs    map[types.ProcID]map[types.StartChangeID]*types.SyncMsg
	forwarded   map[forwardKey]struct{}

	// ownSync remembers the last synchronization message this end-point
	// committed to (cid, view, cut). The committed cut is binding, so a
	// watchdog resend (ResendSync) and probe answers must replay exactly
	// these values, never recompute them.
	ownSync struct {
		valid bool
		cid   types.StartChangeID
		view  types.View
		cut   types.Cut
		trace uint64
	}

	// GCS state extension (Figure 11).
	blockStatus BlockStatus

	// Stability tracking for within-view garbage collection, by rank:
	// acked[r][q] is the count of q's messages that r last acknowledged
	// having delivered in the current view (nil until r's first ack), ackers
	// the number of non-nil rows.
	acked    [][]int
	ackers   int
	sinceAck int

	// Two-tier hierarchy aggregation state (leaders only). hBaseline
	// snapshots, at each view installation, the highest sync cid seen per
	// member; the bundling gate only counts syncs fresher than it.
	hPending  []hPendingEntry
	hSent     map[hEntryKey]struct{}
	hBaseline map[types.ProcID]types.StartChangeID

	crashed bool

	nextMsgID int64
	pending   []Event

	// Counters consumed by experiments.
	viewsInstalled  int64
	msgsDelivered   int64
	forwardsPlanned int64
}

// stream is the receive side of one peer's FIFO channel: the view its latest
// view_msg announced (view_msg[q], initially v_q), how many application
// messages followed it (last_rcvd[q]), and the buffer those go to
// (msgs[q][view], resolved on first use and again after a garbage
// collection).
type stream struct {
	view     types.View
	lastRcvd int
	buf      *msgBuf
}

type forwardKey struct {
	dest    types.ProcID
	origin  types.ProcID
	viewKey string
	index   int
}

// NewEndpoint constructs an end-point in its initial singleton view v_p.
func NewEndpoint(cfg Config) (*Endpoint, error) {
	if cfg.ID == "" {
		return nil, errors.New("gcs: config requires an ID")
	}
	if cfg.Transport == nil {
		return nil, errors.New("gcs: config requires a Transport")
	}
	if cfg.Level == 0 {
		cfg.Level = LevelGCS
	}
	if cfg.Forwarding == nil {
		cfg.Forwarding = NewSimpleForwarding()
	}
	e := &Endpoint{
		id:             cfg.ID,
		level:          cfg.Level,
		transport:      cfg.Transport,
		fwd:            cfg.Forwarding,
		autoBlock:      cfg.AutoBlock,
		smallSync:      cfg.SmallSync,
		retainOld:      cfg.RetainOldBuffers,
		ackInterval:    cfg.AckInterval,
		hierarchyGroup: cfg.HierarchyGroupSize,
		onSend:         cfg.OnSend,
		trace:          cfg.Trace,
		pool:           cfg.Pool,
		nextMsgID:      cfg.MsgIDBase,
	}
	e.reset()
	return e, nil
}

// reset restores the initial automaton state (also the Section 8 recovery
// semantics: recovered end-points restart from initial state under their
// original identity).
func (e *Endpoint) reset() {
	e.msgs.release()
	e.msgs = make(bufferMap)
	e.streams = make(map[types.ProcID]*stream)
	e.mbrshpView = types.InitialView(e.id)
	e.setCurrentView(e.mbrshpView)
	e.viewMsgSent = true // view_msg[p] is initially v_p
	e.reliableSet = types.NewProcSet(e.id)
	e.startChange = nil
	e.ownSync.valid = false
	e.syncMsgs = make(map[types.ProcID]map[types.StartChangeID]*types.SyncMsg)
	e.forwarded = make(map[forwardKey]struct{})
	e.blockStatus = Unblocked
	e.hPending = nil
	e.hSent = make(map[hEntryKey]struct{})
	e.hBaseline = make(map[types.ProcID]types.StartChangeID)
}

// ID returns the end-point's process identifier.
func (e *Endpoint) ID() types.ProcID { return e.id }

// Level returns the configured automaton level.
func (e *Endpoint) Level() Level { return e.level }

// CurrentView returns the view most recently delivered to the application
// (or the initial singleton view).
func (e *Endpoint) CurrentView() types.View { return e.currentView.Clone() }

// MembershipView returns the latest view received from the membership
// service (which may not have been delivered to the application yet).
func (e *Endpoint) MembershipView() types.View { return e.mbrshpView.Clone() }

// PendingStartChange returns the outstanding start_change, if any.
func (e *Endpoint) PendingStartChange() (types.StartChange, bool) {
	if e.startChange == nil {
		return types.StartChange{}, false
	}
	return e.startChange.Clone(), true
}

// BlockStatus returns the Self Delivery layer's blocking state.
func (e *Endpoint) BlockStatus() BlockStatus { return e.blockStatus }

// Crashed reports whether the end-point is currently crashed.
func (e *Endpoint) Crashed() bool { return e.crashed }

// ViewsInstalled returns the number of views delivered to the application.
func (e *Endpoint) ViewsInstalled() int64 { return e.viewsInstalled }

// MessagesDelivered returns the number of application messages delivered.
func (e *Endpoint) MessagesDelivered() int64 { return e.msgsDelivered }

// ForwardsSent returns the number of forwarded message copies this end-point
// has sent (one per destination).
func (e *Endpoint) ForwardsSent() int64 { return e.forwardsPlanned }

// LastDelivered returns last_dlvrd[q]: the index of the last message from q
// delivered to the application in the current view.
func (e *Endpoint) LastDelivered(q types.ProcID) int {
	if k, ok := e.rank[q]; ok {
		return e.lastDlvrd[k]
	}
	return 0
}

// BufferedMessages returns the number of application messages currently held
// in the current view's buffers (after any garbage collection).
func (e *Endpoint) BufferedMessages() int {
	n := 0
	for _, b := range e.curBufs {
		n += b.live()
	}
	return n
}

// BufferedBytes returns the bytes the message buffers keep resident (all
// senders, all views awaiting garbage collection) — the automaton's share of
// a node's memory budget. A payload with a pooled buffer to itself counts that
// buffer's capacity; one packed into a shared chunk, or copied to the heap,
// counts its length, and each buffer's open chunk counts its unfilled rest.
func (e *Endpoint) BufferedBytes() int64 {
	var n int64
	for _, row := range e.msgs {
		for _, b := range row {
			n += b.bytes
		}
	}
	return n
}

// CurrentOthers returns the current view's members excluding this process,
// sorted. The slice is shared with the endpoint and replaced (never
// mutated) on view installation: callers may hold a snapshot but must not
// modify it.
func (e *Endpoint) CurrentOthers() []types.ProcID { return e.curOthers }

// TakeEvents drains and returns the queued application events in order. The
// queue continues in the unused tail of the same array (see emit), so a
// delivery does not regrow a slice from nil; the returned slice is capped at
// its length and its slots are never written again, so it stays valid however
// long the caller holds it — including across nested calls into the end-point
// made while iterating it. The caller also takes over the buffer reference of
// every DeliverEvent that carries one (DeliverEvent.Hold).
func (e *Endpoint) TakeEvents() []Event {
	n := len(e.pending)
	evs := e.pending[:n:n]
	e.pending = e.pending[n:]
	return evs
}

// Send is the input action send_p(m): the application multicasts payload to
// the members of the current view. The message is appended to the
// end-point's own stream and will be self-delivered only after it has been
// sent to the other view members.
//
// The end-point keeps its own copy of payload; the caller may reuse the slice
// as soon as Send returns. With Config.Pool that copy is pooled memory,
// recycled once the message is stable: the returned message's payload is then
// good only until the end-point's next input.
func (e *Endpoint) Send(payload []byte) (types.AppMsg, error) {
	return e.SendHeld(payload, nil)
}

// SendHeld is Send for a payload that already sits in a pooled buffer of its
// own: the end-point takes a reference to hold for as long as it retains the
// message instead of copying the bytes. The caller keeps its reference until
// it has taken the events this call queued. A nil hold is plain Send.
func (e *Endpoint) SendHeld(payload []byte, hold *pool.Buf) (types.AppMsg, error) {
	if e.crashed {
		return types.AppMsg{}, ErrCrashed
	}
	if e.level == LevelGCS && e.blockStatus == Blocked {
		return types.AppMsg{}, ErrBlocked
	}
	e.nextMsgID++
	// Return (and report) the stored message: without a holder its payload
	// is the end-point's copy (on the heap or in its pool), not the caller's
	// slice.
	own := e.curBufs[e.self]
	i := own.lastIndex() + 1
	own.set(i, types.AppMsg{ID: e.nextMsgID, Payload: payload}, hold)
	m, _ := own.get(i)
	if e.onSend != nil {
		e.onSend(m)
	}
	e.step()
	return m, nil
}

// BlockOK is the input action block_ok_p(): the application acknowledges a
// block request.
func (e *Endpoint) BlockOK() {
	if e.crashed || e.blockStatus != Requested {
		return
	}
	e.blockStatus = Blocked
	e.step()
}

// HandleStartChange is the input action mbrshp.start_change_p(id, set).
func (e *Endpoint) HandleStartChange(sc types.StartChange) {
	if e.crashed {
		return
	}
	cp := sc.Clone()
	e.startChange = &cp
	e.limitsValid = false
	e.reliableDirty = true
	e.fwdDirty = true
	if e.trace != nil {
		e.trace.StartChange(cp)
	}
	e.hRequeue()
	e.step()
}

// HandleView is the input action mbrshp.view_p(v).
func (e *Endpoint) HandleView(v types.View) {
	if e.crashed {
		return
	}
	e.mbrshpView = v.Clone()
	e.limitsValid = false
	e.fwdDirty = true
	e.step()
}

// HandleMessage is the input action co_rfifo.deliver_{q,p}(m), dispatching
// on the message tag (Figures 9 and 10).
//
// Payloads are borrowed for the duration of the call: what the end-point
// retains of an application message it copies.
func (e *Endpoint) HandleMessage(from types.ProcID, m types.WireMsg) {
	e.HandleMessageHeld(from, m, nil)
}

// HandleMessageHeld is HandleMessage for a message decoded in place in a
// pooled buffer that holds this message alone: an application payload
// (KindApp, KindFwd) that the end-point stores is kept where it lies, under a
// reference the end-point takes to hold, instead of being copied. The caller
// keeps its own reference until it has taken the events this call queued. A
// nil hold is plain HandleMessage.
func (e *Endpoint) HandleMessageHeld(from types.ProcID, m types.WireMsg, hold *pool.Buf) {
	if e.crashed {
		return
	}
	switch m.Kind {
	case types.KindView:
		s := e.streamOf(from)
		s.view, s.lastRcvd, s.buf = m.View, 0, nil
	case types.KindApp:
		s := e.streamOf(from)
		if s.buf == nil {
			s.buf = e.msgs.buf(from, s.view.Key(), e.pool)
		}
		s.lastRcvd++
		e.store(s.buf, s.lastRcvd, m.App, hold)
	case types.KindFwd:
		e.store(e.msgs.buf(m.Origin, m.View.Key(), e.pool), m.Index, m.App, hold)
	case types.KindAck:
		e.handleAck(from, m.Cut)
	case types.KindSync:
		if e.level == LevelWV {
			return
		}
		view := m.View
		if m.ElideView {
			// Section 5.2.4 second optimization: the sender elided its view
			// because its view_msg precedes this sync on our FIFO channel.
			view = e.streamOf(from).view
		}
		e.storeSyncEntry(from, m.CID, view, m.Cut, m.Small)
		if e.trace != nil {
			e.trace.SyncReceived(from, m.CID, m.Trace)
		}
		if e.hierarchyGroup > 1 {
			// A local member routed its sync to us as its leader; queue it
			// for aggregation and redistribution.
			e.hQueue(types.SyncEntry{
				From: from, CID: m.CID, View: view.Clone(), Cut: m.Cut.Clone(), Small: m.Small,
			}, false)
		}
		if m.Probe {
			e.answerSyncProbe(from)
		}
	case types.KindSyncBundle:
		if e.level == LevelWV {
			return
		}
		for _, entry := range m.Bundle {
			if entry.From == e.id {
				continue
			}
			e.storeSyncEntry(entry.From, entry.CID, entry.View, entry.Cut, entry.Small)
			if e.trace != nil {
				// Bundle entries carry no trace tag; the span still counts
				// the receipt.
				e.trace.SyncReceived(entry.From, entry.CID, 0)
			}
			if e.hierarchyGroup > 1 {
				e.hQueue(entry, true)
			}
		}
	}
	e.step()
}

// Crash models crash_p() (Section 8): all locally controlled actions and
// input effects are disabled until Recover.
func (e *Endpoint) Crash() {
	e.crashed = true
	for _, ev := range e.pending {
		if d, ok := ev.(DeliverEvent); ok && d.Hold != nil {
			d.Hold.Release()
		}
	}
	e.pending = nil
}

// Close ends the end-point's life: it is crashed for good, and every buffer
// reference it holds — the message slots of every view, the events nobody
// took — goes back to its pool.
func (e *Endpoint) Close() {
	e.Crash()
	e.msgs.release()
}

// Recover models recover_p() (Section 8): the end-point restarts with all
// state variables at their initial values — no stable storage is used — and
// continues under its original identity.
func (e *Endpoint) Recover() {
	if !e.crashed {
		return
	}
	e.crashed = false
	e.reset()
	e.transport.SetReliable(e.reliableSet.Clone())
	e.step()
}

// eventChunk is how many event slots one allocation of the pending queue
// provides. Slots are handed out once (TakeEvents never reuses them), so this
// is also how many delivered events the queue keeps reachable past their
// hand-over; small enough that the payloads they pin are noise beside the
// message buffers.
const eventChunk = 32

func (e *Endpoint) emit(ev Event) {
	if cap(e.pending) == 0 {
		e.pending = make([]Event, 0, eventChunk)
	}
	e.pending = append(e.pending, ev)
}

// setCurrentView installs v as the current view, restarts the per-view
// counters (last_sent, last_dlvrd, stability acks) and rebuilds the derived
// caches.
func (e *Endpoint) setCurrentView(v types.View) {
	for _, b := range e.curBufs {
		b.cur = 0
	}
	e.currentView = v
	e.curKey = v.Key()
	e.curMembers = v.Members.Sorted()
	n := len(e.curMembers)
	e.curOthers = make([]types.ProcID, 0, n)
	e.rank = make(map[types.ProcID]int, n)
	e.curBufs = make([]*msgBuf, n)
	for k, q := range e.curMembers {
		if q == e.id {
			e.self = k
		} else {
			e.curOthers = append(e.curOthers, q)
		}
		e.rank[q] = k
		b := e.msgs.buf(q, e.curKey, e.pool)
		b.cur = k + 1
		e.curBufs[k] = b
	}
	e.lastSent = 0
	e.lastDlvrd = make([]int, n)
	e.acked, e.ackers = nil, 0
	if e.ackInterval > 0 {
		e.acked = make([][]int, n)
	}
	e.sinceAck = 0
	e.viewMsgSent = false
	e.dlvLo, e.dlvHi = 0, n
	e.limitsValid = false
	e.reliableDirty = true
}

// curBuf returns msgs[q][currentView], nil (an empty buffer to every reader)
// when q is not a member of the current view.
func (e *Endpoint) curBuf(q types.ProcID) *msgBuf {
	if k, ok := e.rank[q]; ok {
		return e.curBufs[k]
	}
	return nil
}

// streamOf returns q's receive-side channel state, created at view_msg[q] =
// v_q on first contact.
func (e *Endpoint) streamOf(q types.ProcID) *stream {
	s := e.streams[q]
	if s == nil {
		s = &stream{view: types.InitialView(q)}
		e.streams[q] = s
	}
	return s
}

// store puts m at index i of b and, when b belongs to the current view,
// tells the delivery guard whose stream grew.
func (e *Endpoint) store(b *msgBuf, i int, m types.AppMsg, hold *pool.Buf) {
	b.set(i, m, hold)
	if b.cur > 0 {
		e.markDeliverable(b.cur - 1)
	}
}

// markDeliverable widens the delivery guard's range to the member at rank k.
func (e *Endpoint) markDeliverable(k int) {
	e.dlvLo = min(e.dlvLo, k)
	e.dlvHi = max(e.dlvHi, k+1)
}

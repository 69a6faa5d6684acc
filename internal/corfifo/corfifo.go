// Package corfifo implements CO_RFIFO, the connection-oriented reliable FIFO
// multicast substrate of Section 3.2 (Figure 3) of Keidar & Khazan.
//
// The substrate maintains a FIFO queue channel[p][q] for every ordered pair
// of end-points. send_p(set, m) appends m to channel[p][q] for every q in
// set. deliver_{p,q} removes the head of channel[p][q] and hands it to q's
// handler. An end-point controls reliable_set[p]: for any q outside it, the
// substrate may lose an arbitrary suffix of channel[p][q] (the lose(p,q)
// internal action). live_set[p] models which processes are really alive and
// connected to p; it parameterizes the liveness obligation only.
//
// The package is a passive state machine: it never spawns goroutines and
// performs no I/O. A driver (the deterministic simulator in internal/sim, or
// a live runtime) decides when deliver and lose steps occur. All methods are
// safe for concurrent use.
package corfifo

import (
	"fmt"
	"sort"
	"sync"

	"vsgm/internal/types"
)

// Handler receives messages delivered by the substrate to one end-point.
type Handler interface {
	// HandleMessage is invoked for each message delivered to this
	// end-point, in per-sender FIFO order.
	HandleMessage(from types.ProcID, m types.WireMsg)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from types.ProcID, m types.WireMsg)

// HandleMessage calls f(from, m).
func (f HandlerFunc) HandleMessage(from types.ProcID, m types.WireMsg) { f(from, m) }

// SendObserver is notified synchronously for every (message, destination)
// pair enqueued by a send. Drivers use it to schedule delivery steps.
type SendObserver func(from, to types.ProcID, m types.WireMsg)

// queue is one channel[p][q]. Its array is reused: a dequeue zeroes the slot
// it leaves, so a delivered message is not kept reachable, and an append into
// a full array whose front half is dequeued slides the queued messages down
// instead of growing it. A queue that drains with an array grown past
// maxIdleQueue by a backlog lets that array go.
type queue struct {
	msgs []types.WireMsg // msgs[head:] are queued, oldest first
	head int
}

// maxIdleQueue is the largest array, in messages, an empty queue keeps.
const maxIdleQueue = 32

func (q *queue) len() int { return len(q.msgs) - q.head }

func (q *queue) push(m types.WireMsg) {
	if q.head > 0 && len(q.msgs) == cap(q.msgs) && 2*q.head >= len(q.msgs) {
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs, q.head = q.msgs[:n], 0
	}
	q.msgs = append(q.msgs, m)
}

// pop dequeues the head; q must not be empty.
func (q *queue) pop() types.WireMsg {
	m := q.msgs[q.head]
	q.msgs[q.head] = types.WireMsg{}
	q.head++
	if q.head == len(q.msgs) {
		q.reset()
	}
	return m
}

// dropTail removes the newest message; q must not be empty.
func (q *queue) dropTail() types.WireMsg {
	last := len(q.msgs) - 1
	m := q.msgs[last]
	q.msgs[last] = types.WireMsg{}
	q.msgs = q.msgs[:last]
	if q.head == len(q.msgs) {
		q.reset()
	}
	return m
}

// reset empties q, zeroing whatever it still holds.
func (q *queue) reset() {
	if cap(q.msgs) > maxIdleQueue {
		q.msgs = nil
	} else {
		clear(q.msgs[q.head:])
		q.msgs = q.msgs[:0]
	}
	q.head = 0
}

// Network is the centralized CO_RFIFO automaton state.
type Network struct {
	mu       sync.Mutex
	channels map[types.ProcID]map[types.ProcID]*queue
	reliable map[types.ProcID]types.ProcSet
	live     map[types.ProcID]types.ProcSet
	handlers map[types.ProcID]Handler
	onSend   SendObserver
	stats    Stats
}

// NewNetwork returns an empty substrate with no registered end-points.
func NewNetwork() *Network {
	return &Network{
		channels: make(map[types.ProcID]map[types.ProcID]*queue),
		reliable: make(map[types.ProcID]types.ProcSet),
		live:     make(map[types.ProcID]types.ProcSet),
		handlers: make(map[types.ProcID]Handler),
	}
}

// SetSendObserver installs fn as the send observer. It must be set before
// traffic flows; passing nil removes the observer.
func (n *Network) SetSendObserver(fn SendObserver) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onSend = fn
}

// Register installs the delivery handler for end-point p and initializes
// reliable_set[p] and live_set[p] to {p} per the automaton's start state.
func (n *Network) Register(p types.ProcID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[p] = h
	if _, ok := n.reliable[p]; !ok {
		n.reliable[p] = types.NewProcSet(p)
	}
	if _, ok := n.live[p]; !ok {
		n.live[p] = types.NewProcSet(p)
	}
}

// Handle returns a sender-side handle bound to end-point p; the handle
// satisfies the transport interface expected by the GCS end-point automaton.
func (n *Network) Handle(p types.ProcID) *Handle {
	return &Handle{net: n, proc: p}
}

// Send models the input action send_p(set, m): m is appended to
// channel[p][q] for every q in dests. The send observer fires once per
// destination, after the message is enqueued.
func (n *Network) Send(from types.ProcID, dests []types.ProcID, m types.WireMsg) {
	n.mu.Lock()
	row := n.channels[from]
	if row == nil {
		row = make(map[types.ProcID]*queue)
		n.channels[from] = row
	}
	for _, to := range dests {
		q := row[to]
		if q == nil {
			q = &queue{}
			row[to] = q
		}
		q.push(m)
		n.stats.record(m)
	}
	onSend := n.onSend
	n.mu.Unlock()

	if onSend != nil {
		for _, q := range dests {
			onSend(from, q, m)
		}
	}
}

// SetReliable models the input action reliable_p(set): p wishes to maintain
// gap-free FIFO connections to exactly the end-points in set.
func (n *Network) SetReliable(p types.ProcID, set types.ProcSet) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reliable[p] = set.Clone()
}

// Reliable returns a copy of reliable_set[p].
func (n *Network) Reliable(p types.ProcID) types.ProcSet {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s, ok := n.reliable[p]; ok {
		return s.Clone()
	}
	return types.NewProcSet(p)
}

// SetLive models the input action live_p(set). It is linked to the
// membership service's start_change and view outputs (Section 5, Figure 8).
func (n *Network) SetLive(p types.ProcID, set types.ProcSet) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.live[p] = set.Clone()
}

// Live returns a copy of live_set[p].
func (n *Network) Live(p types.ProcID) types.ProcSet {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s, ok := n.live[p]; ok {
		return s.Clone()
	}
	return types.NewProcSet(p)
}

// Pending returns the number of messages queued on channel[from][to].
func (n *Network) Pending(from, to types.ProcID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if q := n.channels[from][to]; q != nil {
		return q.len()
	}
	return 0
}

// PendingLink identifies one ordered channel with queued traffic.
type PendingLink struct {
	From, To types.ProcID
	Count    int
}

// PendingLinks returns every ordered pair whose channel is non-empty,
// sorted by (From, To) for deterministic iteration. Drivers use it to flush
// backlogged links after a connectivity change without scanning all O(n²)
// process pairs — the channel map is sparse (it holds only the links that
// have ever carried a message), so the cost is proportional to the number of
// links actually used.
func (n *Network) PendingLinks() []PendingLink {
	n.mu.Lock()
	links := make([]PendingLink, 0, len(n.channels))
	for p, row := range n.channels {
		for to, q := range row {
			if q.len() > 0 {
				links = append(links, PendingLink{From: p, To: to, Count: q.len()})
			}
		}
	}
	n.mu.Unlock()
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	return links
}

// TotalPending returns the number of messages queued across all channels.
func (n *Network) TotalPending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, row := range n.channels {
		for _, q := range row {
			total += q.len()
		}
	}
	return total
}

// DeliverNext models the output action deliver_{p,q}(m): it dequeues the
// head of channel[from][to] and hands it to to's handler. It reports whether
// a message was delivered. Delivery to an unregistered end-point discards
// the message (the end-point has crashed; Section 8).
func (n *Network) DeliverNext(from, to types.ProcID) (types.WireMsg, bool) {
	n.mu.Lock()
	q := n.channels[from][to]
	if q == nil || q.len() == 0 {
		n.mu.Unlock()
		return types.WireMsg{}, false
	}
	m := q.pop()
	h := n.handlers[to]
	n.stats.recordDelivered(m)
	n.mu.Unlock()

	if h != nil {
		h.HandleMessage(from, m)
	}
	return m, true
}

// LoseTail models the internal action lose(from, to): it drops the last
// message of channel[from][to]. The step is enabled only when to is not in
// reliable_set[from]; calling it otherwise is a driver bug and returns an
// error.
func (n *Network) LoseTail(from, to types.ProcID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.reliable[from].Contains(to) {
		return fmt.Errorf("lose(%s,%s): %s is in reliable_set[%s]", from, to, to, from)
	}
	q := n.channels[from][to]
	if q == nil || q.len() == 0 {
		return nil
	}
	n.stats.recordLost(q.dropTail())
	return nil
}

// LoseSuffix drops the last k messages of channel[from][to] (or the whole
// queue if k exceeds its length), subject to the same enabling condition as
// LoseTail.
func (n *Network) LoseSuffix(from, to types.ProcID, k int) error {
	for i := 0; i < k; i++ {
		if err := n.LoseTail(from, to); err != nil {
			return err
		}
		if n.Pending(from, to) == 0 {
			return nil
		}
	}
	return nil
}

// DropUnreliable applies the lose action exhaustively: for every pair (p,q)
// with q outside reliable_set[p], the entire queued suffix is dropped. Only
// tests invoke it: the simulator never runs the lose action, and traffic
// queued on a cut link waits for the heal.
func (n *Network) DropUnreliable() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	dropped := 0
	for p, row := range n.channels {
		for to, q := range row {
			if n.reliable[p].Contains(to) {
				continue
			}
			for _, m := range q.msgs[q.head:] {
				n.stats.recordLost(m)
			}
			dropped += q.len()
			q.reset()
		}
	}
	return dropped
}

// Unregister removes end-point p's handler (p has crashed). Queued traffic
// to and from p remains until lost or delivered-to-nobody.
func (n *Network) Unregister(p types.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, p)
}

// Stats returns a snapshot of the substrate's traffic counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the traffic counters (used between benchmark phases).
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// Handle is a sender-side view of the substrate bound to one end-point.
type Handle struct {
	net  *Network
	proc types.ProcID
}

// Send multicasts m to dests on behalf of the bound end-point.
func (h *Handle) Send(dests []types.ProcID, m types.WireMsg) {
	h.net.Send(h.proc, dests, m)
}

// SetReliable updates the bound end-point's reliable_set.
func (h *Handle) SetReliable(set types.ProcSet) {
	h.net.SetReliable(h.proc, set)
}

// Proc returns the identifier the handle is bound to.
func (h *Handle) Proc() types.ProcID { return h.proc }

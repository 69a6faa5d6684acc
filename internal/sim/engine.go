package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"vsgm/internal/corfifo"
	"vsgm/internal/types"
)

// engine owns the virtual clock, the event queue, the seeded RNG, and the
// scheduling of CO_RFIFO deliveries under a latency model and a mutable
// connectivity relation. Cluster (GCS end-points under the oracle
// membership) and ServerWorld (clients under the distributed membership
// servers) both build on it.
//
// Every step enters through schedule, on one FIFO channel. In time mode the
// channel's steps fire on the virtual clock. With choose set (the explorer's
// mode, see explore.go) there is no clock: each channel is a queue, and Run
// lets choose pick which non-empty channel's head runs next.
type engine struct {
	rng     *rand.Rand
	now     time.Duration
	queue   eventQueue
	net     *corfifo.Network
	latency LatencyModel

	procs       []types.ProcID
	comp        map[types.ProcID]int
	blockedLink map[pair]bool
	last        map[channel]time.Duration // latest arrival per channel (time mode)
	scheduled   map[pair]int

	choose  func(n int) int
	pending map[channel][]func() // queued steps per channel (chooser mode)
	ready   []channel            // the non-empty channels, sorted
}

// chanKind is the kind of a FIFO channel of steps; it orders first when the
// chooser's options are listed.
type chanKind uint8

const (
	chanDeliver chanKind = iota // CO_RFIFO deliveries on the link from -> to
	chanNotify                  // membership notifications to client from (= to)
	chanTimer                   // every At callback
)

// channel names one FIFO stream of steps: the steps of a channel run in the
// order they were scheduled, in either mode.
type channel struct {
	kind chanKind
	pair
}

func (a channel) compare(b channel) int {
	return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
}

func newEngine(procs []types.ProcID, latency LatencyModel, seed int64) *engine {
	e := &engine{
		rng:         rand.New(rand.NewSource(seed)),
		net:         corfifo.NewNetwork(),
		latency:     latency,
		procs:       append([]types.ProcID(nil), procs...),
		comp:        make(map[types.ProcID]int, len(procs)),
		blockedLink: make(map[pair]bool),
		last:        make(map[channel]time.Duration),
		scheduled:   make(map[pair]int),
		pending:     make(map[channel][]func()),
	}
	for _, p := range procs {
		e.comp[p] = 0
	}
	e.net.SetSendObserver(e.onSend)
	return e
}

// addProcs admits processes to the world at runtime (flash-crowd joins).
// They enter component 0 — the fully-healed component — so callers should
// admit while connectivity is whole, or call SetConnectivity afterwards.
func (e *engine) addProcs(ids ...types.ProcID) {
	for _, p := range ids {
		if _, ok := e.comp[p]; ok {
			continue
		}
		e.procs = append(e.procs, p)
		e.comp[p] = 0
	}
}

// At schedules fn to run after the given delay of virtual time.
func (e *engine) At(delay time.Duration, fn func()) {
	e.schedule(channel{kind: chanTimer}, delay, nil, fn)
}

// schedule is the one way a step enters the world. Under the chooser, fn
// joins the tail of ch's queue, and no latency is drawn. In time mode it fires
// after delay plus, when lat is set, a latency drawn from lat, but never before
// the step scheduled ahead of it on ch; a timer (lat nil) fires after exactly
// delay.
func (e *engine) schedule(ch channel, delay time.Duration, lat LatencyModel, fn func()) {
	if e.choose != nil {
		q, ok := e.pending[ch]
		if !ok {
			i, _ := slices.BinarySearchFunc(e.ready, ch, channel.compare)
			e.ready = slices.Insert(e.ready, i, ch)
		}
		e.pending[ch] = append(q, fn)
		return
	}
	at := e.now + delay
	if lat != nil {
		at += lat.Sample(ch.from, ch.to, e.rng)
		if last := e.last[ch]; at < last {
			at = last
		}
		e.last[ch] = at
	}
	e.queue.push(at, fn)
}

// stepChosen runs the head of the channel the chooser picks among the
// non-empty ones, listed in channel order.
func (e *engine) stepChosen() {
	i := e.choose(len(e.ready))
	ch := e.ready[i]
	q := e.pending[ch]
	fn := q[0]
	if len(q) == 1 {
		delete(e.pending, ch)
		e.ready = slices.Delete(e.ready, i, i+1)
	} else {
		q[0] = nil
		e.pending[ch] = q[1:]
	}
	fn()
}

// Now returns the current virtual time.
func (e *engine) Now() time.Duration { return e.now }

// Network exposes the substrate (for traffic statistics).
func (e *engine) Network() *corfifo.Network { return e.net }

// Run processes events until the queue is empty — under the chooser, until
// every channel is empty. It guards against runaway executions with a large
// step bound.
func (e *engine) Run() error {
	const maxSteps = 50_000_000
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return fmt.Errorf("sim: exceeded %d steps; likely livelock", maxSteps)
		}
		if e.choose != nil {
			if len(e.ready) == 0 {
				return nil
			}
			e.stepChosen()
			continue
		}
		ev, ok := e.queue.pop()
		if !ok {
			return nil
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		ev.fn()
	}
}

// RunFor processes all events scheduled within the next d of virtual time
// and advances the clock to exactly now+d. Under the chooser it runs nothing
// and returns an error: a window of virtual time does not exist there, and
// self-rescheduling timers (heartbeats) would never let Run reach quiescence.
func (e *engine) RunFor(d time.Duration) error {
	if e.choose != nil {
		return errors.New("sim: RunFor needs the virtual clock, which the explorer's chooser replaces; use Run")
	}
	deadline := e.now + d
	const maxSteps = 50_000_000
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return fmt.Errorf("sim: exceeded %d steps; likely livelock", maxSteps)
		}
		ev, ok := e.queue.peek()
		if !ok || ev.at > deadline {
			e.now = deadline
			return nil
		}
		ev, _ = e.queue.pop()
		if ev.at > e.now {
			e.now = ev.at
		}
		ev.fn()
	}
}

func (e *engine) connected(from, to types.ProcID) bool {
	if e.blockedLink[pair{from, to}] {
		return false
	}
	return e.comp[from] == e.comp[to]
}

// SetConnectivity partitions the processes into the given groups; processes
// not mentioned become singletons. Queued traffic on newly connected links
// is flushed into delivery.
func (e *engine) SetConnectivity(groups ...types.ProcSet) {
	next := len(groups) + 1
	assigned := make(map[types.ProcID]bool, len(e.procs))
	for i, g := range groups {
		for p := range g {
			e.comp[p] = i
			assigned[p] = true
		}
	}
	for _, p := range e.procs {
		if !assigned[p] {
			e.comp[p] = next
			next++
		}
	}
	e.flushConnected()
}

// HealConnectivity reconnects every process.
func (e *engine) HealConnectivity() {
	for _, p := range e.procs {
		e.comp[p] = 0
	}
	e.flushConnected()
}

// BlockLink severs the directed link from → to regardless of components.
func (e *engine) BlockLink(from, to types.ProcID) {
	e.blockedLink[pair{from, to}] = true
}

// UnblockLink restores the directed link and flushes its queued traffic.
func (e *engine) UnblockLink(from, to types.ProcID) {
	delete(e.blockedLink, pair{from, to})
	e.flushConnected()
}

// flushConnected schedules delivery events for messages that were queued
// while their link was severed and is now connected again. It walks only the
// links with queued traffic (sorted, so replays stay deterministic) rather
// than all O(procs²) pairs — the difference between a 10k-endpoint world
// healing a partition in milliseconds and in minutes.
func (e *engine) flushConnected() {
	for _, l := range e.net.PendingLinks() {
		if !e.connected(l.From, l.To) {
			continue
		}
		backlog := l.Count - e.scheduled[pair{l.From, l.To}]
		for i := 0; i < backlog; i++ {
			e.scheduleDelivery(l.From, l.To)
		}
	}
}

func (e *engine) scheduleDelivery(from, to types.ProcID) {
	pr := pair{from, to}
	e.scheduled[pr]++
	e.schedule(channel{chanDeliver, pr}, 0, e.latency, func() {
		e.scheduled[pr]--
		e.net.DeliverNext(from, to)
	})
}

// onSend is the substrate's send observer: if the link is up, schedule the
// delivery; otherwise the message stays queued (and is flushed on heal, or
// implicitly lost if the link never heals — the CO_RFIFO lose action for
// non-reliable destinations).
func (e *engine) onSend(from, to types.ProcID, _ types.WireMsg) {
	if !e.connected(from, to) {
		return
	}
	e.scheduleDelivery(from, to)
}

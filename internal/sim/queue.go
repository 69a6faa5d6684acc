// Package sim provides a deterministic discrete-event simulation harness
// that composes GCS end-points (internal/core) with the CO_RFIFO substrate
// (internal/corfifo) and a membership service (internal/membership), exactly
// as in the composition of Section 5 (Figure 8). A seeded virtual clock,
// configurable link-latency models, partitions, churn, and crash/recovery
// make whole-system executions reproducible, and every external event is fed
// to the specification checkers of internal/spec. The same worlds run under a
// stateless model checker (Exhaustive, Swarm): a chooser replaces the clock
// and enumerates the interleavings the clock would only sample.
package sim

import "time"

// event is one scheduled simulator step: fn, or, when fn is nil, the
// CO_RFIFO delivery on the link of the channel deliver names.
type event struct {
	at      time.Duration
	seq     int64
	fn      func()
	deliver *chanState
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a binary min-heap of events held by value, ordered by (time,
// insertion sequence); the sequence number makes simultaneous events fire in
// scheduling order, which keeps executions deterministic. The order is total,
// so what pops next does not depend on the heap's shape.
type eventQueue struct {
	items []event
	seq   int64
}

func (q *eventQueue) push(at time.Duration, fn func(), deliver *chanState) {
	q.seq++
	q.items = append(q.items, event{at: at, seq: q.seq, fn: fn, deliver: deliver})
	// Sift up.
	h := q.items
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() (event, bool) {
	h := q.items
	n := len(h) - 1
	if n < 0 {
		return event{}, false
	}
	top := h[0]
	h[0] = h[n]
	h[n] = event{} // drop the step's references
	h = h[:n]
	q.items = h
	// Sift down.
	i := 0
	for {
		least := i
		if l := 2*i + 1; l < n && h[l].before(&h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].before(&h[least]) {
			least = r
		}
		if least == i {
			return top, true
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

func (q *eventQueue) peek() (event, bool) {
	if len(q.items) == 0 {
		return event{}, false
	}
	return q.items[0], true
}

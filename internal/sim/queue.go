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

import (
	"container/heap"
	"time"
)

// event is one scheduled simulator step.
type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

// eventQueue is a min-heap ordered by (time, insertion sequence); the
// sequence number makes simultaneous events fire in scheduling order, which
// keeps executions deterministic.
type eventQueue struct {
	items []event
	seq   int64
}

func (q *eventQueue) Len() int { return len(q.items) }

func (q *eventQueue) Less(i, j int) bool {
	if q.items[i].at != q.items[j].at {
		return q.items[i].at < q.items[j].at
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *eventQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *eventQueue) Push(x any) { q.items = append(q.items, x.(event)) }

func (q *eventQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	q.items = old[:n-1]
	return it
}

func (q *eventQueue) push(at time.Duration, fn func()) {
	q.seq++
	heap.Push(q, event{at: at, seq: q.seq, fn: fn})
}

func (q *eventQueue) pop() (event, bool) {
	if q.Len() == 0 {
		return event{}, false
	}
	return heap.Pop(q).(event), true
}

func (q *eventQueue) peek() (event, bool) {
	if q.Len() == 0 {
		return event{}, false
	}
	return q.items[0], true
}

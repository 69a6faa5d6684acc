package main

import (
	"sync"
	"time"

	"vsgm/internal/core"
)

// liveRun is what the TCP workloads share: a tracker that follows every
// multicast, a stage trace when the run is traced, and a formed cluster whose
// members report into both.
type liveRun struct {
	t *tracker
	c *liveCluster
	g *segment
}

// startLive forms a fresh cluster for segment g. The first senders members
// send, the first permanent members must deliver everything, and window is
// the closed-loop depth per sender (0 = open loop).
func startLive(g *segment, permanent, senders, window int, traced bool) (*liveRun, error) {
	t := newTracker(numMembers, permanent, senders, window)
	if traced {
		g.trace = newStageTrace(t, numMembers, senders)
	}
	c, setup, err := newLiveCluster(traced, func(i int) memberHooks {
		var h memberHooks
		if traced {
			s := -1
			if i < senders {
				s = i
			}
			h = g.trace.hooks(i, memberIDs[i], s)
		}
		h.onEvent = func(ev core.Event) { t.onEvent(i, ev) }
		return h
	})
	if err != nil {
		g.attempted, g.failed = 1, 1
		g.problemf("set-up: %v", err)
		if c != nil {
			within(closeDeadline, c.close)
		}
		return nil, errStalled
	}
	g.setup = setup
	return &liveRun{t: t, c: c, g: g}, nil
}

// measure brackets the timed phase: body runs with the phase set to timed and
// the registry snapshotted on either side.
func (r *liveRun) measure(body func()) {
	before := snapshotCounters(r.c.reg)
	r.t.phase.Store(phaseTimed)
	began := time.Now()
	body()
	r.t.phase.Store(phaseDrain)
	r.g.seconds = time.Since(began).Seconds()
	r.g.deltas = snapshotCounters(r.c.reg).since(before)
}

// finish ends a segment whose generators have been told to stop: it waits for
// them to return, for everything they sent to be delivered everywhere, checks
// the outputs and closes the cluster. sent is read only once the generators
// have returned. Every wait has a deadline; errStalled means one expired.
func (r *liveRun) finish(generators *sync.WaitGroup, sent func() (perSender []uint64, errors int64), stalled bool) error {
	g, t := r.g, r.t
	var perSender []uint64
	if !within(opDeadline, generators.Wait) {
		stalled = true
		g.problemf("a generator is still parked inside Node.Send %v after the run ended", opDeadline)
	} else {
		var errors int64
		perSender, errors = sent()
		g.failed += errors
		g.attempted += errors
		var total uint64
		for _, n := range perSender {
			total += n
		}
		g.attempted += int64(total)
		deadline := time.Now().Add(opDeadline)
		for uint64(t.completed.Load()) < total && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	if !stalled {
		if err := r.c.sameView([]int{0, 1, 2, 3}); err != nil {
			g.problemf("views diverged: %v", err)
		}
	}
	closeBegan := time.Now()
	if !within(closeDeadline, r.c.close) {
		g.closeT = closeDeadline
		g.problemf("cluster did not close within %v", closeDeadline)
		return errStalled
	}
	g.closeT = time.Since(closeBegan)

	// The cluster is closed: every event pump has exited, so the per-member
	// state is safe to read.
	var violations int64
	g.done, g.latency, violations = t.totals()
	if violations > 0 {
		g.failed += violations
		g.problemf("%d deliveries out of FIFO order or with a gap", violations)
	}
	if perSender != nil {
		if miss := t.missing(perSender); miss > 0 {
			g.failed += miss
			g.problemf("%d (multicast, member) deliveries missing %v after the run", miss, opDeadline)
		}
	}
	if g.trace != nil {
		if err := g.trace.specErr(); err != nil {
			g.failed++
			g.problemf("specification suite: %v", err)
		}
	}
	if stalled {
		return errStalled
	}
	return nil
}

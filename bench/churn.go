package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"vsgm/internal/live"
	"vsgm/internal/types"
)

// churn_paced: the first three members send on an open-loop schedule while
// the fourth, which only receives, is removed and re-added alternately.
const (
	churnSenders  = 3
	churnPayload  = 256
	churnRate     = 600 // multicasts per second per sender
	churnInterval = 20 * time.Millisecond
)

// pacer is an open-loop schedule: send k is due at start+k*interval whatever
// happened to the sends before it, so a stall shows up as latency on every
// send that fell due meanwhile instead of silently lowering the offered load.
type pacer struct {
	start, interval int64
	k               int64
	now             func() int64
	// sleep waits for d nanoseconds and reports false once the run is over.
	sleep func(d int64) bool
}

// next blocks until the next send is due and returns its index, the instant
// it was due and the instant the generator actually got to it; ok is false
// once the run is over.
func (p *pacer) next() (k, due, entry int64, ok bool) {
	k = p.k
	due = p.start + k*p.interval
	if wait := due - p.now(); !p.sleep(max(wait, 0)) {
		return 0, 0, 0, false
	}
	p.k++
	return k, due, p.now(), true
}

// call is one Node.Send invocation of the paced generator.
type call struct{ entry, took int64 }

// paced is the open-loop generator's private state.
type paced struct {
	sent     []uint64
	errors   int64
	late     hist // entry - due
	sendCall hist
	calls    []call // timed phase, in entry order
}

func (t *tracker) openLoop(nodes []*live.Node, payloads [][]byte, interval time.Duration, stop <-chan struct{}, out *paced) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	p := &pacer{
		start:    t.now(),
		interval: int64(interval),
		now:      t.now,
		sleep: func(d int64) bool {
			if d == 0 {
				select {
				case <-stop:
					return false
				default:
					return true
				}
			}
			timer.Reset(time.Duration(d))
			select {
			case <-stop:
				return false
			case <-timer.C:
				return true
			}
		},
	}
	for {
		k, due, entry, ok := p.next()
		if !ok {
			return
		}
		s := int(k) % len(nodes)
		stamp(payloads[s], out.sent[s], due)
		_, err := nodes[s].Send(payloads[s])
		back := t.now()
		if err != nil {
			out.errors++
			continue
		}
		if t.stages != nil {
			t.stages.sendReturned(s, out.sent[s])
		}
		if t.phase.Load() == phaseTimed {
			out.late.add(entry - due)
			out.sendCall.add(back - entry)
			out.calls = append(out.calls, call{entry, back - entry})
		}
		out.sent[s]++
	}
}

// viewChange is one removal or re-addition of the churning member.
type viewChange struct {
	at, took int64 // trigger instant and trigger -> last member installed
	timed    bool
}

// churnSegment is a segment plus what only churn_paced measures.
type churnSegment struct {
	segment
	changes     []viewChange
	late        *hist
	startChange *hist   // trigger -> first start_change notification (traced)
	viewTiles   *tiling // view_notify, install_after_view, pump (traced)
	gaps        []int64 // per timed view change: longest Node.Send begun in it
	// Sync sends summed over the completed reconfiguration spans, and the spans.
	syncRounds, syncSpans float64
}

func runChurnSegment(seed int64, warm, timed time.Duration, traced bool) (*churnSegment, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &churnSegment{startChange: new(hist), viewTiles: newTiling(3)}
	r, err := startLive(&g.segment, churnSenders, churnSenders, 0, traced)
	if err != nil {
		return g, err
	}
	c, t := r.c, r.t

	stop := make(chan struct{})
	gen := &paced{sent: make([]uint64, churnSenders)}
	payloads := make([][]byte, churnSenders)
	for s := range payloads {
		payloads[s] = fillPayload(rng, churnPayload, s)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t.openLoop(c.nodes[:churnSenders], payloads, time.Second/(churnRate*churnSenders), stop, gen)
	}()

	// The view-change driver runs here, on the run's own goroutine.
	churner := numMembers - 1
	all := types.NewProcSet(memberIDs...)
	rest := types.NewProcSet(memberIDs[:churner]...)
	out := false
	change := func() bool {
		target := all
		if !out {
			target = rest
		}
		if g.trace != nil {
			g.trace.firstStartChange.Store(0)
		}
		c.await(target)
		trigger := time.Now()
		if out {
			c.homes[churner].AddClient(memberIDs[churner])
			c.homes[churner].Reconfigure()
		} else {
			for _, sn := range c.servers {
				sn.RemoveClient(memberIDs[churner])
			}
			c.servers[0].Reconfigure()
		}
		at, ok := c.waitInstalled(opDeadline)
		g.attempted++
		if !ok {
			g.failed++
			g.problemf("view %s not installed by all its members within %v", target, opDeadline)
			return false
		}
		out = !out
		isTimed := t.phase.Load() == phaseTimed
		trig := t.sinceEpoch(trigger)
		g.changes = append(g.changes, viewChange{at: trig, took: int64(at.Sub(trigger)), timed: isTimed})
		if g.trace != nil && isTimed {
			c.mu.Lock()
			last := c.lastBy
			c.mu.Unlock()
			notified := g.trace.viewNotifyAt[last].Load()
			observed := g.trace.viewObservedAt[last].Load()
			g.viewTiles.add(notified-trig, observed-notified, t.sinceEpoch(at)-observed)
			if sc := g.trace.firstStartChange.Load(); sc != 0 {
				g.startChange.add(sc - trig)
			}
		}
		return true
	}
	stalled := false
	churnFor := func(d time.Duration) {
		end := time.Now().Add(d)
		next := time.Now().Add(churnInterval)
		for !stalled && next.Before(end) {
			time.Sleep(time.Until(next))
			if !change() {
				stalled = true
			}
			next = next.Add(churnInterval)
			if now := time.Now(); next.Before(now) {
				next = now // a slow change does not earn a burst of catch-up changes
			}
		}
		if !stalled {
			time.Sleep(time.Until(end))
		}
	}
	churnFor(warm)
	r.measure(func() { churnFor(timed) })
	if !stalled && out {
		stalled = !change() // end with the full group back together
	}
	close(stop)
	err = r.finish(&wg, func() ([]uint64, int64) { return gen.sent, gen.errors }, stalled)

	g.sendCall, g.late = &gen.sendCall, &gen.late
	// This workload's operation is the view change, not the multicast.
	g.op = new(hist)
	for _, vc := range g.changes {
		if vc.timed {
			g.op.add(vc.took)
		}
	}
	g.done = g.op.n
	g.gaps = serviceGaps(g.changes, gen.calls)
	if c.tracer != nil {
		for _, sp := range c.tracer.Completed() {
			if sp.Completed {
				g.syncRounds += float64(sp.SyncRounds)
				g.syncSpans++
			}
		}
	}
	return g, err
}

// serviceGaps returns, for every timed view change, the longest Node.Send
// call that began while it was in progress (0 when none did): the service gap
// the change imposed on the application.
func serviceGaps(changes []viewChange, calls []call) []int64 {
	var gaps []int64
	for _, vc := range changes {
		if !vc.timed {
			continue
		}
		lo := sort.Search(len(calls), func(i int) bool { return calls[i].entry >= vc.at })
		var gap int64
		for _, cl := range calls[lo:] {
			if cl.entry > vc.at+vc.took {
				break
			}
			gap = max(gap, cl.took)
		}
		gaps = append(gaps, gap)
	}
	return gaps
}

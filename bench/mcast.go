package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vsgm/internal/live"
)

// mcastParams shapes a closed-loop multicast workload: the first senders of
// the numMembers members each keep window multicasts of payload bytes
// outstanding.
type mcastParams struct {
	senders int
	payload int
	window  int
}

var (
	mcastStream = mcastParams{senders: 2, payload: 256, window: 16}
	mcastBulk   = mcastParams{senders: 1, payload: 16 << 10, window: 8}
)

// errStalled marks a run the watchdog gave up on: some wait outlived its
// deadline. The caller decides whether that is fatal.
var errStalled = errors.New("stalled")

// segment is the outcome of one cluster lifetime: set up, warm up, measure,
// drain, check, tear down.
type segment struct {
	setup   time.Duration
	seconds float64 // length of the timed phase
	closeT  time.Duration

	done      int64 // operations completed in the timed phase
	latency   *hist // send (or due) -> delivered everywhere; kv_mixed: Router.Set
	op        *hist // latency of the workload's operation; latency unless set
	sendCall  *hist // time inside Node.Send, timed phase
	attempted int64
	failed    int64
	problems  []string // output checks that did not hold

	deltas counters    // registry growth over the timed phase
	trace  *stageTrace // traced runs only
	stalls int64       // gaps > 100 ms between completions (engine probe)
}

func (g *segment) problemf(format string, args ...any) {
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

// sender is one closed-loop load generator goroutine's private state.
type sender struct {
	sent     uint64
	errors   int64
	sendCall hist
}

func (t *tracker) closedLoop(node *live.Node, s int, payload []byte, stop <-chan struct{}, out *sender) {
	for {
		select {
		case <-stop:
			return
		case <-t.tokens[s]:
		}
		select {
		case <-stop:
			return
		default:
		}
		at := t.now()
		stamp(payload, out.sent, at)
		_, err := node.Send(payload)
		back := t.now()
		if err != nil {
			out.errors++
			t.tokens[s] <- struct{}{}
			time.Sleep(time.Millisecond) // do not spin on a node that refuses
			continue
		}
		if t.stages != nil {
			t.stages.sendReturned(s, out.sent)
		}
		if t.phase.Load() == phaseTimed {
			out.sendCall.add(back - at)
		}
		out.sent++
	}
}

// runMcastSegment runs one closed-loop segment on a fresh cluster. On
// errStalled the segment holds what was measured up to the stall.
func runMcastSegment(p mcastParams, seed int64, warm, timed time.Duration, traced bool) (*segment, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &segment{sendCall: new(hist)}
	r, err := startLive(g, numMembers, p.senders, p.window, traced)
	if err != nil {
		return g, err
	}
	stop := make(chan struct{})
	senders := make([]sender, p.senders)
	var wg sync.WaitGroup
	for s := 0; s < p.senders; s++ {
		wg.Add(1)
		payload := fillPayload(rng, p.payload, s)
		go func(s int) {
			defer wg.Done()
			r.t.closedLoop(r.c.nodes[s], s, payload, stop, &senders[s])
		}(s)
	}
	stalled := !r.t.progressFor(warm, &g.stalls)
	r.measure(func() {
		if !stalled {
			stalled = !r.t.progressFor(timed, &g.stalls)
		}
	})
	close(stop)
	err = r.finish(&wg, func() ([]uint64, int64) {
		per := make([]uint64, p.senders)
		var errors int64
		for s := range senders {
			per[s] = senders[s].sent
			errors += senders[s].errors
			g.sendCall.merge(&senders[s].sendCall)
		}
		return per, errors
	}, stalled)
	return g, err
}

// progressFor sleeps for d while checking that multicasts keep completing; it
// returns false as soon as none has for opDeadline. stalls counts the gaps
// over 100 ms it noticed.
func (t *tracker) progressFor(d time.Duration, stalls *int64) bool {
	const tick = 20 * time.Millisecond
	end := time.Now().Add(d)
	last, lastAt := t.completed.Load(), time.Now()
	inGap := false
	for time.Now().Before(end) {
		time.Sleep(tick)
		now := time.Now()
		if cur := t.completed.Load(); cur != last {
			last, lastAt, inGap = cur, now, false
			continue
		}
		if idle := now.Sub(lastAt); idle > opDeadline {
			return false
		} else if idle > 100*time.Millisecond && !inGap {
			inGap = true
			*stalls++
		}
	}
	return true
}

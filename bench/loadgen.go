package main

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"time"

	"vsgm/internal/core"
)

// Every payload starts with this header, so any member can tell who sent a
// message, where it sits in that sender's stream, and when its send began
// (open loop: when it was due). The rest is seeded filler.
const (
	hdrSender = 0  // 1 byte
	hdrSeq    = 1  // 8 bytes
	hdrStamp  = 9  // 8 bytes, ns since the tracker's epoch
	hdrLen    = 17 // smallest payload a workload may use
)

// Run phases; deliveries are measured only while the phase is phaseTimed.
const (
	phaseWarm int32 = iota
	phaseTimed
	phaseDrain
)

// tracker follows every multicast from its send to its delivery at each
// permanent member and checks the outputs on the way: per (sender, receiver)
// the sequence numbers must arrive gap-free and in FIFO order.
//
// A message is complete — and only then releases its window slot — when all
// permanent members have delivered it; the sender's own immediate
// self-delivery is one of those and cannot complete it alone.
type tracker struct {
	epoch     time.Time
	permanent int // members 0..permanent-1 must deliver every message
	ring      int // slots per sender, a power of two >= outstanding sends
	phase     atomic.Int32

	slots  [][]atomic.Int32 // [sender][seq&(ring-1)] deliveries so far
	tokens []chan struct{}  // per sender window; nil in open loop
	stages *stageTrace      // nil in untraced runs

	recv      []receiverState // per member, touched only by its event pump
	completed atomic.Int64    // all phases; the watchdog's progress signal
}

type receiverState struct {
	next       []uint64 // per sender: next expected sequence number
	violations int64    // FIFO or gap violations seen
	timedDone  int64    // messages this member completed in the timed phase
	latency    hist     // send (or due) -> completion, timed phase only
	_          [64]byte
}

// newTracker sizes the tracker; window 0 means open loop (no slot limit; the
// ring then only has to outlast the watchdog, 16384 slots = 9 s at 1800/s).
func newTracker(members, permanent, senders, window int) *tracker {
	ring := 1 << 14
	if window > 0 {
		ring = 1
		for ring < window {
			ring <<= 1
		}
	}
	t := &tracker{epoch: time.Now(), permanent: permanent, ring: ring}
	t.slots = make([][]atomic.Int32, senders)
	t.tokens = make([]chan struct{}, senders)
	for s := range t.slots {
		t.slots[s] = make([]atomic.Int32, ring)
		if window > 0 {
			t.tokens[s] = make(chan struct{}, window)
			for i := 0; i < window; i++ {
				t.tokens[s] <- struct{}{}
			}
		}
	}
	t.recv = make([]receiverState, members)
	for r := range t.recv {
		t.recv[r].next = make([]uint64, senders)
	}
	return t
}

func (t *tracker) now() int64 { return int64(time.Since(t.epoch)) }

// sinceEpoch converts a wall-clock instant to the tracker's time base.
func (t *tracker) sinceEpoch(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// fillPayload writes the seeded filler once; stamp rewrites the header.
func fillPayload(rng *rand.Rand, size, sender int) []byte {
	p := make([]byte, size)
	rng.Read(p)
	p[hdrSender] = byte(sender)
	return p
}

func stamp(p []byte, seq uint64, at int64) {
	binary.BigEndian.PutUint64(p[hdrSeq:], seq)
	binary.BigEndian.PutUint64(p[hdrStamp:], uint64(at))
}

// onEvent is member r's application callback.
func (t *tracker) onEvent(r int, ev core.Event) {
	de, ok := ev.(core.DeliverEvent)
	if !ok {
		return
	}
	p := de.Msg.Payload
	if len(p) < hdrLen {
		t.recv[r].violations++
		return
	}
	s := int(p[hdrSender])
	seq := binary.BigEndian.Uint64(p[hdrSeq:])
	sent := int64(binary.BigEndian.Uint64(p[hdrStamp:]))
	t.delivered(r, s, seq, sent)
}

func (t *tracker) delivered(r, s int, seq uint64, sent int64) {
	var observedAt int64
	if t.stages != nil {
		observedAt = t.stages.popObserved(r)
	}
	st := &t.recv[r]
	if r >= t.permanent {
		// A member that leaves and rejoins legitimately misses what was sent
		// while it was out; its stream must still never go backwards.
		if seq < st.next[s] {
			st.violations++
		}
		st.next[s] = seq + 1
		return
	}
	if seq != st.next[s] {
		st.violations++
	}
	st.next[s] = seq + 1
	slot := &t.slots[s][seq&uint64(t.ring-1)]
	if int(slot.Add(1)) < t.permanent {
		return
	}
	// Last permanent member: the multicast is delivered everywhere.
	slot.Store(0)
	now := t.now()
	if t.phase.Load() == phaseTimed {
		st.timedDone++
		st.latency.add(now - sent)
		if t.stages != nil {
			t.stages.complete(r, s, seq, sent, observedAt, now)
		}
	}
	t.completed.Add(1)
	if tok := t.tokens[s]; tok != nil {
		tok <- struct{}{}
	}
}

// totals merges the per-member results after the run has drained.
func (t *tracker) totals() (done int64, latency *hist, violations int64) {
	latency = new(hist)
	for r := range t.recv {
		done += t.recv[r].timedDone
		violations += t.recv[r].violations
		latency.merge(&t.recv[r].latency)
	}
	return done, latency, violations
}

// missing counts (sender, permanent member) streams that stopped short of
// what was sent: each is a multicast not delivered everywhere.
func (t *tracker) missing(sent []uint64) int64 {
	var n int64
	for r := 0; r < t.permanent; r++ {
		for s, want := range sent {
			if got := t.recv[r].next[s]; got < want {
				n += int64(want - got)
			}
		}
	}
	return n
}

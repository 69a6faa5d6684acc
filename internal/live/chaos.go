package live

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"vsgm/internal/types"
	"vsgm/internal/wire"
)

// Chaos is a fabric's fault-injection controller: it degrades the node's
// links on command so tests (and operators) can watch the transport — and
// the group-membership layers above it — absorb adverse network conditions.
// All knobs are safe to flip while traffic is flowing.
//
// Faults are injected at frame granularity on the outbound path (latency,
// probabilistic drops and duplicates, per-peer partitions) and below frame
// granularity on the socket (partial writes). Framing is never corrupted:
// a dropped frame is a cleanly missing frame, exactly like a frame lost to
// a severed link, so the semantics match the simulator's lossy network.
//
// Note the spec caveat: probabilistic drops and duplicates violate the
// reliable-FIFO substrate the GCS automata assume between live processes,
// so spec-checked runs should confine them to idempotent traffic (e.g.
// heartbeats) or accept liveness-only assertions; partitions, latency, and
// partial writes are safe under the full checkers because the membership
// protocol observes and repairs them.
type Chaos struct {
	mu            sync.Mutex
	rng           *rand.Rand
	latency       time.Duration
	latencyJitter time.Duration
	dropProb      float64
	dropFor       map[types.ProcID]float64
	dupProb       float64
	partialWrites bool
	trickleGap    time.Duration
	blockOut      map[types.ProcID]bool
}

func newChaos() *Chaos {
	return &Chaos{
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		dropFor:  make(map[types.ProcID]float64),
		blockOut: make(map[types.ProcID]bool),
	}
}

// SetLatency delays every outbound frame by base plus a uniform random
// extra of up to jitter.
func (c *Chaos) SetLatency(base, jitter time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latency, c.latencyJitter = base, jitter
}

// SetDropProbability makes each outbound frame vanish with probability p.
func (c *Chaos) SetDropProbability(p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropProb = p
}

// SetDropProbabilityFor makes each outbound frame addressed to one of the
// given peers vanish with probability p, leaving other links faithful —
// lossy server-to-server trunks with healthy client links, for example. It
// overrides the global probability for those peers; p = 0 removes the
// override.
func (c *Chaos) SetDropProbabilityFor(p float64, peers ...types.ProcID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, q := range peers {
		if p <= 0 {
			delete(c.dropFor, q)
		} else {
			c.dropFor[q] = p
		}
	}
}

// SetDuplicateProbability makes each outbound frame go out twice with
// probability p.
func (c *Chaos) SetDuplicateProbability(p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dupProb = p
}

// SetPartialWrites fragments every socket write into small chunks,
// exercising reader resilience against arbitrarily segmented streams.
func (c *Chaos) SetPartialWrites(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.partialWrites = on
}

// SetTrickle turns this node into a slow sender: every socket write is
// stretched to one byte per gap, the classic slow-loris shape. Receivers
// sever such a peer once a frame overruns their read-progress budget (two
// WriteTimeouts) rather than hold a parser open forever; frames that fit in
// the budget arrive, just very slowly. Zero turns the fault off.
func (c *Chaos) SetTrickle(gap time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trickleGap = gap
}

// BlockOutbound silently discards frames addressed to the given peers —
// this node's half of a partition. Blocking only one direction yields a
// one-way partition.
func (c *Chaos) BlockOutbound(peers ...types.ProcID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range peers {
		c.blockOut[p] = true
	}
}

// Unblock lifts outbound blocks for the given peers.
func (c *Chaos) Unblock(peers ...types.ProcID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range peers {
		delete(c.blockOut, p)
	}
}

// Heal restores a faithful network: all blocks, probabilities, latency, and
// write fragmentation are cleared.
func (c *Chaos) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latency, c.latencyJitter = 0, 0
	c.dropProb, c.dupProb = 0, 0
	c.dropFor = make(map[types.ProcID]float64)
	c.partialWrites = false
	c.trickleGap = 0
	c.blockOut = make(map[types.ProcID]bool)
}

// chaosVerdict is the fate of one outbound frame.
type chaosVerdict struct {
	delay time.Duration
	drop  bool
	dup   bool
}

func (c *Chaos) outbound(peer types.ProcID) chaosVerdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	var v chaosVerdict
	if c.blockOut[peer] {
		v.drop = true
		return v
	}
	v.delay = c.latency
	if c.latencyJitter > 0 {
		v.delay += time.Duration(c.rng.Int63n(int64(c.latencyJitter) + 1))
	}
	drop := c.dropProb
	if p, ok := c.dropFor[peer]; ok {
		drop = p
	}
	if drop > 0 && c.rng.Float64() < drop {
		v.drop = true
		return v
	}
	if c.dupProb > 0 && c.rng.Float64() < c.dupProb {
		v.dup = true
	}
	return v
}

func (c *Chaos) partialWritesOn() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.partialWrites
}

// shapesWrites reports whether a write-shaping fault (partial writes or
// trickle) is on.
func (c *Chaos) shapesWrites() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.partialWrites || c.trickleGap > 0
}

func (c *Chaos) trickle() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trickleGap
}

// wrap interposes the chaos controller between an encoder and its socket.
func (c *Chaos) wrap(conn net.Conn) net.Conn {
	return &chaosConn{Conn: conn, chaos: c}
}

// chaosConn fragments writes into small chunks when partial-write injection
// is on. Bytes are never reordered or lost, so framing stays intact — the
// fault is purely in how the stream is segmented on the wire.
type chaosConn struct {
	net.Conn
	chaos *Chaos
}

var _ wire.BuffersWriter = (*chaosConn)(nil)

// WriteBuffers is the link writer's vectored write: with no write-shaping
// fault on, a run of frames reaches the socket as one writev; with partial
// writes or trickle on, each frame goes through Write, which shapes it.
func (cc *chaosConn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	if cc.chaos.shapesWrites() {
		return bufs.WriteTo(cc) // one Write per frame: cc has no writev of its own
	}
	return bufs.WriteTo(cc.Conn)
}

const partialWriteChunk = 7

func (cc *chaosConn) Write(p []byte) (int, error) {
	if gap := cc.chaos.trickle(); gap > 0 {
		total := 0
		for len(p) > 0 {
			n, err := cc.Conn.Write(p[:1])
			total += n
			if err != nil {
				return total, err
			}
			p = p[1:]
			if len(p) > 0 {
				time.Sleep(gap)
			}
		}
		return total, nil
	}
	if !cc.chaos.partialWritesOn() {
		return cc.Conn.Write(p)
	}
	total := 0
	for len(p) > 0 {
		k := min(partialWriteChunk, len(p))
		n, err := cc.Conn.Write(p[:k])
		total += n
		if err != nil {
			return total, err
		}
		p = p[k:]
	}
	return total, nil
}

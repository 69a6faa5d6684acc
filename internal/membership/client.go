package membership

import (
	"time"

	"vsgm/internal/types"
)

// ClientState is what a Client shows its host: the attachment, the
// identifier watermarks, and counters of what it did.
type ClientState struct {
	Home  types.ProcID // "" while courting
	Epoch int64        // attach epoch; it increments on every failover
	CID   types.StartChangeID
	Vid   types.ViewID // with CID, the largest identifiers accepted

	Attaches      int64 // completed attachments (first and after failover)
	Failovers     int64 // homes abandoned: silent past the timeout, link down, or evicted
	AttachRetries int64 // requests re-sent while courting an unresponsive server
	StaleNotifies int64 // notifications refused by the filter
	SelfClamps    int64 // impossible local watermarks clamped on a tick
}

// Client is the client half of the in-band attach protocol: it courts a home
// server from a fixed list, keeps the attachment alive, fails over down the
// list (wrapping around) under a fresh epoch when the home goes silent, dies
// or evicts it, and filters the notification stream so that only the current
// home is heard and identifiers only move forward.
//
// Like Server and Detector it is a passive state machine, with no goroutine,
// no lock and no clock: every time-dependent input carries now, the host
// serializes the calls, and the frames it sends go out through the send
// function it was built with.
type Client struct {
	id      types.ProcID
	homes   []types.ProcID
	idx     int // index into homes of the courted target
	home    types.ProcID
	epoch   int64
	lastAck time.Time
	timeout time.Duration
	send    func(types.ProcID, Attach)

	// lastCID/lastVid are the identifier high-water marks: the largest
	// start-change id and view id accepted (from notifications or acks).
	// They ride every request as the claim the server merges, floor the
	// notification filter, and only max-merge. lastSC is the id of the last
	// accepted start_change — the value the MBRSHP spec requires the next
	// view's startId entry to equal.
	lastCID types.StartChangeID
	lastVid types.ViewID
	lastSC  types.StartChangeID

	stats ClientState // counters only; State fills in the rest
}

// NewClient builds the attach automaton for client id with a non-empty home
// list. It starts courting homes[0] under epoch 1 at now, abandons a home
// that acks nothing for longer than timeout, and sends through send.
func NewClient(id types.ProcID, homes []types.ProcID, timeout time.Duration, now time.Time, send func(types.ProcID, Attach)) *Client {
	return &Client{id: id, homes: append([]types.ProcID(nil), homes...), epoch: 1, lastAck: now, timeout: timeout, send: send}
}

// target is the server being courted (the home once it has acked).
func (c *Client) target() types.ProcID { return c.homes[c.idx%len(c.homes)] }

// Tick performs one round of attach maintenance: clamp impossible
// watermarks, fail over if the home has been silent past the timeout, then
// send an attach request to the target — a keepalive when attached, a retry
// when not. The request carries the watermarks as a claim, so even a home
// with cold state (a resurrected store, an empty gossip cache) mints
// identifiers strictly above everything this client has seen.
func (c *Client) Tick(now time.Time) {
	c.sanitizeSelf()
	if now.Sub(c.lastAck) > c.timeout {
		c.failover(now)
	}
	if c.home == "" && c.stats.Attaches > 0 {
		c.stats.AttachRetries++
	}
	c.send(c.target(), Attach{Kind: AttachRequest, Client: c.id, Epoch: c.epoch, CID: c.lastCID, Vid: c.lastVid})
}

// sanitizeSelf is the client half of self-stabilizing recovery: it clamps
// watermarks no correct execution produces (negative, above the plausibility
// ceilings) back to values the attach claim can re-float from. Without it a
// client restored from — or scrambled into — arbitrary state would refuse
// every notification forever: the filter only moves forward, and the server
// sanitizes an impossible claim to zero, so the views it mints would sit
// below the poisoned floor. Huge but possible watermarks are left to the
// claim, which the server mints above.
func (c *Client) sanitizeSelf() {
	rec, st := SanitizeClaim(ClientRecord{CID: c.lastCID, Vid: c.lastVid, Epoch: c.epoch})
	if st.Total() > 0 {
		c.lastCID, c.lastVid, c.epoch = rec.CID, rec.Vid, rec.Epoch
		c.stats.SelfClamps++
	}
	// lastSC is never above the cid watermark; an impossible value would heal
	// on the next accepted start_change, but clamping it spares one refused
	// view round.
	if c.lastSC > c.lastCID || c.lastSC < 0 {
		c.lastSC = c.lastCID
		c.stats.SelfClamps++
	}
}

// failover abandons the target: a best-effort detach rescinds only the
// current epoch (so it cannot evict a future re-attach), and courting moves
// to the next server in the list under a fresh epoch.
func (c *Client) failover(now time.Time) {
	c.send(c.target(), Attach{Kind: AttachDetach, Client: c.id, Epoch: c.epoch})
	c.idx++
	c.epoch++
	c.home = ""
	c.lastAck = now
	c.stats.Failovers++
}

// HandleAttach applies an attach frame from server from. An ack from the
// target completes or refreshes the attachment; the host applies it on the
// receive path, so the home is set before the notifications behind it on
// the same FIFO link reach AcceptNotify. An ack may carry a higher epoch:
// the server remembers an earlier incarnation of this client (Section 8
// recovery), and adopting its epoch resumes that identity. A detach from
// the home is an eviction, and fails over.
func (c *Client) HandleAttach(from types.ProcID, a Attach, now time.Time) {
	switch a.Kind {
	case AttachAck:
		if from != c.target() || a.Epoch < c.epoch {
			return // stale ack from an abandoned target or epoch
		}
		c.epoch = a.Epoch
		if c.home != from {
			c.home = from
			c.stats.Attaches++
		}
		c.lastAck = now
		// Max-merge: an ack from a home with stale state must not lower the
		// watermarks the filter enforces.
		c.lastCID = max(c.lastCID, a.CID)
		c.lastVid = max(c.lastVid, a.Vid)
	case AttachDetach:
		c.LinkDown(from, now)
	}
}

// LinkDown reports a failed link to peer. A broken link to the home is
// positive evidence, so the client fails over at once instead of waiting
// out the silent-home timeout.
func (c *Client) LinkDown(peer types.ProcID, now time.Time) {
	if peer == c.home && c.home != "" {
		c.failover(now)
	}
}

// AcceptNotify is the client side of the MBRSHP discipline: only the current
// home is heard, start-change ids must strictly increase, and a view must
// carry an increasing id whose startId entry for this client is the last
// accepted start_change. Anything else is the residue of a stale attempt —
// a previous home not yet evicted, or the home's attempt from before this
// attachment — and is refused, because the end-point (and the spec) require
// a locally monotone stream. An accepted notification advances the
// watermarks.
func (c *Client) AcceptNotify(from types.ProcID, n *Notification) bool {
	ok := from == c.home
	switch {
	case !ok:
	case n.Kind == NotifyStartChange:
		if ok = n.StartChange.ID > c.lastCID; ok {
			c.lastCID, c.lastSC = n.StartChange.ID, n.StartChange.ID
		}
	case n.Kind == NotifyView:
		if ok = n.View.ID > c.lastVid && n.View.StartID[c.id] == c.lastSC; ok {
			c.lastVid = n.View.ID
		}
	}
	if !ok {
		c.stats.StaleNotifies++
	}
	return ok
}

// Complain sends a slow-consumer complaint about laggard to every server in
// the home list but the laggard itself: its home evicts and bans a client,
// the others' detectors hear about a server.
func (c *Client) Complain(laggard types.ProcID) {
	for _, s := range c.homes {
		if s != laggard {
			c.send(s, Attach{Kind: AttachSuspect, Client: laggard})
		}
	}
}

// Scramble overwrites the watermarks (start-change id, view id, last
// accepted start-change) with arbitrary values: the chaos hook that proves
// the claim, the filter and the self-clamp re-converge a client from any
// state.
func (c *Client) Scramble(cid types.StartChangeID, vid types.ViewID, sc types.StartChangeID) {
	c.lastCID, c.lastVid, c.lastSC = cid, vid, sc
}

// State snapshots the attachment, the watermarks and the counters.
func (c *Client) State() ClientState {
	st := c.stats
	st.Home, st.Epoch, st.CID, st.Vid = c.home, c.epoch, c.lastCID, c.lastVid
	return st
}

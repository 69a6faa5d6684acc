package membership

import (
	"math"
	"time"

	"vsgm/internal/types"
)

// Defaults for the zero DetectorConfig. Exported so the operator docs and
// the CLI flag defaults cannot drift from the implementation.
const (
	// DefaultDetectorWindow is the inter-arrival sliding-window length.
	DefaultDetectorWindow = 32
	// DefaultSuspectPhi is the accrual score at which an unsuspected peer
	// becomes suspected.
	DefaultSuspectPhi = 8.0
	// DefaultRestorePhi is the accrual score at or below which a suspected
	// peer is restored. The band between the two thresholds is the
	// hysteresis zone: a peer whose score sits inside it keeps its current
	// verdict, so one late heartbeat cannot flip it.
	DefaultRestorePhi = 1.0
	// DefaultQuarantineBase is the first rejoin quarantine a flapping peer
	// earns once it crosses the flap threshold.
	DefaultQuarantineBase = 250 * time.Millisecond
	// DefaultQuarantineCap bounds the exponential quarantine growth.
	DefaultQuarantineCap = 2 * time.Second
	// DefaultFlapHalfLife is the decay half-life of the per-peer flap
	// score: a peer that stops flapping for a few half-lives earns back a
	// clean slate.
	DefaultFlapHalfLife = 10 * time.Second

	// flapThreshold is how high the decayed flap score must climb before a
	// restore triggers a quarantine. Below it, isolated suspect/restore
	// cycles (a restart, one genuine partition) rejoin immediately.
	flapThreshold = 3
	// minPhiSamples is how many inter-arrival samples the window needs
	// before accrual scoring engages; until then the timeout decides, so a
	// freshly booted detector suspects exactly at the heartbeat timeout.
	minPhiSamples = 3
)

// DetectorConfig tunes the failure detector. The zero value selects the
// defaults above.
type DetectorConfig struct {
	// Window is the sliding-window length for heartbeat inter-arrival
	// samples; 0 selects DefaultDetectorWindow.
	Window int
	// SuspectPhi and RestorePhi are the hysteresis thresholds; 0 selects
	// the defaults. RestorePhi must stay below SuspectPhi (normalize
	// clamps it).
	SuspectPhi float64
	RestorePhi float64
	// QuarantineBase and QuarantineCap bound the exponential rejoin
	// quarantine a flapping peer earns; 0 selects the defaults, negative
	// disables quarantine entirely.
	QuarantineBase time.Duration
	QuarantineCap  time.Duration
	// FlapHalfLife is the decay half-life of the flap score; 0 selects the
	// default.
	FlapHalfLife time.Duration
	// GrayGrace is how long a peer's heartbeat bitmap must exclude a
	// server before the one-way evidence acts on the verdict; 0 selects
	// the heartbeat timeout. The grace absorbs bootstrap transients (the
	// first heartbeat legitimately carries a singleton bitmap) and
	// heal-time re-admission skew.
	GrayGrace time.Duration
}

// normalize fills zero fields with defaults; timeout is the constructor's
// binary-timeout fallback used while the window is cold.
func (c DetectorConfig) normalize(timeout time.Duration) DetectorConfig {
	if c.Window <= 0 {
		c.Window = DefaultDetectorWindow
	}
	if c.SuspectPhi <= 0 {
		c.SuspectPhi = DefaultSuspectPhi
	}
	if c.RestorePhi <= 0 {
		c.RestorePhi = DefaultRestorePhi
	}
	if c.RestorePhi >= c.SuspectPhi {
		c.RestorePhi = c.SuspectPhi / 2
	}
	if c.QuarantineBase == 0 {
		c.QuarantineBase = DefaultQuarantineBase
	}
	if c.QuarantineCap == 0 {
		c.QuarantineCap = DefaultQuarantineCap
	}
	if c.QuarantineCap < c.QuarantineBase {
		c.QuarantineCap = c.QuarantineBase
	}
	if c.FlapHalfLife <= 0 {
		c.FlapHalfLife = DefaultFlapHalfLife
	}
	if c.GrayGrace <= 0 {
		c.GrayGrace = timeout
	}
	return c
}

// DetectorStats is a snapshot of the detector's counters, for the
// observability surface. Totals are monotone; Quarantined and GrayExcluded
// are current-state gauges.
type DetectorStats struct {
	Suspects       int64 // verdict crossings into suspicion
	Flaps          int64 // suspect-to-restore crossings (the damped signal)
	Quarantines    int64 // rejoin quarantines imposed
	Quarantined    int   // peers currently serving a quarantine
	GrayDowngrades int64 // peers downgraded on one-way-link evidence
	GrayExcluded   int   // peers currently excluded by bitmap reconciliation
	VerdictChanges int64 // Ticks whose reachable set differed from the last
}

// peerState is the detector's per-peer bookkeeping.
type peerState struct {
	lastSeen time.Time
	heard    bool // a real heartbeat arrived (lastSeen is not the anchor)

	// Sliding window of heartbeat inter-arrival times (ring buffer).
	intervals []time.Duration
	ringIdx   int

	// Hysteresis latch and flap damping. evidence is the instant of the
	// latest external suspicion (Suspect) no heartbeat has answered yet, zero
	// when there is none: while it is set the latch holds whatever the score
	// says, because the score only measures silence and link evidence
	// arrives long before silence does.
	suspected       bool
	evidence        time.Time
	flapScore       float64
	lastFlap        time.Time
	quarantineUntil time.Time

	// Gray-failure evidence: for each server q, since when this peer's
	// heartbeat bitmap has excluded q (entry absent while included). The
	// self entry is the direct one-way-link signal; third-party entries
	// feed pair arbitration so every observer converges on the same drop.
	brokenSince map[types.ProcID]time.Time
	grayOut     bool // currently excluded by reconciliation (for counters)
}

// Detector is a heartbeat-based failure detector for the membership
// servers: each server periodically multicasts a heartbeat to its peers and
// suspects any peer whose heartbeats stop. Its output — the set of servers
// currently believed reachable — feeds Server.SetReachable, closing the
// loop the paper leaves to "the failure detector it employs" (Section 3.1's
// discussion of [27]'s liveness).
//
// The detector is a passive state machine: the deployment harness calls
// OnHeartbeat (or OnHeartbeatInfo, with the sender's piggybacked
// reachability bitmap) when a heartbeat arrives and Tick on its heartbeat
// schedule; Tick reports the new reachable set whenever the verdict
// changes. This keeps it usable under both the simulated clock and real
// time.
//
// The verdict is shaped by three mechanisms beyond the raw timeout:
//
//   - Accrual suspicion: the score phi = log10(e) * elapsed/(mean+stddev)
//     over a sliding window of inter-arrival times (an exponential-tail
//     accrual detector in the style of Hayashibara et al. as deployed by
//     Cassandra). A peer is suspected when phi crosses SuspectPhi and
//     restored when it falls to RestorePhi; the band between them is
//     hysteresis, so a verdict never flips on a score that merely wobbles.
//
//   - Flap damping: each suspect-to-restore crossing bumps a per-peer flap
//     score that decays with half-life FlapHalfLife. Once the score
//     crosses the flap threshold, every further restore earns the peer an
//     exponentially growing rejoin quarantine (QuarantineBase doubling up
//     to QuarantineCap), so a flapping link converges to "out" instead of
//     driving a view change per flap.
//
//   - Gray-failure reconciliation: heartbeats carry the sender's current
//     reachable set. A peer we hear from whose bitmap has excluded us for
//     longer than GrayGrace cannot hear us — a one-way link — and is
//     downgraded, so both sides converge on symmetric verdicts instead of
//     livelocking the one-round membership protocol (which requires all
//     proposals to agree on the server set). Bitmaps about third parties
//     feed the same rule: if p's bitmap says the p-q link is broken, every
//     observer drops the lexicographically larger of the pair, so the
//     survivors' verdicts converge without waiting out q's own timeout.
type Detector struct {
	self    types.ProcID
	peers   types.ProcSet
	timeout time.Duration
	cfg     DetectorConfig

	state     map[types.ProcID]*peerState
	reachable types.ProcSet
	hearing   types.ProcSet
	stats     DetectorStats
}

// NewDetectorWith builds a detector for server self among the given peer
// set (which includes self), every peer unsuspected and anchored at start.
// The timeout decides while a peer's inter-arrival window is cold and
// defaults the gray grace.
func NewDetectorWith(self types.ProcID, peers types.ProcSet, timeout time.Duration, start time.Time, cfg DetectorConfig) *Detector {
	d := &Detector{
		self:    self,
		peers:   peers.Clone(),
		timeout: timeout,
		cfg:     cfg.normalize(timeout),
		state:   make(map[types.ProcID]*peerState, peers.Len()),
	}
	for p := range peers {
		d.state[p] = &peerState{lastSeen: start}
	}
	// The initial verdict is pessimistic ({self}); the first Tick after the
	// anchor reports the full set as a change, which bootstraps the first
	// membership attempt.
	d.reachable = types.NewProcSet(self)
	d.hearing = types.NewProcSet(self)
	return d
}

// OnHeartbeat records a heartbeat from a peer at the given instant.
func (d *Detector) OnHeartbeat(from types.ProcID, at time.Time) {
	d.OnHeartbeatInfo(from, at, nil)
}

// OnHeartbeatInfo records a heartbeat carrying the sender's reachability
// bitmap (its current reachable set, piggybacked on the wire message; nil
// when the sender sent none). The tie-break against Suspect is explicit:
// a heartbeat at the same instant as a suspicion wins regardless of which
// call lands first, because a heartbeat is direct evidence of liveness
// while a suspicion is only inference.
func (d *Detector) OnHeartbeatInfo(from types.ProcID, at time.Time, reach types.ProcSet) {
	st, ok := d.state[from]
	if !ok {
		return // stranger
	}
	if !at.Before(st.lastSeen) { // >=: heartbeat wins an equal-timestamp race
		if st.heard && !st.suspected {
			// Only true inter-arrivals feed the window; the gap back to the
			// construction anchor is not one, and neither is a gap spanning a
			// detected failure — sampling a partition's length would inflate
			// the window and blunt every later detection.
			d.sample(st, at.Sub(st.lastSeen))
		}
		st.lastSeen = at
		st.heard = true
		if !at.Before(st.evidence) { // answers the evidence; a tie goes to the heartbeat
			st.evidence = time.Time{}
		}
	}
	if reach == nil {
		return
	}
	// Refresh the broken-link evidence this peer's bitmap carries. Entries
	// keep their original first-excluded instant so the gray grace measures
	// sustained exclusion, not bitmap arrival times.
	for q := range d.peers {
		if q == from {
			continue
		}
		if reach.Contains(q) {
			delete(st.brokenSince, q)
			continue
		}
		if st.brokenSince == nil {
			st.brokenSince = make(map[types.ProcID]time.Time)
		}
		if _, seen := st.brokenSince[q]; !seen {
			st.brokenSince[q] = at
		}
	}
}

// sample pushes one inter-arrival observation into the sliding window.
func (d *Detector) sample(st *peerState, dt time.Duration) {
	if dt <= 0 {
		return
	}
	if len(st.intervals) < d.cfg.Window {
		st.intervals = append(st.intervals, dt)
		return
	}
	st.intervals[st.ringIdx] = dt
	st.ringIdx = (st.ringIdx + 1) % d.cfg.Window
}

// Suspect records external evidence (as of instant at) that peer p is
// unreachable — typically a broken or repeatedly undialable transport
// link — so the next Tick excludes it immediately instead of waiting out
// the heartbeat horizon. The suspicion holds until a heartbeat from p not
// older than the evidence arrives; the restore that follows is an ordinary
// one, flap damping included. Evidence not after the last heartbeat is
// stale and ignored: on an exact tie the heartbeat wins (see
// OnHeartbeatInfo).
func (d *Detector) Suspect(p types.ProcID, at time.Time) {
	if p == d.self {
		return
	}
	st, ok := d.state[p]
	if !ok {
		return
	}
	if !at.After(st.lastSeen) {
		return // stale or tied evidence: a heartbeat arrived at or after it
	}
	if at.After(st.evidence) {
		st.evidence = at
	}
	if !st.suspected {
		st.suspected = true
		d.stats.Suspects++
	}
}

// Phi returns the current accrual suspicion score for peer p at the given
// instant — the value the deployment surfaces as the vsgm_detector_phi
// histogram.
func (d *Detector) Phi(p types.ProcID, now time.Time) float64 {
	st, ok := d.state[p]
	if !ok || p == d.self {
		return 0
	}
	return d.phi(st, now.Sub(st.lastSeen))
}

// phi computes the accrual score for an elapsed silence. With a cold
// window it degenerates to the binary timeout, reporting exactly the
// suspect threshold once the timeout passes.
func (d *Detector) phi(st *peerState, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	if len(st.intervals) < minPhiSamples {
		if elapsed > d.timeout {
			return d.cfg.SuspectPhi
		}
		return 0
	}
	var sum, sumSq float64
	for _, dt := range st.intervals {
		s := dt.Seconds()
		sum += s
		sumSq += s * s
	}
	n := float64(len(st.intervals))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	scale := mean + math.Sqrt(variance)
	if scale < 0.001 { // 1ms floor guards degenerate windows
		scale = 0.001
	}
	// Exponential-tail accrual: phi = -log10 P(silence > elapsed).
	return math.Log10(math.E) * elapsed.Seconds() / scale
}

// noteFlap accounts one suspect-to-restore crossing and, once the decayed
// flap score crosses the threshold, imposes the exponentially growing
// rejoin quarantine.
func (d *Detector) noteFlap(st *peerState, now time.Time) {
	if !st.lastFlap.IsZero() {
		if dt := now.Sub(st.lastFlap); dt > 0 {
			st.flapScore *= math.Exp2(-dt.Seconds() / d.cfg.FlapHalfLife.Seconds())
		}
	}
	st.flapScore++
	st.lastFlap = now
	d.stats.Flaps++
	if d.cfg.QuarantineBase < 0 || st.flapScore < flapThreshold {
		return
	}
	exp := int(st.flapScore) - flapThreshold
	if exp > 20 {
		exp = 20
	}
	q := d.cfg.QuarantineBase << uint(exp)
	if q > d.cfg.QuarantineCap || q <= 0 {
		q = d.cfg.QuarantineCap
	}
	st.quarantineUntil = now.Add(q)
	d.stats.Quarantines++
}

// brokenSustained reports whether p's bitmap has excluded q for longer
// than the gray grace as of now.
func (st *peerState) brokenSustained(q types.ProcID, now time.Time, grace time.Duration) bool {
	since, ok := st.brokenSince[q]
	return ok && now.Sub(since) > grace
}

// Tick re-evaluates suspicions at the given instant — the accrual, damping
// and reconciliation verdict. It returns the reachable set and whether it
// changed since the last verdict.
func (d *Detector) Tick(now time.Time) (types.ProcSet, bool) {
	next := types.NewProcSet(d.self)
	d.stats.Quarantined = 0
	for p, st := range d.state {
		if p == d.self {
			continue
		}
		score := d.phi(st, now.Sub(st.lastSeen))
		if !st.suspected && score >= d.cfg.SuspectPhi {
			st.suspected = true
			d.stats.Suspects++
		} else if st.suspected && score <= d.cfg.RestorePhi && st.evidence.IsZero() {
			st.suspected = false
			d.noteFlap(st, now)
		}
		if st.suspected {
			continue
		}
		if now.Before(st.quarantineUntil) {
			d.stats.Quarantined++
			continue
		}
		next.Add(p)
	}
	// The hearing set is the verdict before reconciliation: who we can
	// actually hear. It — not the reconciled set — is what Bitmap()
	// advertises, because a bitmap that echoed our own gray downgrades
	// would make mutual exclusion self-sustaining after a heal: each side
	// would keep dropping the other for a stale bitmap that its own drop
	// perpetuates. Hearing recovers the moment frames flow again, so the
	// reconciliation unwinds itself.
	d.hearing = next.Clone()

	// Gray-failure reconciliation over the surviving candidates. The direct
	// rule: a peer whose bitmap has excluded us past the grace cannot hear
	// us, so we stop trusting it — making the pair's verdicts symmetric.
	// The pair rule: sustained broken-link evidence between two candidates
	// drops the lexicographically larger one everywhere, so third parties
	// converge with the pair instead of holding out for a three-way
	// agreement that can never form.
	grayExcluded := 0
	drop := make([]types.ProcID, 0, 2)
	for p := range next {
		if p == d.self {
			continue
		}
		st := d.state[p]
		if st.brokenSustained(d.self, now, d.cfg.GrayGrace) {
			drop = append(drop, p)
			continue
		}
		for q := range next {
			if q == d.self || q == p {
				continue
			}
			if st.brokenSustained(q, now, d.cfg.GrayGrace) {
				loser := p
				if q > p {
					loser = q
				}
				drop = append(drop, loser)
			}
		}
	}
	for _, p := range drop {
		next.Remove(p)
	}
	for p, st := range d.state {
		if p == d.self {
			continue
		}
		out := !st.suspected && !now.Before(st.quarantineUntil) && !next.Contains(p)
		if out {
			grayExcluded++
			if !st.grayOut {
				st.grayOut = true
				d.stats.GrayDowngrades++
			}
		} else {
			st.grayOut = false
		}
	}
	d.stats.GrayExcluded = grayExcluded

	changed := !next.Equal(d.reachable)
	if changed {
		d.stats.VerdictChanges++
	}
	d.reachable = next
	return next.Clone(), changed
}

// Reachable returns the current verdict.
func (d *Detector) Reachable() types.ProcSet { return d.reachable.Clone() }

// Bitmap returns the reachability bitmap to piggyback on outgoing
// heartbeats: the hearing set as of the last Tick — suspicion and
// quarantine applied, gray reconciliation NOT applied (see Tick for why
// echoing the reconciled verdict would deadlock heals).
func (d *Detector) Bitmap() types.ProcSet { return d.hearing.Clone() }

// Stats snapshots the detector's counters.
func (d *Detector) Stats() DetectorStats { return d.stats }

package membership

import (
	"time"

	"vsgm/internal/types"
)

// DefaultWatchdog is the stall-watchdog period a server starts with.
const DefaultWatchdog = 500 * time.Millisecond

// SetWatchdog sets how long an attempt may stay stalled before Tick re-sends
// this server's proposal; non-positive selects DefaultWatchdog. It returns
// the period in force, which is also how often a host without heartbeats
// should call Tick.
func (s *Server) SetWatchdog(period time.Duration) time.Duration {
	if period <= 0 {
		period = DefaultWatchdog
	}
	s.watchdog = period
	return period
}

// StartDetector turns on the server's heartbeat failure detector, every
// peer anchored at now: from then on Tick heartbeats the peer servers,
// HandleMessage feeds their heartbeats to the detector, and each change of
// its verdict becomes a SetReachable. It reports whether it turned the
// detector on; a second call changes nothing.
func (s *Server) StartDetector(timeout time.Duration, now time.Time) bool {
	if s.detector != nil {
		return false
	}
	s.detector = NewDetectorWith(s.id, s.servers, timeout, now, DetectorConfig{})
	return true
}

// Detector returns the server's failure detector (nil until StartDetector)
// for reading its scores and counters; only the server feeds it.
func (s *Server) Detector() *Detector { return s.detector }

// Suspect is link evidence, as of now, that peer is unreachable: a broken
// or undialable connection, or a complaint that it stopped consuming. The
// detector excludes the peer at once instead of waiting out the heartbeat
// timeout, and a changed verdict reconfigures now, not at the next Tick.
// Without a detector it does nothing.
func (s *Server) Suspect(peer types.ProcID, now time.Time) {
	if s.detector == nil {
		return
	}
	s.detector.Suspect(peer, now)
	s.applyVerdict(now)
}

// Tick is the server's clock input. Once StartDetector ran, it sends the
// heartbeat carrying the detector's bitmap to the peer servers and applies a
// changed verdict. Then it re-proposes an attempt stalled for a watchdog
// period and deregisters the attached clients whose lease ran out,
// returning how many.
func (s *Server) Tick(now time.Time) int {
	if s.detector != nil {
		if len(s.peers) > 0 {
			s.transport.Send(s.peers, types.WireMsg{Kind: types.KindHeartbeat, Reach: s.detector.Bitmap()})
		}
		s.applyVerdict(now)
	}
	s.watch(now)
	return s.expireLeases(now)
}

func (s *Server) applyVerdict(now time.Time) {
	if reachable, changed := s.detector.Tick(now); changed {
		s.SetReachable(reachable)
	}
}

// stalled reports whether the current attempt has yet to complete.
func (s *Server) stalled() bool { return s.attempt > s.lastCompleted }

// watch is the stall watchdog: an attempt still stalled one period after the
// server first saw it stalled is re-proposed, and again each period it stays
// so. A one-round attempt that has not completed in a full period has almost
// certainly lost a proposal frame, and proposals are idempotent (a receiver
// overwrites its row entry), so retrying is always safe. Timing by the clock,
// not by counting calls, keeps the rule independent of the host's cadence.
func (s *Server) watch(now time.Time) {
	switch {
	case !s.stalled():
		s.stallSince = time.Time{}
	case s.stallSince.IsZero() || s.stallAttempt != s.attempt:
		s.stallAttempt, s.stallSince = s.attempt, now
	case now.Sub(s.stallSince) >= s.watchdog:
		s.stallSince = now
		others := s.reachable.Minus(types.NewProcSet(s.id))
		if s.lastProp != nil && s.lastProp.Attempt == s.attempt && others.Len() > 0 {
			s.reproposals++
			s.transport.Send(others.Sorted(), types.WireMsg{Kind: types.KindMembProposal, MembProp: s.lastProp.Clone()})
		}
	}
}

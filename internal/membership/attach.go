package membership

import (
	"time"

	"vsgm/internal/types"
)

// AttachKind discriminates the in-band client attach protocol frames.
type AttachKind uint8

const (
	// AttachRequest registers (or keeps alive) a client at its home server
	// under the given epoch.
	AttachRequest AttachKind = 1
	// AttachAck is the server's reply: the epoch the registration is held
	// under and the recorded cid/view-id, so a recovered client resumes
	// under its original identity.
	AttachAck AttachKind = 2
	// AttachDetach rescinds a registration (client is failing over or
	// leaving). The server ignores it if its registration epoch is newer
	// than the frame's, so late detaches cannot evict a fresh attach.
	AttachDetach AttachKind = 3
	// AttachSuspect is an overload complaint: the sender reports that
	// Client has held the sender's credit window exhausted past the grace
	// period. The receiving server evicts (and temporarily bans) a client
	// laggard, or feeds a server laggard to its failure detector, so
	// overload degrades to a smaller live view instead of a stalled group.
	AttachSuspect AttachKind = 4
)

// Attach is one frame of the in-band attach protocol between a client and
// its home server. The sender is implicit (the transport names it); Client
// names the subject explicitly so acks stay self-describing.
type Attach struct {
	Kind   AttachKind
	Client types.ProcID
	Epoch  int64
	CID    types.StartChangeID
	Vid    types.ViewID
}

const (
	// DefaultAttachLease is the lease ServeAttach selects for a non-positive
	// one.
	DefaultAttachLease = 10 * time.Second
	// slowBan is how long a client evicted for slow consumption may not
	// re-attach, so a laggard cannot flap the view by re-registering.
	slowBan = 30 * time.Second
)

// AttachOutcome is what HandleAttach did with a frame, for the host's
// counters.
type AttachOutcome uint8

const (
	// OutcomeIgnored: nothing the host counts — a banned laggard's request,
	// a stale detach, a complaint about a client not held here (its ban is
	// still refreshed) or about a peer server (fed to the detector).
	OutcomeIgnored AttachOutcome = iota
	// OutcomeServed: a request was acked (a registration or a keepalive).
	OutcomeServed
	// OutcomeDetached: a client-initiated detach deregistered the sender.
	OutcomeDetached
	// OutcomeEvicted: a complaint evicted and banned a local client.
	OutcomeEvicted
)

// ServeAttach turns on the server half of the in-band attach protocol:
// replies go out through send, and Tick deregisters a client whose requests
// stop for lease. Clients added out of band hold no lease.
func (s *Server) ServeAttach(lease time.Duration, send func(types.ProcID, Attach)) {
	if lease <= 0 {
		lease = DefaultAttachLease
	}
	s.lease, s.sendAttach = lease, send
	s.leases = make(map[types.ProcID]time.Time)
	s.banned = make(map[types.ProcID]time.Time)
}

// HandleAttach applies one attach frame from from at now. A request
// registers or keeps alive the sender (AttachClientClaim) and is acked with
// the server's record of it. The ack goes out before the reconfiguration a
// new registration starts, so on the client's FIFO link it precedes every
// notification of that attempt. A banned laggard gets no ack, so it keeps
// failing over. A detach deregisters the sender unless the registration
// has moved to a newer epoch since: a late detach never evicts a fresh
// attach. A complaint is routed by its subject (see complain).
func (s *Server) HandleAttach(from types.ProcID, a Attach, now time.Time) AttachOutcome {
	switch a.Kind {
	case AttachRequest:
		if until, ok := s.banned[from]; ok {
			if now.Before(until) {
				return OutcomeIgnored
			}
			delete(s.banned, from)
		}
		rec, added := s.AttachClientClaim(from, a.Epoch, ClientRecord{CID: a.CID, Vid: a.Vid})
		s.leases[from] = now
		s.sendAttach(from, Attach{Kind: AttachAck, Client: from, Epoch: rec.Epoch, CID: rec.CID, Vid: rec.Vid})
		if added {
			s.Reconfigure()
		}
		return OutcomeServed
	case AttachDetach:
		if rec, ok := s.RecordOf(from); ok && rec.Epoch > a.Epoch {
			return OutcomeIgnored // late: the registration moved to a newer epoch
		}
		if !s.HasClient(from) {
			return OutcomeIgnored
		}
		s.deregister(from)
		return OutcomeDetached
	case AttachSuspect:
		return s.complain(a.Client, now)
	}
	return OutcomeIgnored
}

// complain applies a slow-consumer complaint about laggard. A peer server
// is link evidence for the failure detector (Suspect), the path a broken
// trunk link takes. A client is banned for slowBan and, if registered here,
// evicted and told so by a detach, so it courts (and is refused by) the
// next server instead of trusting a home that no longer serves it.
// Complaints go to every server, so the laggard's home acts whichever link
// the reporter had; the others only refresh the ban.
func (s *Server) complain(laggard types.ProcID, now time.Time) AttachOutcome {
	switch {
	case laggard == s.id || laggard == "":
		return OutcomeIgnored
	case s.servers.Contains(laggard):
		s.Suspect(laggard, now)
		return OutcomeIgnored
	}
	s.banned[laggard] = now.Add(slowBan)
	if !s.HasClient(laggard) {
		return OutcomeIgnored
	}
	s.sendAttach(laggard, Attach{Kind: AttachDetach, Client: laggard})
	s.deregister(laggard)
	return OutcomeEvicted
}

// expireLeases deregisters every client whose requests stopped a full lease
// before now — the server-side failure detector for clients — and returns
// how many. A client that dies right after attaching is never claimed by a
// peer, so without a lease a dead member would wedge every future view's
// sync round. A falsely suspected client re-attaches on its next keepalive
// and resumes its identifiers from the retained record.
func (s *Server) expireLeases(now time.Time) int {
	evicted := 0
	for p, seen := range s.leases {
		if now.Sub(seen) <= s.lease {
			continue
		}
		delete(s.leases, p)
		if s.HasClient(p) {
			s.RemoveClient(p)
			evicted++
		}
	}
	if evicted > 0 {
		s.Reconfigure()
	}
	return evicted
}

// deregister drops an attached client and its lease and reconfigures.
func (s *Server) deregister(p types.ProcID) {
	s.RemoveClient(p)
	delete(s.leases, p)
	s.Reconfigure()
}

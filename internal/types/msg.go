package types

import "fmt"

// MsgKind discriminates the wire messages exchanged between GCS end-points
// over the CO_RFIFO substrate (Figures 9 and 10).
type MsgKind int

const (
	// KindView is a view_msg(v): announces that subsequent application
	// messages from the sender were sent in view v.
	KindView MsgKind = iota + 1

	// KindApp is an original application message.
	KindApp

	// KindFwd is a forwarded application message, tagged with its original
	// sender, view, and FIFO index.
	KindFwd

	// KindSync is a synchronization message, tagged with the sender's
	// start-change identifier and carrying its current view and cut.
	KindSync

	// KindPropose is the identifier pre-agreement message used only by the
	// two-round baseline algorithm (internal/baseline): the extra round
	// that previously suggested virtual synchrony algorithms spend agreeing
	// on a globally unique identifier before exchanging synchronization
	// messages.
	KindPropose

	// KindMembProposal is a server-to-server membership proposal exchanged
	// by the dedicated membership servers (internal/membership ServerGroup).
	KindMembProposal

	// KindAck is a stability acknowledgment: the sender's per-member
	// delivered counts in its current view. When every view member has
	// acknowledged a message, it is stable and its buffer slot can be
	// garbage-collected (the mechanism Section 5.1 notes real
	// implementations need).
	KindAck

	// KindHeartbeat is a failure-detector heartbeat between membership
	// servers.
	KindHeartbeat

	// KindSyncBundle is an aggregated batch of synchronization messages
	// exchanged between group leaders in the two-tier hierarchy extension
	// (Section 9's future work, after Guo et al.).
	KindSyncBundle
)

// SyncEntry is one member's synchronization message inside a bundle.
type SyncEntry struct {
	From  ProcID
	CID   StartChangeID
	View  View
	Cut   Cut
	Small bool
}

// MembProposal is one membership server's proposal for an attempt of the
// one-round membership algorithm: the servers it believes are reachable, a
// floor for the next view identifier, and its local clients together with
// the start-change identifiers it last issued to them.
type MembProposal struct {
	Attempt int64
	Servers ProcSet
	MinVid  ViewID
	Clients map[ProcID]StartChangeID

	// Epochs carries the attach epoch under which each in-band-attached
	// local client is claimed (zero epochs — out-of-band registrations —
	// are omitted). Peers use it to arbitrate ownership after a failover:
	// a strictly higher epoch claim evicts a stale registration.
	Epochs map[ProcID]int64

	// Trace is the reconfiguration trace identifier for the attempt this
	// proposal belongs to. The initiating server mints it; peers adopting
	// the attempt adopt the trace with it. Observability metadata only.
	Trace uint64
}

// Clone returns a deep copy of the proposal.
func (p *MembProposal) Clone() *MembProposal {
	clients := make(map[ProcID]StartChangeID, len(p.Clients))
	for c, cid := range p.Clients {
		clients[c] = cid
	}
	var epochs map[ProcID]int64
	if len(p.Epochs) > 0 {
		epochs = make(map[ProcID]int64, len(p.Epochs))
		for c, e := range p.Epochs {
			epochs[c] = e
		}
	}
	return &MembProposal{
		Attempt: p.Attempt,
		Servers: p.Servers.Clone(),
		MinVid:  p.MinVid,
		Clients: clients,
		Epochs:  epochs,
		Trace:   p.Trace,
	}
}

// String returns the lowercase tag used in the paper's figures.
func (k MsgKind) String() string {
	switch k {
	case KindView:
		return "view_msg"
	case KindApp:
		return "app_msg"
	case KindFwd:
		return "fwd_msg"
	case KindSync:
		return "sync_msg"
	case KindPropose:
		return "propose_msg"
	case KindMembProposal:
		return "memb_proposal"
	case KindAck:
		return "ack_msg"
	case KindHeartbeat:
		return "heartbeat"
	case KindSyncBundle:
		return "sync_bundle"
	default:
		return fmt.Sprintf("msg_kind(%d)", int(k))
	}
}

// AppMsg is an application payload multicast through the service. ID is a
// globally unique identifier assigned at send time; it exists purely so
// tests and spec checkers can correlate send and deliver events, mirroring
// the history variables of Section 6.1.1.
type AppMsg struct {
	ID      int64
	Payload []byte
}

// WireMsg is a single message on a CO_RFIFO channel. Exactly the fields
// relevant to Kind are populated:
//
//   - KindView: View.
//   - KindApp:  App. (HistView/HistIndex carry the history tags Hv, Hi of
//     Section 6.1.1, which nothing reads.)
//   - KindFwd:  App, Origin, View, Index.
//   - KindSync: CID, View, Cut, and Small (the Section 5.2.4 optimization:
//     a cut-less "I am not in your transitional set" notice).
type WireMsg struct {
	Kind MsgKind

	View View // view_msg payload; sync/fwd view tag

	App AppMsg // app/fwd payload

	// Forwarded-message tags (KindFwd): original sender and 1-based FIFO
	// index of App within msgs[Origin][View].
	Origin ProcID
	Index  int

	// Synchronization-message tags (KindSync). Small is the Section 5.2.4
	// cut-less notice to processes outside the sender's view; ElideView is
	// the section's second optimization — the view is omitted because the
	// recipient can deduce it from the sender's preceding view_msg. Probe
	// marks a watchdog resend of an already-committed sync message: the
	// receiver answers a probe by resending its own latest sync directly to
	// the prober, so lost sync messages are repaired instead of wedging the
	// view change.
	CID       StartChangeID
	Cut       Cut
	Small     bool
	ElideView bool
	Probe     bool

	// Trace tags a sync message with the reconfiguration trace identifier
	// of the start_change that triggered it (KindSync only; zero when the
	// membership source stamps no trace). Observability metadata only —
	// excluded from Size(), whose byte model feeds the E9 experiment.
	Trace uint64

	// History tags (KindApp only; Section 6.1.1): the proof's variables,
	// stamped by the sending end-point as the paper's automaton does. No
	// receiver reads them — a KindApp is filed under the view of the
	// sender's preceding view_msg — so the live codec does not encode them
	// and a decoded message carries zero values.
	HistView  View
	HistIndex int

	// Reach is the sender's reachability bitmap (KindHeartbeat only): the
	// set of servers the sender's failure detector currently believes
	// reachable, piggybacked on every heartbeat. Receivers feed it to the
	// gray-failure reconciliation — a peer whose bitmap excludes the
	// receiver cannot hear it, so the receiver downgrades the one-way link
	// instead of livelocking the one-round membership protocol. Heartbeat
	// frames coalesce newest-wins per link, which is exactly the right
	// semantics for a bitmap snapshot. Nil when the sender piggybacks
	// nothing (a legacy fixed-timeout deployment).
	Reach ProcSet

	// Membership-server proposal (KindMembProposal only).
	MembProp *MembProposal

	// Aggregated synchronization messages (KindSyncBundle only).
	Bundle []SyncEntry
}

// Size returns an approximate wire size in bytes for the message, used by
// the E9 sync-message-size experiment and the bandwidth metrics. The model
// charges 8 bytes per identifier/integer plus payload length; it is a
// deterministic proxy for a real encoding, not an encoding itself.
func (m WireMsg) Size() int {
	const word = 8
	n := word // kind
	switch m.Kind {
	case KindView:
		n += viewSize(m.View)
	case KindApp:
		n += word + len(m.App.Payload)
	case KindFwd:
		n += word + len(m.App.Payload) + word /* origin */ + viewSize(m.View) + word /* index */
	case KindSync:
		n += word // cid
		if !m.Small {
			if !m.ElideView {
				n += viewSize(m.View)
			}
			n += word * (1 + len(m.Cut)) // cut entries
		}
	case KindPropose:
		n += word // proposed identifier
	case KindMembProposal:
		if m.MembProp != nil {
			n += 2*word + m.MembProp.Servers.Len()*word + len(m.MembProp.Clients)*2*word + len(m.MembProp.Epochs)*2*word
		}
	case KindAck:
		n += word * (1 + len(m.Cut))
	case KindHeartbeat:
		// The piggybacked reachability bitmap: one word for the count plus
		// one per member (zero-cost when absent).
		if m.Reach != nil {
			n += word * (1 + m.Reach.Len())
		}
	case KindSyncBundle:
		for _, e := range m.Bundle {
			n += 2 * word // from + cid
			if !e.Small {
				n += viewSize(e.View) + word*(1+len(e.Cut))
			}
		}
	}
	return n
}

func viewSize(v View) int {
	const word = 8
	// id + per-member (id string approximated as one word + start-change id)
	return word + v.Members.Len()*2*word
}

// String renders a short human-readable form for traces and logs.
func (m WireMsg) String() string {
	switch m.Kind {
	case KindView:
		return fmt.Sprintf("view_msg(%s)", m.View)
	case KindApp:
		return fmt.Sprintf("app_msg(#%d)", m.App.ID)
	case KindFwd:
		return fmt.Sprintf("fwd_msg(#%d from %s i=%d)", m.App.ID, m.Origin, m.Index)
	case KindSync:
		if m.Small {
			return fmt.Sprintf("sync_msg(cid=%d small)", m.CID)
		}
		return fmt.Sprintf("sync_msg(cid=%d view=%s cut=%s)", m.CID, m.View, m.Cut)
	default:
		return fmt.Sprintf("wire_msg(kind=%d)", int(m.Kind))
	}
}

// SyncMsg is the stored form of a received synchronization message:
// the sender's view at the time of sending and its committed cut
// (sync_msg[q][cid] in Figure 10). Small records the Section 5.2.4
// optimization: a small sync message declares "I am not in your transitional
// set" and carries neither view nor cut.
type SyncMsg struct {
	View  View
	Cut   Cut
	Small bool
}

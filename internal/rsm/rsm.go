// Package rsm implements state-machine replication on top of the virtually
// synchronous group multicast service, following the state-machine approach
// the paper cites as the prime consumer of Virtual Synchrony (Section
// 4.1.2): commands are disseminated in total order (internal/totalorder),
// and the Transitional Set delivered with each view tells replicas exactly
// who shares their state, so state transfer happens only when someone
// actually joined from a different view.
//
// Protocol. Replicas apply totally ordered commands to a deterministic
// state machine. At a view change, the total-order layer's boundary flush
// plus Virtual Synchrony guarantee that all members of the transitional set
// T have applied the identical command sequence. If T equals the new view's
// membership, everyone moved together and no synchronization is needed —
// this is precisely the "costly exchange avoided" benefit of Virtual
// Synchrony. Otherwise the view starts in a sync phase: proposals are
// queued, the minimum-identifier synced member of each transitional set
// multicasts a snapshot tagged with the identifier of the view it is
// leaving, and the snapshot from the highest leaving view becomes the
// authoritative state everyone adopts (ties broken by total order — a
// deterministic partition-merge rule). The leaving-view tag is what makes
// merges safe against stale believers: a member that was reconfigured out
// of the group long ago still thinks it is synced in its ancient view, and
// when readmitted its transitional set is a singleton, so it publishes —
// but its leaving-view identifier is older than the surviving group's, so
// its snapshot is superseded rather than adopted. View identifiers are
// monotonically increasing per group (Section 3.1), which makes "highest
// leaving view" exactly "most recent state".
package rsm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vsgm/internal/core"
	"vsgm/internal/totalorder"
	"vsgm/internal/types"
)

// StateMachine is the deterministic application state the replicas manage.
type StateMachine interface {
	// Apply executes one command.
	Apply(sender types.ProcID, cmd []byte)
	// Snapshot serializes the complete state.
	Snapshot() []byte
	// Restore replaces the state with a previously taken snapshot.
	Restore(snapshot []byte) error
}

const (
	tagCmd   byte = 1
	tagState byte = 2
)

// Config parameterizes a replica.
type Config struct {
	// ID is the replica's process identifier; required.
	ID types.ProcID
	// Send multicasts a raw payload through the replica's GCS end-point;
	// required.
	Send totalorder.SendFunc
	// Machine is the replicated state machine; required.
	Machine StateMachine
	// Bootstrap marks the replica as initially holding authoritative state
	// (the group founder). Non-bootstrap replicas wait for a state
	// transfer before applying commands.
	Bootstrap bool
	// Quorum, when positive, puts the replica in primary-component mode:
	// a view with fewer than Quorum members is a minority view, and a
	// replica passing through one is demoted — it stops applying commands
	// (so nothing it acknowledges can later be lost to a merge) and loses
	// snapshot-publisher eligibility until it restores from a member that
	// stayed in the primary component. Zero keeps the classic behavior
	// where every view is authoritative and partition merges adopt the
	// first snapshot in total order, whichever side it came from.
	Quorum int
	// OnApply observes each applied command; optional.
	OnApply func(sender types.ProcID, cmd []byte)
}

// Replica is one member of the replicated state machine. Drive it by
// feeding every event of the underlying GCS end-point to HandleEvent. Not
// safe for concurrent use.
type Replica struct {
	id      types.ProcID
	machine StateMachine
	onApply func(types.ProcID, []byte)

	session *totalorder.Session

	view    types.View
	synced  bool
	syncing bool  // view started with joiners; waiting for the first snapshot
	adopted int64 // leaving-view id of the snapshot adopted this view; -1 none
	quorum  int
	primary bool // current view has >= quorum members (always true at quorum 0)
	demoted bool // passed through a minority view since last holding authority
	queue   [][]byte
	err     error

	applied int64
}

// NewReplica constructs a replica.
func NewReplica(cfg Config) (*Replica, error) {
	if cfg.ID == "" || cfg.Send == nil || cfg.Machine == nil {
		return nil, errors.New("rsm: config requires ID, Send, and Machine")
	}
	r := &Replica{
		id:      cfg.ID,
		machine: cfg.Machine,
		onApply: cfg.OnApply,
		view:    types.InitialView(cfg.ID),
		synced:  cfg.Bootstrap,
		adopted: -1,
		quorum:  cfg.Quorum,
		primary: true,
	}
	var err error
	r.session, err = totalorder.New(cfg.ID, cfg.Send, r.onOrdered, r.onView)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ID returns the replica's identifier.
func (r *Replica) ID() types.ProcID { return r.id }

// Synced reports whether the replica holds authoritative state.
func (r *Replica) Synced() bool { return r.synced }

// Authoritative reports whether the replica may serve and acknowledge
// commands right now: it is synced, its current view meets the quorum, and
// it has not been demoted by passing through a minority view. At quorum 0
// this is identical to Synced.
func (r *Replica) Authoritative() bool { return r.synced && r.primary && !r.demoted }

// Applied returns the number of commands applied so far.
func (r *Replica) Applied() int64 { return r.applied }

// CurrentView returns the view the replica operates in.
func (r *Replica) CurrentView() types.View { return r.view.Clone() }

// HandleEvent feeds one event from the underlying GCS end-point and then
// retries any queued proposals.
func (r *Replica) HandleEvent(ev core.Event) error {
	if err := r.session.HandleEvent(ev); err != nil {
		return err
	}
	r.flushQueue()
	if r.err != nil {
		err := r.err
		r.err = nil
		return err
	}
	return nil
}

// Propose submits a command. During a sync phase or a view change the
// command is queued and sent as soon as the group is ready.
func (r *Replica) Propose(cmd []byte) error {
	buf := make([]byte, 1+len(cmd))
	buf[0] = tagCmd
	copy(buf[1:], cmd)
	if r.syncing {
		r.queue = append(r.queue, buf)
		return nil
	}
	if err := r.session.Send(buf); err != nil {
		if errors.Is(err, totalorder.ErrBlocked) {
			r.queue = append(r.queue, buf)
			return nil
		}
		return err
	}
	return nil
}

func (r *Replica) flushQueue() {
	if r.syncing {
		return
	}
	for len(r.queue) > 0 {
		if err := r.session.Send(r.queue[0]); err != nil {
			return // still blocked; retry on the next event
		}
		r.queue = r.queue[1:]
	}
}

// onOrdered receives totally ordered messages from the session.
func (r *Replica) onOrdered(sender types.ProcID, payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case tagCmd:
		if !r.synced {
			return // awaiting state transfer; the snapshot covers this command
		}
		if !r.primary || r.demoted {
			// Primary-component mode: commands ordered in (or after) a
			// minority view are not applied here, so nothing this replica
			// acknowledged can be silently dropped by the eventual merge.
			return
		}
		cmd := payload[1:]
		r.machine.Apply(sender, cmd)
		r.applied++
		if r.onApply != nil {
			r.onApply(sender, cmd)
		}
	case tagState:
		if len(payload) < 1+8 {
			return // malformed; ignore deterministically
		}
		leavingID := int64(binary.BigEndian.Uint64(payload[1:9]))
		snap := payload[9:]
		switch {
		case r.syncing:
			// The first snapshot in total order is adopted by everyone —
			// including previously synced members, which makes partition
			// merges deterministic. In primary-component mode only undemoted
			// members publish, so the adopted state is always a primary
			// component's.
			if err := r.machine.Restore(snap); err == nil {
				r.synced = true
				r.syncing = false
				r.demoted = false
				r.adopted = leavingID
			}
		case r.adopted >= 0 && leavingID > r.adopted:
			// A concurrent publisher left a more recent view than the one we
			// adopted from: it is more up to date (view identifiers are
			// monotone per group), so its snapshot supersedes. This is how a
			// stale believer's early snapshot gets corrected within the same
			// sync phase before any acknowledgment can rest on it.
			if err := r.machine.Restore(snap); err == nil {
				r.adopted = leavingID
			}
		}
	}
}

// onView handles a view boundary: all transitional-set members now agree on
// the applied command sequence. If someone joined from another view, enter
// the sync phase and have the minimum synced member of T publish state.
func (r *Replica) onView(v types.View, trans types.ProcSet) {
	leaving := r.view.ID // the view whose state a publisher would be sharing
	r.view = v.Clone()
	r.adopted = -1 // snapshot adoption is per sync phase
	r.primary = r.quorum <= 0 || v.Members.Len() >= r.quorum
	if !r.primary {
		// Minority view: freeze. No commands are applied (see onOrdered), no
		// snapshot is published, and no sync phase runs — the replica waits
		// to rejoin the primary component and restore from it.
		r.demoted = true
		r.syncing = false
		return
	}
	movedTogether := trans != nil && trans.Equal(v.Members)
	if movedTogether {
		// Virtual Synchrony at work: everyone's state is already
		// identical; no exchange needed.
		r.syncing = false
		return
	}
	r.syncing = true
	if r.synced && !r.demoted && trans != nil && trans.Min() == r.id {
		snap := r.machine.Snapshot()
		buf := make([]byte, 1+8+len(snap))
		buf[0] = tagState
		binary.BigEndian.PutUint64(buf[1:9], uint64(leaving))
		copy(buf[9:], snap)
		if err := r.session.Send(buf); err != nil {
			// The view just arrived, so the end-point cannot be blocked; a
			// failure here is surfaced through the next HandleEvent call.
			r.err = fmt.Errorf("rsm: state transfer send: %w", err)
		}
	}
}

// Package membership implements the external membership service of Section
// 3.1 (Figure 2) of Keidar & Khazan: a partitionable service whose interface
// to each client consists of start_change(cid, set) notifications, carrying
// a locally unique increasing identifier, followed by view(v) notifications
// whose startId map echoes each member's last cid.
//
// Two implementations are provided:
//
//   - Oracle: a centralized, fully controllable service. Tests and the
//     simulator drive it explicitly (begin a change, commit a view, split
//     into partitions), and it enforces every precondition of the MBRSHP
//     specification automaton, so any schedule it produces is a legal
//     membership trace.
//
//   - ServerGroup (servers.go): a distributed client-server membership in
//     the style of Keidar-Sussman-Marzullo-Dolev, in which a small set of
//     dedicated servers runs a one-round membership algorithm and serves
//     many clients. It exists to demonstrate and measure the client-server
//     architecture (experiment E8). Its clients register in band through
//     the attach protocol, whose two halves are Client (client.go) and the
//     attach policy of Server (attach.go).
package membership

import (
	"fmt"

	"vsgm/internal/types"
)

// NotificationKind discriminates membership notifications.
type NotificationKind int

const (
	// NotifyStartChange is a start_change_p(cid, set) notification.
	NotifyStartChange NotificationKind = iota + 1
	// NotifyView is a view_p(v) notification.
	NotifyView
)

// Notification is a single membership-service output to one client.
type Notification struct {
	Kind        NotificationKind
	StartChange types.StartChange // valid when Kind == NotifyStartChange
	View        types.View        // valid when Kind == NotifyView

	// Trace is the reconfiguration trace identifier stamped by the
	// membership servers (zero from sources that do not stamp, such as the
	// controllable test oracle). Both notification kinds of one
	// reconfiguration carry the same trace, so observers can correlate the
	// start_change with the view that resolves it.
	Trace uint64
}

// String renders the notification for traces.
func (n Notification) String() string {
	switch n.Kind {
	case NotifyStartChange:
		return fmt.Sprintf("start_change(cid=%d set=%s)", n.StartChange.ID, n.StartChange.Set)
	case NotifyView:
		return n.View.String()
	default:
		return fmt.Sprintf("notification(%d)", int(n.Kind))
	}
}

// Output receives the service's notifications for a given client. The
// simulator typically wraps delivery with a latency model; unit tests
// dispatch synchronously.
type Output func(p types.ProcID, n Notification)

type clientMode int

const (
	modeNormal clientMode = iota + 1
	modeChangeStarted
)

type clientState struct {
	view        types.View
	startChange types.StartChange
	mode        clientMode
	crashed     bool
}

// Oracle is the controllable MBRSHP implementation. It is not safe for
// concurrent use; drive it from a single goroutine (the simulator's event
// loop or a test).
type Oracle struct {
	out     Output
	clients map[types.ProcID]*clientState
	nextVid types.ViewID
}

// NewOracle returns an oracle that reports notifications through out.
func NewOracle(out Output) *Oracle {
	return &Oracle{
		out:     out,
		clients: make(map[types.ProcID]*clientState),
		nextVid: types.InitialViewID + 1,
	}
}

// Register adds client p in its initial singleton view v_p with mode normal.
func (o *Oracle) Register(p types.ProcID) {
	o.clients[p] = &clientState{
		view:        types.InitialView(p),
		startChange: types.StartChange{ID: types.InitialStartChangeID, Set: types.NewProcSet()},
		mode:        modeNormal,
	}
}

// CurrentView returns mbrshp_view[p].
func (o *Oracle) CurrentView(p types.ProcID) (types.View, error) {
	st, err := o.client(p)
	if err != nil {
		return types.View{}, err
	}
	return st.view.Clone(), nil
}

// LastStartChange returns the latest start_change delivered to p.
func (o *Oracle) LastStartChange(p types.ProcID) (types.StartChange, error) {
	st, err := o.client(p)
	if err != nil {
		return types.StartChange{}, err
	}
	return st.startChange.Clone(), nil
}

// StartChange performs the output action start_change_p(cid, set) for every
// live member of set: each member receives a fresh, locally increasing cid
// (identifiers are deliberately not coordinated across members — that is the
// paper's central interface idea). It returns the per-member identifiers.
func (o *Oracle) StartChange(set types.ProcSet) (map[types.ProcID]types.StartChangeID, error) {
	ids := make(map[types.ProcID]types.StartChangeID, set.Len())
	for _, p := range set.Sorted() {
		st, err := o.client(p)
		if err != nil {
			return nil, err
		}
		if st.crashed {
			continue
		}
		// Precondition: cid > start_change[p].id and p ∈ set.
		cid := st.startChange.ID + 1
		st.startChange = types.StartChange{ID: cid, Set: set.Clone()}
		st.mode = modeChangeStarted
		ids[p] = cid
		o.out(p, Notification{Kind: NotifyStartChange, StartChange: st.startChange.Clone()})
	}
	return ids, nil
}

// DeliverView performs the output action view_p(v) for every live member of
// members, forming a fresh view whose identifier exceeds every member's
// current view identifier and whose startId map echoes each member's latest
// cid. It enforces the MBRSHP preconditions:
//
//   - every member is in mode change_started,
//   - members ⊆ start_change[p].set for every member p,
//   - v.id > mbrshp_view[p].id for every member p.
//
// It returns the delivered view.
func (o *Oracle) DeliverView(members types.ProcSet) (types.View, error) {
	if members.Len() == 0 {
		return types.View{}, fmt.Errorf("deliver view: empty membership")
	}
	startID := make(map[types.ProcID]types.StartChangeID, members.Len())
	vid := o.nextVid
	for _, p := range members.Sorted() {
		st, err := o.client(p)
		if err != nil {
			return types.View{}, err
		}
		if st.crashed {
			return types.View{}, fmt.Errorf("deliver view: member %s is crashed", p)
		}
		if st.mode != modeChangeStarted {
			return types.View{}, fmt.Errorf("deliver view: no preceding start_change at %s", p)
		}
		if !members.SubsetOf(st.startChange.Set) {
			return types.View{}, fmt.Errorf(
				"deliver view: members %s not a subset of start_change set %s at %s",
				members, st.startChange.Set, p)
		}
		if st.view.ID >= vid {
			vid = st.view.ID + 1
		}
		startID[p] = st.startChange.ID
	}
	if vid >= o.nextVid {
		o.nextVid = vid + 1
	}
	v := types.NewView(vid, members, startID)
	for _, p := range members.Sorted() {
		st := o.clients[p]
		st.view = v.Clone()
		st.mode = modeNormal
		o.out(p, Notification{Kind: NotifyView, View: v.Clone()})
	}
	return v, nil
}

// ProposeAndCommit is the common one-shot sequence: a start_change to every
// member of set immediately followed by the corresponding view.
func (o *Oracle) ProposeAndCommit(set types.ProcSet) (types.View, error) {
	if _, err := o.StartChange(set); err != nil {
		return types.View{}, err
	}
	return o.DeliverView(set)
}

// Partition splits the processes into the given disjoint groups, delivering
// to each group a start_change followed by a fresh view containing exactly
// that group (the service is partitionable; Section 3.1). It returns the
// views in group order.
func (o *Oracle) Partition(groups ...types.ProcSet) ([]types.View, error) {
	views := make([]types.View, 0, len(groups))
	for _, g := range groups {
		v, err := o.ProposeAndCommit(g)
		if err != nil {
			return nil, err
		}
		views = append(views, v)
	}
	return views, nil
}

// Crash marks p as crashed: the service stops notifying p but, per Section
// 8, retains p's identifier state (last cid and view id) so that the first
// view delivered after recovery still satisfies Local Monotonicity.
func (o *Oracle) Crash(p types.ProcID) error {
	st, err := o.client(p)
	if err != nil {
		return err
	}
	st.crashed = true
	return nil
}

// Recover marks p as live again and resets its mode to normal (the
// recover_p action of Section 8).
func (o *Oracle) Recover(p types.ProcID) error {
	st, err := o.client(p)
	if err != nil {
		return err
	}
	st.crashed = false
	st.mode = modeNormal
	return nil
}

func (o *Oracle) client(p types.ProcID) (*clientState, error) {
	st, ok := o.clients[p]
	if !ok {
		return nil, fmt.Errorf("membership: unknown client %s", p)
	}
	return st, nil
}

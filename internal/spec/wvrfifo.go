package spec

import (
	"fmt"

	"vsgm/internal/types"
)

// msgInfo records, at send time, the association of a message with its
// sender, the view it was sent in, and its FIFO index — the history tags Hv
// and Hi of Section 6.1.1 — and how many members of that view have yet to
// deliver it. The record is dropped when none has: nobody can deliver the
// message legally after that, and a checker attached to a long run keeps
// only what is in flight.
type msgInfo struct {
	sender   types.ProcID
	viewKey  string
	index    int
	awaiting int
}

// procView tracks one process's current view as the specification automaton
// sees it, together with the recovery epoch used to disambiguate repeated
// occupancy of the initial singleton view across crash/recovery cycles.
type procView struct {
	view  types.View
	epoch int
}

func (pv procView) key() string {
	if pv.view.ID == types.InitialViewID {
		return fmt.Sprintf("%s#%d", pv.view.Key(), pv.epoch)
	}
	return pv.view.Key()
}

// WVRFIFO checks the within-view reliable FIFO specification (Figure 4):
//
//   - Self Inclusion and Local Monotonicity on delivered views;
//   - every message is delivered in the view in which it was sent;
//   - deliveries from each sender are gap-free and FIFO within a view.
//
// It also checks the local well-formedness rule that a process delivers each
// message at most once per view (implied by the last_dlvrd indexing).
type WVRFIFO struct {
	base

	views     map[types.ProcID]procView
	maxViewID map[types.ProcID]types.ViewID
	seq       map[types.ProcID]int // per-sender index within its current view
	lastDlvrd map[types.ProcID]map[types.ProcID]int
	info      map[int64]msgInfo
	crashed   map[types.ProcID]bool
}

// NewWVRFIFO returns a checker for WV_RFIFO : SPEC.
func NewWVRFIFO() *WVRFIFO {
	return &WVRFIFO{
		base:      base{name: "WV_RFIFO:SPEC"},
		views:     make(map[types.ProcID]procView),
		maxViewID: make(map[types.ProcID]types.ViewID),
		seq:       make(map[types.ProcID]int),
		lastDlvrd: make(map[types.ProcID]map[types.ProcID]int),
		info:      make(map[int64]msgInfo),
		crashed:   make(map[types.ProcID]bool),
	}
}

func (c *WVRFIFO) viewOf(p types.ProcID) procView {
	if pv, ok := c.views[p]; ok {
		return pv
	}
	pv := procView{view: types.InitialView(p)}
	c.views[p] = pv
	return pv
}

func (c *WVRFIFO) dlvrdRow(p types.ProcID) map[types.ProcID]int {
	row := c.lastDlvrd[p]
	if row == nil {
		row = make(map[types.ProcID]int)
		c.lastDlvrd[p] = row
	}
	return row
}

// OnEvent implements Checker.
func (c *WVRFIFO) OnEvent(ev Event) {
	switch e := ev.(type) {
	case ESend:
		if c.crashed[e.P] {
			c.failf("send at crashed process %s", e.P)
			return
		}
		c.seq[e.P]++
		pv := c.viewOf(e.P)
		c.info[e.MsgID] = msgInfo{
			sender:   e.P,
			viewKey:  pv.key(),
			index:    c.seq[e.P],
			awaiting: pv.view.Members.Len(),
		}

	case EDeliver:
		if c.crashed[e.P] {
			c.failf("deliver at crashed process %s", e.P)
			return
		}
		mi, ok := c.info[e.MsgID]
		if !ok {
			c.failf("%s delivered message #%d that was never sent, or that every member of its view had already delivered", e.P, e.MsgID)
			return
		}
		if mi.sender != e.From {
			c.failf("%s delivered #%d attributed to %s but sent by %s",
				e.P, e.MsgID, e.From, mi.sender)
			return
		}
		cur := c.viewOf(e.P)
		if mi.viewKey != cur.key() {
			c.failf("%s delivered #%d (sent by %s in view key %q) while in view key %q: violates within-view delivery",
				e.P, e.MsgID, e.From, mi.viewKey, cur.key())
			return
		}
		row := c.dlvrdRow(e.P)
		if want := row[e.From] + 1; mi.index != want {
			c.failf("%s delivered #%d from %s at index %d, expected index %d: violates gap-free FIFO",
				e.P, e.MsgID, e.From, mi.index, want)
			return
		}
		row[e.From]++
		if mi.awaiting--; mi.awaiting <= 0 {
			delete(c.info, e.MsgID)
		} else {
			c.info[e.MsgID] = mi
		}

	case EView:
		if c.crashed[e.P] {
			c.failf("view delivered at crashed process %s", e.P)
			return
		}
		if !e.View.Contains(e.P) {
			c.failf("%s delivered view %s without itself: violates Self Inclusion", e.P, e.View)
		}
		if _, seen := c.maxViewID[e.P]; !seen {
			c.maxViewID[e.P] = types.InitialViewID
		}
		if e.View.ID <= c.maxViewID[e.P] {
			c.failf("%s delivered view id %d after view id %d: violates Local Monotonicity",
				e.P, e.View.ID, c.maxViewID[e.P])
		} else {
			c.maxViewID[e.P] = e.View.ID
		}
		epoch := c.viewOf(e.P).epoch
		c.views[e.P] = procView{view: e.View, epoch: epoch}
		c.lastDlvrd[e.P] = make(map[types.ProcID]int)
		c.seq[e.P] = 0

	case ECrash:
		c.crashed[e.P] = true

	case ERecover:
		c.crashed[e.P] = false
		pv := c.viewOf(e.P)
		// The recovered process restarts in a fresh epoch of its initial
		// singleton view; Local Monotonicity continues to be judged against
		// the pre-crash maximum (Section 8).
		c.views[e.P] = procView{view: types.InitialView(e.P), epoch: pv.epoch + 1}
		c.lastDlvrd[e.P] = make(map[types.ProcID]int)
		c.seq[e.P] = 0
	}
}

// Finalize implements Checker; WV_RFIFO has no end-of-trace obligations.
func (c *WVRFIFO) Finalize() {}

var _ Checker = (*WVRFIFO)(nil)

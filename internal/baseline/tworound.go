// Package baseline implements the comparison algorithms against which the
// paper positions its contribution:
//
//   - TwoRound: a virtually synchronous multicast end-point in the style the
//     paper attributes to previously suggested algorithms (e.g., Totem,
//     structured virtual synchrony): upon a membership view, the members
//     first run an explicit round to pre-agree on a globally unique
//     identifier, and only then exchange synchronization messages tagged
//     with it. Reconfiguration therefore costs two sequential message
//     rounds after the membership decision, where the paper's algorithm
//     overlaps its single synchronization round with the membership round.
//
//   - RestartPolicy helpers (restart.go): the view-change scheduling policy
//     of algorithms that complete the current membership change before
//     admitting new joiners, delivering views that are already known to be
//     out of date (experiment E3).
//
// TwoRound implements the sim.Node interface so it runs under the identical
// simulation harness, latency model, and spec checkers as the paper's
// algorithm.
package baseline

import (
	"errors"

	"vsgm/internal/core"
	"vsgm/internal/types"
)

// TwoRound is the two-round virtually synchronous end-point. It ignores
// start_change notifications entirely: without locally unique identifiers
// echoed in the view, it cannot synchronize before the membership decision
// arrives, which is precisely the structural difference the paper removes.
type TwoRound struct {
	id        types.ProcID
	transport core.Transport

	currentView types.View
	pendingView *types.View

	msgs      map[types.ProcID]map[string][]types.AppMsg
	lastSent  int
	lastDlvrd map[types.ProcID]int
	viewMsg   map[types.ProcID]types.View
	viewAnn   bool // view_msg for currentView already multicast

	// Per-identifier round state. The globally unique identifier the
	// members agree on is the new view's key.
	proposes map[string]types.ProcSet
	syncs    map[string]map[types.ProcID]*types.SyncMsg

	blocked bool
	crashed bool

	nextMsgID int64
	pending   []core.Event

	viewsInstalled int64
}

// sync payload: we reuse types.SyncMsg; View carries the sender's previous
// view so receivers can compute transitional sets and restrict cut agreement
// to processes moving from the same view.

// NewTwoRound constructs a baseline end-point.
func NewTwoRound(id types.ProcID, tr core.Transport, msgIDBase int64) (*TwoRound, error) {
	if id == "" {
		return nil, errors.New("baseline: id required")
	}
	if tr == nil {
		return nil, errors.New("baseline: transport required")
	}
	b := &TwoRound{id: id, transport: tr, nextMsgID: msgIDBase}
	b.reset()
	return b, nil
}

func (b *TwoRound) reset() {
	b.currentView = types.InitialView(b.id)
	b.pendingView = nil
	b.msgs = make(map[types.ProcID]map[string][]types.AppMsg)
	b.lastSent = 0
	b.lastDlvrd = make(map[types.ProcID]int)
	b.viewMsg = map[types.ProcID]types.View{b.id: types.InitialView(b.id)}
	b.viewAnn = true // the singleton view needs no announcement
	b.proposes = make(map[string]types.ProcSet)
	b.syncs = make(map[string]map[types.ProcID]*types.SyncMsg)
	b.blocked = false
}

// ID implements sim.Node.
func (b *TwoRound) ID() types.ProcID { return b.id }

// CurrentView implements sim.Node.
func (b *TwoRound) CurrentView() types.View { return b.currentView.Clone() }

// ViewsInstalled returns the number of views delivered to the application.
func (b *TwoRound) ViewsInstalled() int64 { return b.viewsInstalled }

// TakeEvents implements sim.Node.
func (b *TwoRound) TakeEvents() []core.Event {
	evs := b.pending
	b.pending = nil
	return evs
}

// HandleStartChange implements sim.Node: the baseline cannot exploit
// start_change notifications.
func (b *TwoRound) HandleStartChange(types.StartChange) {}

// BlockOK implements sim.Node; the baseline blocks its client implicitly at
// view arrival.
func (b *TwoRound) BlockOK() {}

// Crash implements sim.Node.
func (b *TwoRound) Crash() {
	b.crashed = true
	b.pending = nil
}

// Recover implements sim.Node.
func (b *TwoRound) Recover() {
	if !b.crashed {
		return
	}
	b.crashed = false
	b.reset()
}

// Send implements sim.Node: multicast an application message in the current
// view. Sending during a view change is rejected (the client is blocked for
// the whole two-round exchange).
func (b *TwoRound) Send(payload []byte) (types.AppMsg, error) {
	if b.crashed {
		return types.AppMsg{}, core.ErrCrashed
	}
	if b.blocked {
		return types.AppMsg{}, core.ErrBlocked
	}
	b.nextMsgID++
	m := types.AppMsg{ID: b.nextMsgID, Payload: append([]byte(nil), payload...)}
	b.appendMsg(b.id, b.currentView.Key(), m)
	b.announceView()
	others := b.others(b.currentView.Members)
	b.lastSent = b.ownCount()
	if len(others) > 0 {
		b.transport.Send(others, types.WireMsg{Kind: types.KindApp, App: m})
	}
	b.deliverReady()
	return m, nil
}

// HandleView implements sim.Node: the membership decided a view. Round one
// begins: multicast a propose message carrying the (globally unique) view
// identifier to the new members.
func (b *TwoRound) HandleView(v types.View) {
	if b.crashed || v.ID <= b.currentView.ID {
		return
	}
	cp := v.Clone()
	b.pendingView = &cp
	if !b.blocked {
		b.blocked = true
		b.emit(core.BlockEvent{})
	}
	b.transport.SetReliable(b.currentView.Members.Union(v.Members))
	key := v.Key()
	if b.proposes[key] == nil {
		b.proposes[key] = types.NewProcSet()
	}
	b.proposes[key].Add(b.id)
	if others := b.others(v.Members); len(others) > 0 {
		b.transport.Send(others, types.WireMsg{Kind: types.KindPropose, View: v.Clone()})
	}
	b.maybeSendSync()
	b.maybeInstall()
}

// HandleMessage implements sim.Node.
func (b *TwoRound) HandleMessage(from types.ProcID, m types.WireMsg) {
	if b.crashed {
		return
	}
	switch m.Kind {
	case types.KindView:
		b.viewMsg[from] = m.View.Clone()
	case types.KindApp:
		vm, ok := b.viewMsg[from]
		if !ok {
			vm = types.InitialView(from)
		}
		b.appendMsg(from, vm.Key(), m.App)
		b.deliverReady()
	case types.KindPropose:
		key := m.View.Key()
		if b.proposes[key] == nil {
			b.proposes[key] = types.NewProcSet()
		}
		b.proposes[key].Add(from)
		b.maybeSendSync()
	case types.KindSync:
		// For the baseline, CID is unused; the sync is tagged by the view
		// carried in m.HistView (the pending view) and m.View is the
		// sender's previous view.
		key := m.HistView.Key()
		row := b.syncs[key]
		if row == nil {
			row = make(map[types.ProcID]*types.SyncMsg)
			b.syncs[key] = row
		}
		row[from] = &types.SyncMsg{View: m.View.Clone(), Cut: m.Cut.Clone()}
		b.deliverReady()
	}
	b.maybeInstall()
}

// maybeSendSync fires round two once round one completed: proposes for the
// pending view's identifier have arrived from every member.
func (b *TwoRound) maybeSendSync() {
	if b.pendingView == nil {
		return
	}
	key := b.pendingView.Key()
	got := b.proposes[key]
	if got == nil || !b.pendingView.Members.SubsetOf(got) {
		return
	}
	row := b.syncs[key]
	if row == nil {
		row = make(map[types.ProcID]*types.SyncMsg)
		b.syncs[key] = row
	}
	if _, sent := row[b.id]; sent {
		return
	}
	cut := make(types.Cut, b.currentView.Members.Len())
	for q := range b.currentView.Members {
		cut[q] = len(b.msgs[q][b.currentView.Key()])
	}
	row[b.id] = &types.SyncMsg{View: b.currentView.Clone(), Cut: cut.Clone()}
	if others := b.others(b.pendingView.Members); len(others) > 0 {
		b.transport.Send(others, types.WireMsg{
			Kind:     types.KindSync,
			View:     b.currentView.Clone(),
			Cut:      cut,
			HistView: b.pendingView.Clone(),
		})
	}
	b.deliverReady()
}

// agreedCut returns the maximum cut over the transitional-set members (those
// whose sync declares the same previous view as ours), or nil if any sync is
// still missing.
func (b *TwoRound) agreedCut() (types.Cut, types.ProcSet) {
	if b.pendingView == nil {
		return nil, nil
	}
	key := b.pendingView.Key()
	row := b.syncs[key]
	for q := range b.pendingView.Members {
		if row[q] == nil {
			return nil, nil
		}
	}
	trans := types.NewProcSet()
	var cuts []types.Cut
	for q, sm := range row {
		if b.pendingView.Members.Contains(q) && sm.View.Equal(b.currentView) {
			trans.Add(q)
			cuts = append(cuts, sm.Cut)
		}
	}
	return types.MaxCut(cuts), trans
}

// deliveryLimit bounds application delivery during a view change, exactly as
// the paper's algorithm does: own cut once committed, agreed cut once known.
func (b *TwoRound) deliveryLimit(q types.ProcID) (int, bool) {
	if b.pendingView == nil {
		return 0, false
	}
	own := b.syncs[b.pendingView.Key()][b.id]
	if own == nil {
		return 0, false
	}
	if agreed, _ := b.agreedCut(); agreed != nil {
		return agreed[q], true
	}
	return own.Cut[q], true
}

// deliverReady delivers pending application messages in FIFO order.
func (b *TwoRound) deliverReady() {
	for progress := true; progress; {
		progress = false
		for _, q := range b.currentView.Members.Sorted() {
			next := b.lastDlvrd[q] + 1
			seq := b.msgs[q][b.currentView.Key()]
			if next > len(seq) {
				continue
			}
			if q == b.id && next > b.lastSent {
				continue
			}
			if limit, limited := b.deliveryLimit(q); limited && next > limit {
				continue
			}
			b.lastDlvrd[q] = next
			b.emit(core.DeliverEvent{Sender: q, Msg: seq[next-1]})
			progress = true
		}
	}
}

// maybeInstall installs the pending view once both rounds completed and the
// agreed cut has been delivered.
func (b *TwoRound) maybeInstall() {
	if b.crashed || b.pendingView == nil {
		return
	}
	agreed, trans := b.agreedCut()
	if agreed == nil {
		return
	}
	b.deliverReady()
	for q := range b.currentView.Members {
		if b.lastDlvrd[q] != agreed[q] {
			return
		}
	}
	if b.lastDlvrd[b.id] != b.ownCount() {
		return // self delivery
	}

	v := *b.pendingView
	b.emit(core.ViewEvent{View: v.Clone(), TransitionalSet: trans.Clone()})
	b.currentView = v.Clone()
	b.pendingView = nil
	b.lastSent = 0
	b.lastDlvrd = make(map[types.ProcID]int)
	b.blocked = false
	b.viewAnn = false
	b.viewsInstalled++
	delete(b.proposes, v.Key())
	delete(b.syncs, v.Key())
	b.transport.SetReliable(b.currentView.Members.Clone())
	b.announceView()
	b.deliverReady()
}

// announceView multicasts the view_msg for the current view once.
func (b *TwoRound) announceView() {
	if b.viewAnn {
		return
	}
	b.viewAnn = true
	b.viewMsg[b.id] = b.currentView.Clone()
	if others := b.others(b.currentView.Members); len(others) > 0 {
		b.transport.Send(others, types.WireMsg{Kind: types.KindView, View: b.currentView.Clone()})
	}
}

func (b *TwoRound) appendMsg(q types.ProcID, viewKey string, m types.AppMsg) {
	row := b.msgs[q]
	if row == nil {
		row = make(map[string][]types.AppMsg)
		b.msgs[q] = row
	}
	row[viewKey] = append(row[viewKey], m)
}

func (b *TwoRound) ownCount() int {
	return len(b.msgs[b.id][b.currentView.Key()])
}

func (b *TwoRound) others(set types.ProcSet) []types.ProcID {
	return set.Minus(types.NewProcSet(b.id)).Sorted()
}

func (b *TwoRound) emit(ev core.Event) { b.pending = append(b.pending, ev) }

package core

import "vsgm/internal/types"

// step fires enabled locally controlled actions until quiescence. Each
// locally controlled action of the paper's automata is its own task; firing
// eagerly after every input realizes the fairness assumption (an enabled
// action that stays enabled eventually executes).
//
// In a stable view (no start_change pending, membership view installed) only
// tryDeliverApp, trySendApp and tryAck can fire, and every guard decides
// from scalar state — a dirty flag, a counter, a nil check — without touching
// a map or the allocator, so an input on the data path costs O(1) guard work
// however many members the view has.
func (e *Endpoint) step() {
	if e.crashed {
		return
	}
	// tryForward must precede tryDeliverView: installing the view disables
	// forwarding (start_change resets), and the liveness argument of
	// Section 7.2 relies on committed holders forwarding missing messages
	// before they move on.
	for {
		switch {
		case e.tryDeliverApp():
		case e.tryReliable():
		case e.tryBlock():
		case e.trySendSync():
		case e.tryBundle():
		case e.tryForward():
		case e.tryDeliverView():
		case e.trySendViewMsg():
		case e.trySendApp():
		case e.tryAck():
		default:
			return
		}
	}
}

// tryReliable is co_rfifo.reliable_p(set). WV_RFIFO allows any superset of
// the current view's membership; VS_RFIFO+TS restricts the set to exactly
// current_view.set, or current_view.set ∪ start_change.set while a change is
// pending (Figure 10).
//
// The desired set is a function of the current view and the pending
// start_change alone, so it is recomputed only after one of them changed.
func (e *Endpoint) tryReliable() bool {
	if !e.reliableDirty {
		return false
	}
	e.reliableDirty = false
	desired := e.currentView.Members
	if e.level >= LevelVS && e.startChange != nil {
		desired = desired.Union(e.startChange.Set)
	}
	if e.reliableSet.Equal(desired) {
		return false
	}
	e.reliableSet = desired
	e.transport.SetReliable(desired.Clone())
	return true
}

// tryBlock is block_p() (Figure 11): once a view change starts, ask the
// application to stop sending.
func (e *Endpoint) tryBlock() bool {
	if e.level != LevelGCS || e.startChange == nil || e.blockStatus != Unblocked {
		return false
	}
	e.blockStatus = Requested
	e.emit(BlockEvent{})
	if e.autoBlock {
		e.blockStatus = Blocked
	}
	return true
}

// trySendSync is co_rfifo.send_p(set, sync_msg, cid, v, cut) (Figure 10,
// restricted by Figure 11): after a start_change — and, at the GCS level,
// once the client is blocked — send one synchronization message tagged with
// the locally unique cid, carrying the current view and the cut of messages
// this end-point commits to deliver before the next view.
func (e *Endpoint) trySendSync() bool {
	if e.level < LevelVS || e.startChange == nil {
		return false
	}
	if !e.startChange.Set.SubsetOf(e.reliableSet) {
		return false
	}
	if e.syncMsgOf(e.id, e.startChange.ID) != nil {
		return false
	}
	if e.level == LevelGCS && e.blockStatus != Blocked {
		return false
	}

	cut := make(types.Cut, len(e.curMembers))
	for k, q := range e.curMembers {
		cut[q] = e.curBufs[k].longestPrefix()
	}
	cid := e.startChange.ID
	trace := e.startChange.Trace
	full := types.WireMsg{
		Kind:  types.KindSync,
		CID:   cid,
		View:  e.currentView.Clone(),
		Cut:   cut.Clone(),
		Trace: trace,
	}

	others := e.startChange.Set.Minus(types.NewProcSet(e.id))
	if topo := e.hierarchyFor(e.startChange.Set); topo != nil {
		// Two-tier hierarchy (Section 9): route the sync to the group
		// leader only; a leader queues its own entry for the next bundle.
		if topo.isLead {
			e.hQueue(types.SyncEntry{
				From: e.id, CID: cid, View: e.currentView.Clone(), Cut: cut.Clone(),
			}, false)
		} else {
			e.transport.Send([]types.ProcID{topo.leader}, full)
		}
	} else if e.smallSync {
		// Section 5.2.4: end-points outside our current view cannot have us
		// in their transitional set; a small cid-only message suffices.
		// Members of our current view, conversely, can deduce our view from
		// the preceding view_msg on the same FIFO channel, so the full sync
		// elides it (the section's second optimization).
		fullDests := others.Intersect(e.currentView.Members).Sorted()
		smallDests := others.Minus(e.currentView.Members).Sorted()
		if len(fullDests) > 0 {
			elided := full
			elided.View = types.View{}
			elided.ElideView = true
			e.transport.Send(fullDests, elided)
		}
		if len(smallDests) > 0 {
			e.transport.Send(smallDests, types.WireMsg{Kind: types.KindSync, CID: cid, Small: true, Trace: trace})
		}
	} else if others.Len() > 0 {
		e.transport.Send(others.Sorted(), full)
	}

	row := e.syncMsgs[e.id]
	if row == nil {
		row = make(map[types.StartChangeID]*types.SyncMsg)
		e.syncMsgs[e.id] = row
	}
	row[cid] = &types.SyncMsg{View: e.currentView.Clone(), Cut: cut}
	e.ownSync.valid = true
	e.ownSync.cid = cid
	e.ownSync.view = e.currentView.Clone()
	e.ownSync.cut = cut.Clone()
	e.ownSync.trace = trace
	e.limitsValid = false
	e.fwdDirty = true
	if e.trace != nil {
		e.trace.SyncSent(cid, trace, false)
	}
	return true
}

// ResendSync replays this end-point's committed synchronization message for
// the pending start_change, marked as a probe, to the other members of the
// change set. A probed peer answers with its own latest sync, so both
// directions of a lost sync exchange are repaired. The resend carries the
// originally committed view and cut verbatim — the cut is binding — and it
// is always the full message: a duplicate full sync is idempotent for every
// receiver, while re-deriving the Section 5.2.4 small/elided forms here
// could not rely on FIFO adjacency to a view_msg. It reports whether a
// probe was sent (false when no change is pending or no sync was sent yet).
func (e *Endpoint) ResendSync() bool {
	if e.crashed || e.startChange == nil || !e.ownSync.valid || e.ownSync.cid != e.startChange.ID {
		return false
	}
	others := e.startChange.Set.Minus(types.NewProcSet(e.id))
	if others.Len() == 0 {
		return false
	}
	e.transport.Send(others.Sorted(), types.WireMsg{
		Kind:  types.KindSync,
		CID:   e.ownSync.cid,
		View:  e.ownSync.view.Clone(),
		Cut:   e.ownSync.cut.Clone(),
		Probe: true,
		Trace: e.ownSync.trace,
	})
	if e.trace != nil {
		e.trace.SyncSent(e.ownSync.cid, e.ownSync.trace, true)
	}
	return true
}

// answerSyncProbe responds to a probe by resending our own latest committed
// sync directly to the prober. This covers the asymmetric wedge: we may
// have already installed the view (nothing pending, so we would never probe
// ourselves) while the prober still lacks our sync. Answers are plain
// syncs, never probes, so two healthy peers cannot ping-pong.
func (e *Endpoint) answerSyncProbe(from types.ProcID) {
	if !e.ownSync.valid || from == e.id {
		return
	}
	e.transport.Send([]types.ProcID{from}, types.WireMsg{
		Kind:  types.KindSync,
		CID:   e.ownSync.cid,
		View:  e.ownSync.view.Clone(),
		Cut:   e.ownSync.cut.Clone(),
		Trace: e.ownSync.trace,
	})
	if e.trace != nil {
		e.trace.SyncSent(e.ownSync.cid, e.ownSync.trace, true)
	}
}

// trySendViewMsg is co_rfifo.send_p(set, view_msg, v) (Figure 9): before
// sending application messages in a view, announce the view to the members.
func (e *Endpoint) trySendViewMsg() bool {
	if e.viewMsgSent {
		return false
	}
	if !e.currentView.Members.SubsetOf(e.reliableSet) {
		return false
	}
	if len(e.curOthers) > 0 {
		e.transport.Send(e.curOthers, types.WireMsg{Kind: types.KindView, View: e.currentView})
	}
	e.viewMsgSent = true
	return true
}

// trySendApp is co_rfifo.send_p(set, app_msg, m) (Figure 9): multicast the
// next unsent application message of the current view, stamped with the
// history tags of Section 6.1.1.
func (e *Endpoint) trySendApp() bool {
	if !e.viewMsgSent {
		return false
	}
	next := e.lastSent + 1
	m, ok := e.curBufs[e.self].get(next)
	if !ok {
		return false
	}
	if len(e.curOthers) > 0 {
		e.transport.Send(e.curOthers, types.WireMsg{
			Kind:      types.KindApp,
			App:       m,
			HistView:  e.currentView,
			HistIndex: next,
		})
	}
	e.lastSent = next
	e.markDeliverable(e.self) // sent, so now self-deliverable
	return true
}

// tryDeliverApp is deliver_p(q, m) (Figure 9, restricted by Figure 10): for
// each sender, deliver the next message of the current view, subject to the
// VS restriction that, once this end-point has committed a cut, it delivers
// no message beyond the cuts associated with the forthcoming view.
//
// Only the ranks in [dlvLo, dlvHi) are examined — every other member was
// found to have nothing deliverable and nothing has been stored for it
// since — in member order, so the delivery order is that of a full scan.
func (e *Endpoint) tryDeliverApp() bool {
	if !e.limitsValid {
		e.refreshLimits()
		e.dlvLo, e.dlvHi = 0, len(e.curMembers)
	}
	for k := e.dlvLo; k < e.dlvHi; k++ {
		next := e.lastDlvrd[k] + 1
		s := e.curBufs[k].at(next)
		if s == nil {
			continue
		}
		if k == e.self && next > e.lastSent {
			// Own messages must be sent to the other members before they
			// may be self-delivered (Figure 9).
			continue
		}
		q := e.curMembers[k]
		if e.limits != nil && next > e.limits[q] {
			continue
		}
		e.dlvLo = k // nothing below k was deliverable; k may have more
		e.lastDlvrd[k] = next
		e.msgsDelivered++
		e.sinceAck++
		e.sinceAckBytes += len(s.msg.Payload)
		if s.hold != nil {
			// The event outlives this step, the slot may not: the ack this
			// very delivery triggers, or the view it completes, can collect
			// it before anyone has taken the event.
			s.hold.Retain(1)
		}
		e.emit(DeliverEvent{Sender: q, Msg: s.msg, Hold: s.hold})
		return true
	}
	e.dlvLo, e.dlvHi = len(e.curMembers), 0
	return false
}

// refreshLimits recomputes the Figure 10 restriction on deliver_p(q, m):
// after committing a cut and before knowing the membership's verdict,
// deliver only up to our own cut; once the membership view for this
// start_change is known, deliver up to the maximum cut among the candidate
// transitional-set members. A nil limits cut means delivery is unrestricted.
func (e *Endpoint) refreshLimits() {
	e.limitsValid = true
	e.limits = nil
	if e.level < LevelVS || e.startChange == nil {
		return
	}
	own := e.syncMsgOf(e.id, e.startChange.ID)
	if own == nil {
		return
	}
	if sid, ok := e.mbrshpView.StartID[e.id]; !ok || sid != e.startChange.ID {
		e.limits = own.Cut
		return
	}
	limits := make(types.Cut, len(e.curMembers))
	for r := range e.mbrshpView.Members {
		if !e.currentView.Members.Contains(r) {
			continue
		}
		sm := e.syncMsgOf(r, e.mbrshpView.StartID[r])
		if sm == nil || sm.Small || !sm.View.Equal(e.currentView) {
			continue
		}
		for q, c := range sm.Cut {
			if c > limits[q] {
				limits[q] = c
			}
		}
	}
	e.limits = limits
}

// tryDeliverView is view_p(v, T) (Figures 9-11): install the membership's
// latest view once the synchronization round for it has completed and the
// agreed cut has been fully delivered.
func (e *Endpoint) tryDeliverView() bool {
	v := e.mbrshpView
	if v.ID <= e.currentView.ID || !v.Members.Contains(e.id) {
		return false
	}

	var trans types.ProcSet
	if e.level >= LevelVS {
		if e.startChange == nil {
			return false
		}
		// Prevent delivery of obsolete views: the view must answer our
		// latest start_change (Figure 10).
		if sid, ok := v.StartID[e.id]; !ok || sid != e.startChange.ID {
			return false
		}
		inter := v.Members.Intersect(e.currentView.Members)
		for q := range inter {
			if e.syncMsgOf(q, v.StartID[q]) == nil {
				return false
			}
		}
		trans = make(types.ProcSet, inter.Len())
		cuts := make([]types.Cut, 0, inter.Len())
		for q := range inter {
			sm := e.syncMsgOf(q, v.StartID[q])
			if !sm.Small && sm.View.Equal(e.currentView) {
				trans.Add(q)
				cuts = append(cuts, sm.Cut)
			}
		}
		agreed := types.MaxCut(cuts)
		for k, q := range e.curMembers {
			if e.lastDlvrd[k] != agreed[q] {
				return false
			}
		}
		if e.level == LevelGCS {
			// Self Delivery (Figure 7/11): all own messages of the current
			// view must have been delivered.
			if e.lastDlvrd[e.self] != e.curBufs[e.self].lastIndex() {
				return false
			}
		}
	}

	// v is the end-point's own copy (HandleView cloned it) and views are
	// immutable, so the event, the trace and the automaton share it.
	e.emit(ViewEvent{View: v, TransitionalSet: trans})
	if e.trace != nil {
		e.trace.ViewInstalled(v)
	}
	e.setCurrentView(v)
	e.startChange = nil
	e.blockStatus = Unblocked
	e.hPending = nil
	e.hSent = make(map[hEntryKey]struct{})
	e.advanceBaseline(e.currentView)
	e.viewsInstalled++
	e.msgs.dropExcept(e.curKey)
	for _, s := range e.streams {
		s.buf = nil // may have been dropped; re-resolved on next use
	}
	e.forwarded = make(map[forwardKey]struct{})
	return true
}

// tryForward is co_rfifo.send_p(set, fwd_msg, r, v, m, i) (Figure 10): ask
// the configured forwarding strategy for forwarding obligations and send any
// copy not already forwarded to that destination.
func (e *Endpoint) tryForward() bool {
	if e.level < LevelVS || e.fwd == nil || e.startChange == nil || !e.fwdDirty {
		return false
	}
	e.fwdDirty = false
	fired := false
	for _, f := range e.fwd.Plan(e) {
		m, ok := e.curBuf(f.Origin).get(f.Index)
		if !ok {
			continue
		}
		var dests []types.ProcID
		for _, q := range f.Dests {
			if q == e.id {
				continue
			}
			k := forwardKey{dest: q, origin: f.Origin, viewKey: e.curKey, index: f.Index}
			if _, dup := e.forwarded[k]; dup {
				continue
			}
			e.forwarded[k] = struct{}{}
			dests = append(dests, q)
		}
		if len(dests) == 0 {
			continue
		}
		e.transport.Send(dests, types.WireMsg{
			Kind:   types.KindFwd,
			App:    m,
			Origin: f.Origin,
			View:   e.currentView,
			Index:  f.Index,
		})
		e.forwardsPlanned += int64(len(dests))
		fired = true
	}
	return fired
}

// ackBytes is the payload an end-point delivers before it acknowledges even
// short of AckInterval deliveries. It counts payload length, not the slab a
// held message pins: a sender and a receiver of the same message pin
// different slabs but must ack at the same cadence.
const ackBytes = 1 << 20

// tryAck multicasts a stability acknowledgment — the per-sender delivered
// counts — once enough deliveries accumulated, and collects any message
// slots that every view member has acknowledged (the garbage-collection
// mechanism Section 5.1 notes real implementations employ). Enough is
// AckInterval deliveries or ackBytes of delivered payload, whichever comes
// first: small messages ack by count, large ones by bytes.
//
// Acknowledgments are scoped to a view by the FIFO channel alone: one is
// sent only after the own view_msg for the current view, and a receiver
// counts one only while the sender's latest view_msg names the receiver's
// current view (handleAck), so indices of one view never collect another's.
func (e *Endpoint) tryAck() bool {
	if e.ackInterval <= 0 || !e.viewMsgSent || (e.sinceAck < e.ackInterval && e.sinceAckBytes < ackBytes) {
		return false
	}
	e.sendAck()
	return true
}

// FlushAck acknowledges now whatever this end-point delivered since its last
// stability acknowledgment, instead of waiting for AckInterval deliveries. A
// runtime calls it periodically so that a group gone quiet still collects
// the tail of its traffic; it is a no-op with acknowledgments disabled or
// nothing new to report.
func (e *Endpoint) FlushAck() {
	if e.crashed || e.ackInterval <= 0 || e.sinceAck == 0 || !e.viewMsgSent {
		return
	}
	e.sendAck()
}

func (e *Endpoint) sendAck() {
	e.sinceAck, e.sinceAckBytes = 0, 0
	if len(e.curOthers) > 0 {
		e.acksSent++
		cut := make(types.Cut, len(e.curMembers))
		for k, q := range e.curMembers {
			cut[q] = e.lastDlvrd[k]
		}
		e.transport.Send(e.curOthers, types.WireMsg{Kind: types.KindAck, Cut: cut})
	}
	copy(e.ackRow(e.self), e.lastDlvrd)
	e.collectStable()
}

// handleAck records from's stability acknowledgment. One that was sent in
// another view is ignored: from's view_msg for a view precedes every
// acknowledgment it sends in that view on the same FIFO channel, so its
// latest view_msg names the view the counts belong to.
func (e *Endpoint) handleAck(from types.ProcID, cut types.Cut) {
	r, member := e.rank[from]
	if e.ackInterval <= 0 || !member || e.streamOf(from).view.Key() != e.curKey {
		return
	}
	row := e.ackRow(r)
	for q, c := range cut {
		if k, ok := e.rank[q]; ok {
			row[k] = c
		}
	}
	e.collectStable()
}

// ackRow returns acked[r], allocating it on r's first acknowledgment.
func (e *Endpoint) ackRow(r int) []int {
	if e.acked[r] == nil {
		e.acked[r] = make([]int, len(e.curMembers))
		e.ackers++
	}
	return e.acked[r]
}

// collectStable garbage-collects every message slot acknowledged by the
// whole current view.
func (e *Endpoint) collectStable() {
	if e.ackers < len(e.curMembers) {
		return // someone has not acked at all yet
	}
	for k, b := range e.curBufs {
		stable := e.acked[0][k]
		for _, row := range e.acked[1:] {
			stable = min(stable, row[k])
		}
		b.collect(stable)
	}
}

// syncMsgOf returns sync_msg[q][cid], or nil.
func (e *Endpoint) syncMsgOf(q types.ProcID, cid types.StartChangeID) *types.SyncMsg {
	return e.syncMsgs[q][cid]
}

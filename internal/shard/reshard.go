package shard

import (
	"fmt"
	"sort"

	"vsgm/internal/types"
)

// installChunkKeys bounds how many keys ride in one install command, so a
// large range handoff is spread over several totally ordered messages
// instead of one giant frame.
const installChunkKeys = 32

// Resharder executes one reshard proposal as an explicit step machine, so a
// test (or the soak harness) can interleave chaos between steps of an
// in-flight handoff. Run() steps to completion; Step() advances one step.
//
// MoveGroup — re-home shard S from group A to group B:
//  1. begin      — meta-group accepts the proposal (or rejects: ErrRejected)
//  2. joint      — paired reconfiguration #1: S reconfigures to A ∪ B; the
//     transitional set tells A's replicas that B's members joined from
//     outside, and the rsm sync transfers full state to them
//  3. marker     — the handoff marker rides S's total order; every joint
//     member applies it
//  4. cutover    — paired reconfiguration #2: S reconfigures to B, a view
//     whose members all hold the marker (and therefore the state)
//  5. commit     — the meta-group flips S's group to B and bumps the epoch
//
// MoveSlots — move slot range [lo,hi] from shard S to shard D:
//  1. begin      — as above; also marks the slots migrating (writes bounce
//     with ErrResharding, so nothing acknowledged can slip into the window)
//  2. snapshot   — an authoritative replica of S extracts the key range
//  3. install    — the range rides D's total order as chunked install
//     commands, sealed by the handoff marker
//  4. dstview    — paired reconfiguration #1: D reconfigures (same
//     membership); cutover is gated on D installing the view that contains
//     the marker — every member of that view provably holds the range
//  5. commit     — the meta-group flips slot ownership and bumps the epoch;
//     the migrating marks clear, and clients start being redirected to D
//  6. prune      — the prune command deletes the moved range from S, then
//     paired reconfiguration #2 closes S's side of the move
type Resharder struct {
	w    *World
	r    Reshard
	kind ReshardKind

	steps []step
	next  int
	begun bool // meta accepted; abort must be proposed on failure
	data  map[string]string
	slots []int // slots marked migrating by this reshard
}

type step struct {
	name string
	run  func() error
}

// NewResharder prepares the step machine for one proposal. Nothing runs
// until Step or Run.
func NewResharder(w *World, r Reshard) *Resharder {
	rs := &Resharder{w: w, r: r, kind: r.Kind}
	switch r.Kind {
	case MoveGroup:
		rs.steps = []step{
			{"begin", rs.stepBegin},
			{"joint", rs.stepJoint},
			{"marker", rs.stepGroupMarker},
			{"cutover", rs.stepCutover},
			{"commit", rs.stepCommit},
		}
	case MoveSlots:
		rs.steps = []step{
			{"begin", rs.stepBegin},
			{"snapshot", rs.stepSnapshot},
			{"install", rs.stepInstall},
			{"dstview", rs.stepDstView},
			{"commit", rs.stepCommit},
			{"prune", rs.stepPrune},
		}
	}
	return rs
}

// StepName returns the name of the next step ("" when done).
func (rs *Resharder) StepName() string {
	if rs.next >= len(rs.steps) {
		return ""
	}
	return rs.steps[rs.next].name
}

// Done reports whether every step completed.
func (rs *Resharder) Done() bool { return rs.next >= len(rs.steps) }

// Step advances one step. On error the reshard is aborted (meta abort plus
// migrating-mark cleanup) before the error returns; the step machine is then
// spent.
func (rs *Resharder) Step() (done bool, err error) {
	if rs.Done() {
		return true, nil
	}
	s := rs.steps[rs.next]
	if err := s.run(); err != nil {
		rs.abort()
		rs.next = len(rs.steps)
		return true, fmt.Errorf("shard: reshard %s step %s: %w", rs.r.ID, s.name, err)
	}
	rs.next++
	return rs.Done(), nil
}

// Run steps to completion.
func (rs *Resharder) Run() error {
	for {
		done, err := rs.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

func (rs *Resharder) abort() {
	rs.clearMigrating()
	if rs.begun {
		rs.begun = false
		rs.w.mAborts.Inc()
		// Best effort: if the meta-group is unreachable the pending entry
		// stays until an operator (or a later abort) clears it.
		_ = rs.w.proposeMeta(EncodeAbort(rs.r))
	}
}

func (rs *Resharder) clearMigrating() {
	for _, s := range rs.slots {
		if rs.w.migrating[s] == rs.r.ID {
			delete(rs.w.migrating, s)
		}
	}
	rs.slots = nil
}

// ---- shared steps ----

func (rs *Resharder) stepBegin() error {
	if err := rs.w.proposeMeta(EncodeBegin(rs.r)); err != nil {
		return err
	}
	outcome := rs.w.MetaMachineView().Outcome(rs.r.ID)
	if outcome != OutcomeAccepted {
		return fmt.Errorf("%w: %s", ErrRejected, outcome)
	}
	rs.begun = true
	if rs.kind == MoveSlots {
		// Freeze writes to the moving range for the whole handoff window;
		// anything a client is told "acknowledged" must live outside it.
		m := rs.w.committed
		for s := rs.r.SlotLo; s <= rs.r.SlotHi && s < len(m.Slots); s++ {
			if m.Slots[s] == rs.r.Shard {
				rs.w.migrating[s] = rs.r.ID
				rs.slots = append(rs.slots, s)
			}
		}
	}
	return nil
}

func (rs *Resharder) stepCommit() error {
	if err := rs.w.proposeMeta(EncodeCommit(rs.r)); err != nil {
		return err
	}
	if got := rs.w.MetaMachineView().Outcome(rs.r.ID); got != OutcomeCommitted {
		return fmt.Errorf("commit did not take: outcome %q", got)
	}
	rs.begun = false
	rs.clearMigrating()
	rs.w.mRounds.Inc()
	return nil
}

// ---- MoveGroup steps ----

func (rs *Resharder) stepJoint() error {
	g := rs.w.groups[rs.r.Shard]
	joint := g.current.Union(types.NewProcSet(rs.r.NewGroup...))
	return rs.w.ReconfigureShard(rs.r.Shard, joint)
}

func (rs *Resharder) stepGroupMarker() error {
	return rs.orderMarker(rs.r.Shard)
}

func (rs *Resharder) stepCutover() error {
	target := types.NewProcSet(rs.r.NewGroup...)
	if err := rs.w.ReconfigureShard(rs.r.Shard, target); err != nil {
		return err
	}
	// The cutover view's members must all hold the marker — i.e. the state.
	return rs.verifyMarker(rs.r.Shard, target)
}

// ---- MoveSlots steps ----

func (rs *Resharder) stepSnapshot() error {
	g := rs.w.groups[rs.r.Shard]
	p, _, ok := g.authoritative()
	if !ok {
		return rs.w.unavailable(g)
	}
	rs.data = g.machines[p].RangeSnapshot(rs.r.SlotLo, rs.r.SlotHi, len(rs.w.committed.Slots))
	return nil
}

func (rs *Resharder) stepInstall() error {
	dst := rs.w.groups[rs.r.Dst]
	_, rep, ok := dst.authoritative()
	if !ok {
		return rs.w.unavailable(dst)
	}
	keys := make([]string, 0, len(rs.data))
	for k := range rs.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for at := 0; at < len(keys); at += installChunkKeys {
		end := at + installChunkKeys
		if end > len(keys) {
			end = len(keys)
		}
		chunk := make(map[string]string, end-at)
		for _, k := range keys[at:end] {
			chunk[k] = rs.data[k]
		}
		cmd := EncodeInstall(chunk)
		if err := rep.Propose(cmd); err != nil {
			return err
		}
		rs.w.mHandoff.Add(int64(len(cmd)))
	}
	if err := rep.Propose(EncodeMarker(rs.r.ID)); err != nil {
		return err
	}
	return dst.c.Run()
}

func (rs *Resharder) stepDstView() error {
	dst := rs.w.groups[rs.r.Dst]
	// Same-membership paired reconfiguration: the destination installs a
	// fresh view; because the marker was ordered before the view boundary's
	// flush, every member of this view holds the migrated range.
	if err := rs.w.ReconfigureShard(rs.r.Dst, dst.current); err != nil {
		return err
	}
	return rs.verifyMarker(rs.r.Dst, dst.current)
}

func (rs *Resharder) stepPrune() error {
	g := rs.w.groups[rs.r.Shard]
	_, rep, ok := g.authoritative()
	if !ok {
		return rs.w.unavailable(g)
	}
	if err := rep.Propose(EncodePrune(rs.r.SlotLo, rs.r.SlotHi, len(rs.w.committed.Slots))); err != nil {
		return err
	}
	if err := g.c.Run(); err != nil {
		return err
	}
	// Paired reconfiguration #2: the source closes out its side of the move.
	return rs.w.ReconfigureShard(rs.r.Shard, g.current)
}

// ---- helpers ----

// orderMarker pushes the handoff marker through a shard's total order.
func (rs *Resharder) orderMarker(shard int) error {
	g := rs.w.groups[shard]
	_, rep, ok := g.authoritative()
	if !ok {
		return rs.w.unavailable(g)
	}
	if err := rep.Propose(EncodeMarker(rs.r.ID)); err != nil {
		return err
	}
	return g.c.Run()
}

// verifyMarker checks that every synced member of the set applied this
// reshard's marker — the cutover gate.
func (rs *Resharder) verifyMarker(shard int, set types.ProcSet) error {
	g := rs.w.groups[shard]
	for _, p := range set.Sorted() {
		r := g.replicas[p]
		if r == nil || !r.Synced() {
			return fmt.Errorf("member %s of the cutover view is not synced", p)
		}
		if got := g.machines[p].LastMarker(); got != rs.r.ID {
			return fmt.Errorf("member %s lacks handoff marker %s (has %q)", p, rs.r.ID, got)
		}
	}
	return nil
}

package main

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/types"
)

// sink is a core.Transport that drops everything: the micro-drivers time the
// automaton, not a fabric.
type sink struct{}

func (sink) Send([]types.ProcID, types.WireMsg) {}
func (sink) SetReliable(types.ProcSet)          {}

// handEndpoint builds an end-point and installs view 1 over n members by
// hand: a start_change, every peer's synchronization message, the view.
func handEndpoint(n int) (*core.Endpoint, []types.ProcID, error) {
	ids := make([]types.ProcID, n)
	for i := range ids {
		ids[i] = types.ProcID(fmt.Sprintf("p%02d", i))
	}
	ep, err := core.NewEndpoint(core.Config{ID: ids[0], Transport: sink{}, AutoBlock: true})
	if err != nil {
		return nil, nil, err
	}
	if !reconfigure(ep, ids, 1) {
		return nil, nil, fmt.Errorf("hand-installed view of %d was not delivered", n)
	}
	return ep, ids, nil
}

// reconfigure drives one full view change at ep into view id (which must be
// one above the current view's) and reports whether the view was delivered.
func reconfigure(ep *core.Endpoint, ids []types.ProcID, id int64) bool {
	members := types.NewProcSet(ids...)
	startIDs := make(map[types.ProcID]types.StartChangeID, len(ids))
	for _, p := range ids {
		startIDs[p] = types.StartChangeID(id)
	}
	current := ep.CurrentView()
	ep.HandleStartChange(types.StartChange{ID: types.StartChangeID(id), Set: members})
	for _, q := range ids[1:] {
		if !current.Members.Contains(q) {
			continue
		}
		ep.HandleMessage(q, types.WireMsg{Kind: types.KindSync, CID: types.StartChangeID(id), View: current, Cut: types.Cut{}})
	}
	next := types.NewView(types.ViewID(id), members, startIDs)
	ep.HandleView(next)
	for _, q := range ids[1:] {
		ep.HandleMessage(q, types.WireMsg{Kind: types.KindView, View: next})
	}
	for _, ev := range ep.TakeEvents() {
		if ve, ok := ev.(core.ViewEvent); ok && ve.View.ID == types.ViewID(id) {
			return true
		}
	}
	return false
}

// microCore times the end-point automaton alone: the send path, the receive
// path and a whole reconfiguration, in a hand-installed view.
func microCore(rng *rand.Rand, budget time.Duration, out metrics) error {
	payload := fillPayload(rng, 256, 0)

	// Buffers are reclaimed only at view changes, so each loop gets a fresh
	// end-point and a bounded number of messages.
	msgs := int(budget / (3 * time.Microsecond))
	ep, ids, err := handEndpoint(numMembers)
	if err != nil {
		return err
	}
	began := time.Now()
	for i := 0; i < msgs; i++ {
		if _, err := ep.Send(payload); err != nil {
			return fmt.Errorf("core send: %w", err)
		}
		ep.TakeEvents()
	}
	out.set("core.send_ns_per_msg", float64(time.Since(began))/float64(msgs), "ns", int64(msgs))

	ep, ids, err = handEndpoint(numMembers)
	if err != nil {
		return err
	}
	in := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{Payload: payload}}
	recv := func() {
		in.App.ID++
		ep.HandleMessage(ids[1], in)
		ep.TakeEvents()
	}
	began = time.Now()
	for i := 0; i < msgs; i++ {
		recv()
	}
	out.set("core.recv_ns_per_msg", float64(time.Since(began))/float64(msgs), "ns", int64(msgs))
	out.set("core.recv_allocs_per_msg", testing.AllocsPerRun(1000, recv), "count", 1000)

	for _, n := range []int{4, 32} {
		ep, ids, err := handEndpoint(n)
		if err != nil {
			return err
		}
		id := int64(1)
		ok := true
		ns, count := perOp(budget, func() {
			id++
			ok = reconfigure(ep, ids, id) && ok
		})
		if !ok {
			return fmt.Errorf("core reconfiguration over %d members did not deliver its view", n)
		}
		out.set(fmt.Sprintf("core.reconfig_ns_n%d", n), ns, "ns", int64(count))
	}
	return nil
}

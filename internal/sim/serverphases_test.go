package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"vsgm/internal/core"
	"vsgm/internal/membership"
	"vsgm/internal/randseed"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// serverConvergeBudget bounds how many misaligned membership views one client
// may install after the final heal: the world stabilizes within a couple of
// reconfiguration rounds, so a modest budget asserts bounded, not merely
// eventual, convergence.
const serverConvergeBudget = 8

// serverPhaseRun is one schedule of the membership-server phase vocabulary
// over a ServerWorld. Every draw — the phase, the clients and servers it
// picks, the records it plants — is a choice, so a schedule replays from its
// choice prefix, whether the chooser or the clock runs the world. Every phase
// ends with the world healed and quiescent.
type serverPhaseRun struct {
	w    *ServerWorld
	draw func(n int) int
	// departed maps each client churn detached, and not yet brought back, to
	// the home it left; its retained record stays there.
	departed map[types.ProcID]types.ProcID
	joinSeq  int
	// refused counts the traffic sends a blocked client refused.
	refused int
}

// serverPhases returns a server-world script of n phases drawn from traffic
// and, with the weights of the large-population soak, flash-crowd, churn,
// partition-heal, oscillate, corrupt-counter and state-scramble. It ends as
// that soak stabilized: heal, one reconfiguration, one send per client, run
// to quiescence. It then holds the trace to bounded convergence from the
// heal and the final view to Property 4.2.
func serverPhases(n int) func(w *ServerWorld, draw func(int) int) error {
	return func(w *ServerWorld, draw func(int) int) error {
		r := &serverPhaseRun{w: w, draw: draw, departed: make(map[types.ProcID]types.ProcID)}
		if err := w.Boot(); err != nil {
			return err
		}
		phases := []struct {
			weight int
			run    func() error
		}{
			{3, r.traffic},
			{3, r.flashCrowd},
			{3, r.churn},
			{2, r.partitionHeal},
			{2, r.oscillate},
			{2, r.corruptCounter},
			{2, r.stateScramble},
		}
		for i := 0; i < n; i++ {
			pick := r.draw(17)
			for _, ph := range phases {
				if pick < ph.weight {
					if err := ph.run(); err != nil {
						return err
					}
					break
				}
				pick -= ph.weight
			}
		}
		if err := r.stabilize(); err != nil {
			return fmt.Errorf("%w (%d traffic sends refused while blocked)", err, r.refused)
		}
		return nil
	}
}

// pick draws one of ids.
func (r *serverPhaseRun) pick(ids []types.ProcID) types.ProcID {
	return ids[r.draw(len(ids))]
}

// lone draws the server a split isolates: with three servers, every two-way
// split is one server against the rest.
func (r *serverPhaseRun) lone() (types.ProcSet, types.ProcSet) {
	servers := r.w.Servers()
	lone := r.pick(servers)
	return types.NewProcSet(lone), types.NewProcSet(servers...).Minus(types.NewProcSet(lone))
}

// traffic has one to three drawn clients send once each and leaves the
// messages in flight for the next phase. A client blocked by a view change
// refuses the send; that is counted, not a failure.
func (r *serverPhaseRun) traffic() error {
	for n := 1 + r.draw(3); n > 0; n-- {
		cid := r.pick(r.w.Clients())
		if _, err := r.w.Send(cid, []byte("t")); errors.Is(err, core.ErrBlocked) {
			r.refused++
		} else if err != nil {
			return fmt.Errorf("send from %s: %w", cid, err)
		}
	}
	return nil
}

// flashCrowd attaches one to three fresh clients, each at a drawn server, in
// one instant and admits them with one change.
func (r *serverPhaseRun) flashCrowd() error {
	for n := 1 + r.draw(3); n > 0; n-- {
		if err := r.join(); err != nil {
			return err
		}
	}
	return r.w.TriggerChange()
}

// churn detaches drawn clients, keeping one per server, and attaches as many
// as left or fewer: each a fresh client at a drawn server or a departed one
// back at the home that kept its record.
func (r *serverPhaseRun) churn() error {
	servers := len(r.w.Servers())
	most := min(3, len(r.w.Clients())-servers)
	if most <= 0 {
		return r.flashCrowd()
	}
	depart := 1 + r.draw(most)
	for i := 0; i < depart; i++ {
		cid := r.pick(r.w.Clients())
		home := r.w.HomeOf(cid)
		if err := r.w.DetachClients(cid); err != nil {
			return err
		}
		r.departed[cid] = home
	}
	for n := 1 + r.draw(depart); n > 0; n-- {
		if err := r.arrive(); err != nil {
			return err
		}
	}
	return r.w.TriggerChange()
}

// join attaches a fresh client at a drawn server.
func (r *serverPhaseRun) join() error {
	cid := types.ProcID(fmt.Sprintf("j%03d", r.joinSeq))
	r.joinSeq++
	return r.w.AttachClients(r.pick(r.w.Servers()), []types.ProcID{cid})
}

// arrive joins a fresh client, or brings a drawn departed client back to
// its old home.
func (r *serverPhaseRun) arrive() error {
	if len(r.departed) == 0 || r.draw(2) == 0 {
		return r.join()
	}
	back := make([]types.ProcID, 0, len(r.departed))
	for cid := range r.departed {
		back = append(back, cid)
	}
	slices.Sort(back)
	cid := r.pick(back)
	home := r.departed[cid]
	delete(r.departed, cid)
	return r.w.AttachClients(home, []types.ProcID{cid})
}

// partitionHeal splits the servers, lets each side stabilize, and heals.
func (r *serverPhaseRun) partitionHeal() error {
	if err := r.w.PartitionServers(r.lone()); err != nil {
		return err
	}
	return r.w.HealServers()
}

// oscillate flips one split two or three times; a split that isolates one
// server is the large-population soak's flapping link.
func (r *serverPhaseRun) oscillate() error {
	left, right := r.lone()
	for flips := 2 + r.draw(2); flips > 0; flips-- {
		if err := r.w.PartitionServers(left, right); err != nil {
			return err
		}
		if err := r.w.HealServers(); err != nil {
			return err
		}
	}
	return nil
}

// corruptCounter moves a drawn client to another server that holds a
// corrupted record for it — huge counters, or an attach epoch whose cid floor
// wraps int64 — and admits it there with one change.
func (r *serverPhaseRun) corruptCounter() error {
	victim := r.pick(r.w.Clients())
	others := types.NewProcSet(r.w.Servers()...).Minus(types.NewProcSet(r.w.HomeOf(victim)))
	home := r.pick(others.Sorted())
	rec := membership.ClientRecord{CID: 1 << 40, Vid: 1 << 40, Epoch: 1 << 7}
	if r.draw(2) == 0 {
		rec = membership.ClientRecord{CID: 7, Vid: 3, Epoch: 1 << 33}
	}
	if err := r.w.DetachClients(victim); err != nil {
		return err
	}
	r.w.Server(home).RestoreRecords(map[types.ProcID]membership.ClientRecord{victim: rec})
	if err := r.w.AttachClients(home, []types.ProcID{victim}); err != nil {
		return err
	}
	return r.w.TriggerChange()
}

// stateScramble plants one to four arbitrary records, for attached or
// departed clients, in a drawn server's retained state and runs one change.
// A planted record surfaces when its client registers at that server again.
func (r *serverPhaseRun) stateScramble() error {
	known := types.NewProcSet(r.w.Clients()...)
	for cid := range r.departed {
		known.Add(cid)
	}
	sid := r.pick(r.w.Servers())
	recs := make(map[types.ProcID]membership.ClientRecord)
	for n := 1 + r.draw(4); n > 0; n-- {
		recs[r.pick(known.Sorted())] = membership.ClientRecord{
			CID:   types.StartChangeID(r.arbitrary(membership.MaxSaneCID)),
			Vid:   types.ViewID(r.arbitrary(membership.MaxSaneVid)),
			Epoch: r.arbitrary(membership.MaxAttachEpoch),
		}
	}
	r.w.Server(sid).RestoreRecords(recs)
	return r.w.TriggerChange()
}

// arbitrary draws a 64-bit pattern for a field whose sanitizer ceiling is
// ceiling: the ceiling itself, just above it, the largest or a negative
// value, or any pattern at all.
func (r *serverPhaseRun) arbitrary(ceiling int64) int64 {
	switch r.draw(5) {
	case 0:
		return ceiling
	case 1:
		return ceiling + 1
	case 2:
		return math.MaxInt64
	case 3:
		return -1 - int64(r.draw(1<<31))
	default:
		return int64(uint64(r.draw(1<<32))<<32 | uint64(r.draw(1<<32)))
	}
}

// stabilize heals, runs one change and one send per client to quiescence,
// then checks the suite, bounded convergence from the heal, and Property 4.2
// for the view every client ended in.
func (r *serverPhaseRun) stabilize() error {
	mark := len(r.w.suite.Trace())
	if err := r.w.HealServers(); err != nil {
		return err
	}
	if err := r.w.TriggerChange(); err != nil {
		return err
	}
	clients := r.w.Clients()
	for _, cid := range clients {
		if _, err := r.w.Send(cid, []byte("final")); err != nil {
			return fmt.Errorf("send from %s in the final view: %w", cid, err)
		}
	}
	if err := r.w.Run(); err != nil {
		return err
	}
	trace := r.w.suite.Trace()
	if err := r.w.suite.Err(); err != nil {
		return err
	}
	all := types.NewProcSet(clients...)
	if err := spec.CheckConvergence(trace, mark, all, all, serverConvergeBudget); err != nil {
		return err
	}
	return spec.CheckLiveness(trace, r.w.Endpoint(clients[0]).CurrentView())
}

// TestSwarmServerWorldPhases swarms the membership-server phase vocabulary
// over three servers with two end-point clients each: traffic left in flight
// into the next phase, flash crowds, churn
// with departed clients coming back, server partitions and oscillation,
// corrupted and arbitrary retained records. The chooser runs most schedules;
// the clock runs the rest from a drawn seed, so that latencies, and the
// order they give a client's notifications, are judged too. Every schedule
// must satisfy the full suite, converge within the budget after the final
// heal, and meet Property 4.2 in its final view.
func TestSwarmServerWorldPhases(t *testing.T) {
	seed, _ := randseed.Pick(5)
	t.Logf("PRNG seed %d (replay: %s=%d go test -run '%s' ./internal/sim)", seed, randseed.EnvVar, seed, t.Name())
	runs := 40
	if testing.Short() {
		runs = 10
	}
	for _, tc := range []struct {
		clocked bool
		runs    int
	}{{false, runs}, {true, runs / 4}} {
		res, err := swarm(func(choose func(int) int) error {
			cfg := ServerWorldConfig{Servers: 3, ClientsPerServer: 2}
			if choose(4) == 0 {
				cfg = ServerWorldConfig{Servers: 2, ClientsPerServer: 1}
			}
			return serverWorldSchedule(cfg, tc.clocked, serverPhases(6))(choose)
		}, tc.runs, seed)
		if err != nil {
			t.Fatalf("clocked %v, after %d schedules: %v", tc.clocked, res.Schedules, err)
		}
	}
}

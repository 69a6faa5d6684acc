package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/randseed"
	"vsgm/internal/types"
)

// phaseRun is one schedule of the soak phase vocabulary over a cluster, run
// by the chooser or on the clock. Every random draw — the phase, its victims
// and splits, the senders, and how far the world runs after a step — is a
// choice, so a schedule replays from its choice prefix.
type phaseRun struct {
	c     *Cluster
	draw  func(n int) int
	alive types.ProcSet
	// left holds the members a forward phase reconfigured out, and blocked
	// the directed links it cut; stabilize restores both.
	left    types.ProcSet
	blocked []pair
}

// soakPhases returns a scenario of n phases drawn, with the soak's weights,
// from traffic, view-race, partition-heal, oscillate, crash-restart and
// forward. It ends as a soak run stabilizes: everyone healed and back, one
// reconfiguration to the full set, one send per member, and the final view
// reported for the liveness check. Every draw is made by draw.
func soakPhases(n int, draw func(int) int) Scenario {
	return func(c *Cluster) error {
		r := &phaseRun{c: c, draw: draw, alive: types.NewProcSet(c.Procs()...), left: types.NewProcSet()}
		phases := []struct {
			weight int
			run    func() error
		}{
			{4, r.burst},
			{3, r.viewRace},
			{2, r.partitionHeal},
			{1, r.oscillate},
			{2, r.crashRestart},
			{2, r.forward},
		}
		for i := 0; i < n; i++ {
			pick := draw(14)
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
		return r.stabilize()
	}
}

// settle lets the world run to quiescence, or leaves everything in flight
// for the next phase, as the chooser decides. On the clock (no chooser in the
// engine), the world runs a drawn 0–15 ms instead of nothing, so that a step
// leaves only the later arrivals in flight.
func (r *phaseRun) settle() error {
	if r.draw(2) == 1 {
		return r.c.Run()
	}
	if r.c.choose == nil {
		return r.c.RunFor(time.Duration(r.draw(16)) * time.Millisecond)
	}
	return nil
}

// member draws one live member.
func (r *phaseRun) member() types.ProcID {
	members := r.alive.Sorted()
	return members[r.draw(len(members))]
}

// split draws a partition of the live members into two non-empty sides.
func (r *phaseRun) split() (types.ProcSet, types.ProcSet) {
	members := r.alive.Sorted()
	left, right := types.NewProcSet(members[0]), types.NewProcSet(members[len(members)-1])
	for _, p := range members[1 : len(members)-1] {
		if r.draw(2) == 0 {
			left.Add(p)
		} else {
			right.Add(p)
		}
	}
	return left, right
}

// traffic multicasts n messages from drawn live members, tolerating blocked
// and crashed senders (both are legal mid-reconfiguration outcomes).
func (r *phaseRun) traffic(tag string, n int) error {
	for i := 0; i < n; i++ {
		p := r.member()
		_, err := r.c.Send(p, []byte(fmt.Sprintf("%s-%d", tag, i)))
		if err != nil && !errors.Is(err, core.ErrBlocked) && !errors.Is(err, core.ErrCrashed) {
			return fmt.Errorf("send from %s: %w", p, err)
		}
	}
	return nil
}

// reconfigure drives a full change to set, with the re-announce fallback of
// Section 5 when a racing change invalidated the pending one.
func (r *phaseRun) reconfigure(set types.ProcSet) error {
	if _, _, err := r.c.ReconfigureTo(set); err != nil {
		if err := r.c.StartChange(set); err != nil {
			return err
		}
		if _, err := r.c.DeliverView(set); err != nil {
			return err
		}
		return r.c.Run()
	}
	return nil
}

// burst multicasts from drawn members, then maybe lets it spread.
func (r *phaseRun) burst() error {
	if err := r.traffic("t", 1+r.draw(3)); err != nil {
		return err
	}
	return r.settle()
}

// viewRace commits a change to a drawn subset while traffic is in flight.
func (r *phaseRun) viewRace() error {
	set := types.NewProcSet(r.member())
	for _, p := range r.alive.Sorted() {
		if r.draw(2) == 1 {
			set.Add(p)
		}
	}
	if err := r.c.StartChange(set); err != nil {
		return err
	}
	if err := r.traffic("race", 1+r.draw(2)); err != nil {
		return err
	}
	if err := r.settle(); err != nil {
		return err
	}
	if _, err := r.c.DeliverView(set); err != nil {
		if err := r.c.StartChange(set); err != nil {
			return err
		}
		if _, err := r.c.DeliverView(set); err != nil {
			return err
		}
	}
	return r.settle()
}

// partitionHeal splits the live members in two, sends on both sides, heals
// and merges.
func (r *phaseRun) partitionHeal() error {
	if r.alive.Len() < 4 {
		return r.burst()
	}
	left, right := r.split()
	if _, err := r.c.Partition(left, right); err != nil {
		return err
	}
	if err := r.traffic("part", 1+r.draw(2)); err != nil {
		return err
	}
	if err := r.settle(); err != nil {
		return err
	}
	r.c.HealConnectivity()
	return r.reconfigure(r.alive)
}

// oscillate flips a fixed split of the live members open and closed.
func (r *phaseRun) oscillate() error {
	if r.alive.Len() < 4 {
		return r.burst()
	}
	members := r.alive.Sorted()
	mid := len(members) / 2
	left, right := types.NewProcSet(members[:mid]...), types.NewProcSet(members[mid:]...)
	for flips := 2 + r.draw(2); flips > 0; flips-- {
		if _, err := r.c.Partition(left, right); err != nil {
			return err
		}
		if err := r.settle(); err != nil {
			return err
		}
		r.c.HealConnectivity()
		if err := r.reconfigure(r.alive); err != nil {
			return err
		}
	}
	return nil
}

// crashRestart crashes a drawn member, maybe while a change to every live
// member is pending, and recovers it: after a reconfiguration without it and
// a send, or at once, with what was in flight to it still in flight. Either
// way it ends reconfigured back in.
func (r *phaseRun) crashRestart() error {
	if r.alive.Len() < 2 {
		return r.burst()
	}
	p := r.member()
	if r.draw(2) == 1 {
		if err := r.c.StartChange(r.alive); err != nil {
			return err
		}
	}
	if err := r.c.Crash(p); err != nil {
		return err
	}
	if r.draw(2) == 1 {
		r.alive.Remove(p)
		if err := r.reconfigure(r.alive); err != nil {
			return err
		}
		if err := r.traffic("crash", 1+r.draw(2)); err != nil {
			return err
		}
		r.alive.Add(p)
	}
	if err := r.c.Recover(p); err != nil {
		return err
	}
	return r.reconfigure(r.alive)
}

// forward cuts a drawn leaver's links to a drawn part of the other live
// members, has it send, and reconfigures it out: the members its messages
// reached must forward them to the rest before the survivors' view installs.
// The leaver stays in its old view, and its cut links stay cut, until
// stabilize.
func (r *phaseRun) forward() error {
	if r.alive.Len() < 3 {
		return r.burst()
	}
	leaver := r.member()
	others := r.alive.Minus(types.NewProcSet(leaver)).Sorted()
	// The first of the others always hears the leaver and the last never
	// does, so some message always needs a forwarded copy.
	for i, q := range others[1:] {
		if i == len(others)-2 || r.draw(2) == 0 {
			r.c.BlockLink(leaver, q)
			r.blocked = append(r.blocked, pair{leaver, q})
		}
	}
	for i := 1 + r.draw(3); i > 0; i-- {
		_, err := r.c.Send(leaver, []byte("fwd"))
		if err != nil && !errors.Is(err, core.ErrBlocked) {
			return fmt.Errorf("send from %s: %w", leaver, err)
		}
	}
	if err := r.settle(); err != nil {
		return err
	}
	r.alive.Remove(leaver)
	r.left.Add(leaver)
	if _, _, err := r.c.ReconfigureTo(r.alive); err != nil {
		return fmt.Errorf("survivors of %s's departure: %w", leaver, err)
	}
	return nil
}

// stabilize heals, restores every cut link, takes back every member a
// forward phase left out, reconfigures to the full set, sends once from
// every member, runs to quiescence and reports the final view.
func (r *phaseRun) stabilize() error {
	r.c.HealConnectivity()
	for _, l := range r.blocked {
		r.c.UnblockLink(l.from, l.to)
	}
	for _, p := range r.left.Sorted() {
		r.alive.Add(p)
	}
	final, _, err := r.c.ReconfigureTo(r.alive)
	if err != nil {
		return fmt.Errorf("final reconfiguration did not complete: %w", err)
	}
	for _, p := range r.alive.Sorted() {
		if _, err := r.c.Send(p, []byte("final")); err != nil {
			return fmt.Errorf("send from %s in the final view: %w", p, err)
		}
	}
	if err := r.c.Run(); err != nil {
		return err
	}
	r.c.final = &final
	return nil
}

// clusterPhaseSchedule runs one schedule of soakPhases(n) on a cluster whose
// configuration the schedule draws first: two to six end-points at the GCS
// or the VS_RFIFO+TS level (the suite follows the level), simple or
// min-copies forwarding (§5.2.2), small syncs (§5.2.4) or not, a flat or a
// two-tier synchronization in groups of two or three (§9), stability
// acknowledgments off or every one or two deliveries, and the chooser or the
// virtual clock. A clocked schedule draws its seed and runs on jittered
// latencies, so the order they give a channel's arrivals is judged too.
func clusterPhaseSchedule(n int) func(choose func(int) int) error {
	return func(choose func(int) int) error {
		cfg := Config{
			Procs:              ProcIDs(2 + choose(5)),
			Level:              []core.Level{core.LevelGCS, core.LevelVS}[choose(2)],
			Forwarding:         []core.ForwardingStrategy{core.NewSimpleForwarding(), core.NewMinCopiesForwarding()}[choose(2)],
			SmallSync:          choose(2) == 1,
			HierarchyGroupSize: []int{0, 2, 3}[choose(3)],
			AckInterval:        choose(3),
		}
		clocked := choose(2) == 1
		if clocked {
			cfg.Latency = UniformLatency{Base: 10 * time.Millisecond, Jitter: 8 * time.Millisecond}
			cfg.MembershipRound = 8 * time.Millisecond
			cfg.Seed = int64(choose(1 << 31))
		}
		if err := clusterSchedule(cfg, clocked, soakPhases(n, choose))(choose); err != nil {
			return fmt.Errorf("%d end-points at %s, %s forwarding, small syncs %v, hierarchy groups %d, ack interval %d, clocked %v: %w",
				len(cfg.Procs), cfg.Level, cfg.Forwarding.Name(), cfg.SmallSync, cfg.HierarchyGroupSize, cfg.AckInterval, clocked, err)
		}
		return nil
	}
}

// TestSwarmSoakPhases swarms the soak phase vocabulary over clusters of
// drawn configurations (clusterPhaseSchedule): every schedule must satisfy
// the suite of its level and, in its final view, Property 4.2.
func TestSwarmSoakPhases(t *testing.T) {
	seed, _ := randseed.Pick(1)
	t.Logf("PRNG seed %d (replay: %s=%d go test -run '%s' ./internal/sim)", seed, randseed.EnvVar, seed, t.Name())
	runs := 300
	if testing.Short() {
		runs = 60
	}
	res, err := swarm(clusterPhaseSchedule(6), runs, seed)
	if err != nil {
		t.Fatalf("after %d schedules: %v", res.Schedules, err)
	}
}

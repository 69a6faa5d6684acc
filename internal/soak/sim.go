package soak

import (
	"errors"
	"fmt"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/obs"
	"vsgm/internal/sim"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// SimConfig parameterizes a GCS-cluster simulation soak: a small cluster
// of full end-points under the controllable membership oracle, driven
// through randomized adversarial phases over virtual time with the full
// specification suite attached.
type SimConfig struct {
	// Duration is the virtual-time budget; default 2s (hundreds of phases).
	Duration time.Duration
	// Seed drives the entire schedule.
	Seed int64
	// Scenario is the phase mix; default SimScenario().
	Scenario *Scenario
	// AckInterval turns on within-view stability acknowledgments and buffer
	// collection (core.Config.AckInterval) so the soak hunts the collector
	// under churn; 0 leaves buffers to the view changes.
	AckInterval int
	// ForceViolation injects a fabricated Local Monotonicity violation at
	// the end of the run, to demonstrate the violation-report pipeline.
	ForceViolation bool
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

// simProcs is the simulated cluster's size.
const simProcs = 6

type simRun struct {
	chaos
	c     *sim.Cluster
	suite *spec.Suite

	alive   types.ProcSet
	crashed types.ProcSet
	// final is the view stabilization installed over every process; nil
	// when stabilization ended in a violation, which skips the liveness
	// check.
	final *types.View
}

// RunSim executes the simulation soak and returns its report. The error is
// non-nil only for harness failures (bad configuration, a wedged
// simulation); specification violations are reported in the Report.
func RunSim(cfg SimConfig) (*Report, error) {
	s := settings{mode: "sim", duration: cfg.Duration, seed: cfg.Seed, scenario: cfg.Scenario,
		force: cfg.ForceViolation, log: cfg.Log}
	return drive(s, func(ch chaos) (*world, error) {
		suite := spec.FullSuite(spec.WithTrace())
		// The tracer's clock is the simulation's virtual clock, so timeline
		// offsets line up with the schedule's virtual timestamps.
		var cl *sim.Cluster
		tracer := obs.NewTracer(obs.NewRegistry(), obs.WithNow(func() time.Time {
			if cl == nil {
				return time.Unix(0, 0)
			}
			return time.Unix(0, 0).Add(cl.Now())
		}))
		c, err := sim.NewCluster(sim.Config{
			Procs:           sim.ProcIDs(simProcs),
			Level:           core.LevelGCS,
			Latency:         sim.UniformLatency{Base: 10 * time.Millisecond, Jitter: 8 * time.Millisecond},
			MembershipRound: 8 * time.Millisecond,
			Seed:            cfg.Seed*7 + 1,
			AckInterval:     cfg.AckInterval,
			Suite:           suite,
			TraceFor:        func(p types.ProcID) core.ProtocolTrace { return tracer.ForEndpoint(p) },
		})
		if err != nil {
			return nil, err
		}
		cl = c
		r := &simRun{
			chaos:   ch,
			c:       c,
			suite:   suite,
			alive:   types.NewProcSet(c.Procs()...),
			crashed: types.NewProcSet(),
		}
		return &world{
			phases: map[PhaseKind]func(time.Duration) error{
				PhaseTraffic:       r.burst,
				PhaseViewRace:      r.viewRace,
				PhasePartitionHeal: r.partitionHeal,
				PhaseOscillate:     r.oscillate,
				PhaseCrashRestart:  r.crashRestart,
			},
			now:       c.Now,
			stabilize: r.stabilize,
			verdict:   r.verdict,
			victim:    func() types.ProcID { return c.Procs()[0] },
			record:    suite.OnEvent,
			tracer:    tracer,
		}, nil
	})
}

// stabilize recovers everyone, heals, reconfigures to the full set, and
// sends once from every member of the final view.
func (r *simRun) stabilize() error {
	r.c.HealConnectivity()
	for _, p := range r.crashed.Sorted() {
		if err := r.c.Recover(p); err != nil {
			return err
		}
		r.crashed.Remove(p)
		r.alive.Add(p)
	}
	final, _, err := r.c.ReconfigureTo(r.alive)
	if err != nil {
		// A stabilization that cannot complete is itself a liveness
		// violation worth reporting, not a harness bug.
		return violationf("final reconfiguration did not complete: %w", err)
	}
	var failed []error
	for _, p := range r.alive.Sorted() {
		if _, err := r.c.Send(p, []byte("soak-final")); err != nil {
			failed = append(failed, fmt.Errorf("post-stabilization send from %s failed: %w", p, err))
		}
	}
	if err := r.c.Run(); err != nil {
		return err
	}
	if len(failed) == 0 {
		r.final = &final
	}
	return violation(errors.Join(failed...))
}

// verdict is the spec suite's, then conditional liveness on the final view.
func (r *simRun) verdict(rep *Report) error {
	rep.Population = simProcs
	rep.EventsSeen, rep.EventsChecked = r.suite.SampleStats()
	if err := r.suite.Err(); err != nil || r.final == nil {
		return err
	}
	return spec.CheckLiveness(r.suite.Trace(), *r.final)
}

// settle advances virtual time by a random dwell in [min, max).
func (r *simRun) settle(min, max time.Duration) error {
	d := min
	if max > min {
		d += time.Duration(r.rng.Int63n(int64(max - min)))
	}
	return r.c.RunFor(d)
}

// randomAliveSubset draws a non-empty subset of the live members.
func (r *simRun) randomAliveSubset() types.ProcSet {
	members := r.alive.Sorted()
	r.rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	k := 1 + r.rng.Intn(len(members))
	return types.NewProcSet(members[:k]...)
}

// reconfigure drives a full change to set, with the re-announce fallback
// of Section 5 when a racing change invalidated the pending one.
func (r *simRun) reconfigure(set types.ProcSet) error {
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

// traffic multicasts a burst from random live members, tolerating blocked
// and crashed senders (both are legal mid-reconfiguration outcomes).
func (r *simRun) traffic(tag string, n int) error {
	for i := 0; i < n; i++ {
		p := r.alive.Sorted()[r.rng.Intn(r.alive.Len())]
		_, err := r.c.Send(p, []byte(fmt.Sprintf("%s-%d", tag, i)))
		if err != nil && !errors.Is(err, core.ErrBlocked) && !errors.Is(err, core.ErrCrashed) {
			return fmt.Errorf("soak: send from %s: %w", p, err)
		}
	}
	return nil
}

// burst multicasts from random members, then lets it spread.
func (r *simRun) burst(at time.Duration) error {
	n := 4 + r.rng.Intn(8)
	r.sched.Note(at, PhaseTraffic, "%d sends from random members", n)
	if err := r.traffic("t", n); err != nil {
		return err
	}
	return r.settle(5*time.Millisecond, 20*time.Millisecond)
}

// viewRace commits a change while traffic is in flight.
func (r *simRun) viewRace(at time.Duration) error {
	set := r.randomAliveSubset()
	r.sched.Note(at, PhaseViewRace, "start_change %s, commit while traffic is in flight", set)
	if err := r.c.StartChange(set); err != nil {
		return err
	}
	if err := r.traffic("race", 3); err != nil {
		return err
	}
	if err := r.settle(2*time.Millisecond, 10*time.Millisecond); err != nil {
		return err
	}
	commit := set.Minus(r.crashed)
	if commit.Len() == 0 {
		return nil
	}
	if _, err := r.c.DeliverView(commit); err != nil {
		if err := r.c.StartChange(commit); err != nil {
			return err
		}
		if _, err := r.c.DeliverView(commit); err != nil {
			return err
		}
	}
	return r.settle(5*time.Millisecond, 15*time.Millisecond)
}

func (r *simRun) partitionHeal(at time.Duration) error {
	if r.alive.Len() < 4 {
		return r.burst(at)
	}
	members := r.alive.Sorted()
	r.rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	mid := 1 + r.rng.Intn(len(members)-1)
	left, right := types.NewProcSet(members[:mid]...), types.NewProcSet(members[mid:]...)
	r.sched.Note(at, PhasePartitionHeal, "split %s | %s, dwell, heal", left, right)
	if _, err := r.c.Partition(left, right); err != nil {
		return err
	}
	if err := r.traffic("part", 3); err != nil {
		return err
	}
	if err := r.settle(10*time.Millisecond, 30*time.Millisecond); err != nil {
		return err
	}
	r.c.HealConnectivity()
	return r.reconfigure(r.alive)
}

func (r *simRun) oscillate(at time.Duration) error {
	if r.alive.Len() < 4 {
		return r.burst(at)
	}
	members := r.alive.Sorted()
	mid := len(members) / 2
	left, right := types.NewProcSet(members[:mid]...), types.NewProcSet(members[mid:]...)
	flips := 2 + r.rng.Intn(3)
	r.sched.Note(at, PhaseOscillate, "%d rapid flips of %s | %s", flips, left, right)
	for i := 0; i < flips; i++ {
		if _, err := r.c.Partition(left, right); err != nil {
			return err
		}
		if err := r.settle(2*time.Millisecond, 8*time.Millisecond); err != nil {
			return err
		}
		r.c.HealConnectivity()
		if err := r.reconfigure(r.alive); err != nil {
			return err
		}
	}
	return nil
}

func (r *simRun) crashRestart(at time.Duration) error {
	if r.alive.Len() <= 2 {
		return r.burst(at)
	}
	victims := r.alive.Sorted()
	p := victims[r.rng.Intn(len(victims))]
	r.sched.Note(at, PhaseCrashRestart, "crash %s, reconfigure, recover, reconfigure", p)
	if err := r.c.Crash(p); err != nil {
		return err
	}
	r.alive.Remove(p)
	r.crashed.Add(p)
	if err := r.reconfigure(r.alive); err != nil {
		return err
	}
	if err := r.traffic("crash", 3); err != nil {
		return err
	}
	if err := r.c.Recover(p); err != nil {
		return err
	}
	r.crashed.Remove(p)
	r.alive.Add(p)
	return r.reconfigure(r.alive)
}

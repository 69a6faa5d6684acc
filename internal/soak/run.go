package soak

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"vsgm/internal/obs"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// A world is the system a soak drives, as the loop sees it. RunLive builds
// the live deployment's world and hands it to drive, which owns defaults,
// validation, the PRNG stream, the schedule, the error split, the forced
// violation and the report; a test substitutes a stub world to exercise the
// loop without sockets.
type world struct {
	// phases maps every phase kind the world executes to its body, started
	// at the given run clock. Its keys are the kinds a scenario may name.
	phases map[PhaseKind]func(at time.Duration) error
	// now is the run clock: the Duration budget is measured on it and every
	// step is stamped with it.
	now func() time.Duration
	// stabilize is the final heal, round and convergence checks, run when
	// no phase ended in a violation.
	stabilize func() error
	// verdict fills the world's counters into the report and returns its
	// checkers' verdict. The loop folds it into every report it returns.
	verdict func(rep *Report) error
	// victim names the endpoint a forced violation lands on and record
	// hands it to the world's suite.
	victim func() types.ProcID
	record func(spec.Event)
	// tracer, when set, supplies a violated report's timeline.
	tracer *obs.Tracer
}

// chaos is what a world's phases share with the loop: the run's one PRNG
// stream, from which the loop picks phases and the phases draw their
// parameters, and the schedule the phases note themselves on.
type chaos struct {
	rng   *rand.Rand
	sched *Schedule
}

// settings is what the loop takes from the run's config.
type settings struct {
	duration time.Duration // 0 selects defaultDuration
	seed     int64
	scenario *Scenario // nil selects LiveScenario
	force    bool
	log      func(format string, args ...any)
}

// defaultDuration is the phase loop's wall-time budget when none is given.
const defaultDuration = 20 * time.Second

// violationError marks a phase failure that is a property of the system
// under test (a stabilization that never converged, a send that never
// unblocked) rather than of the harness.
type violationError struct{ error }

func violationf(format string, args ...any) error {
	return violationError{fmt.Errorf(format, args...)}
}

// violation marks err, if any, as a property of the system under test.
func violation(err error) error {
	if err == nil {
		return nil
	}
	return violationError{err}
}

// drive runs one soak: it builds the world on the run's chaos stream, runs
// picked phases until the world's clock passes the budget, stabilizes, and
// returns the report. A violation ends the phase loop and lands in the
// report; any other error is a harness failure and is returned.
func drive(s settings, build func(chaos) (*world, error)) (*Report, error) {
	if s.duration <= 0 {
		s.duration = defaultDuration
	}
	if s.scenario == nil {
		s.scenario = LiveScenario()
	}
	if s.log == nil {
		s.log = func(string, ...any) {}
	}
	ch := chaos{
		rng:   rand.New(rand.NewSource(s.seed)),
		sched: &Schedule{Scenario: s.scenario.Name, Seed: s.seed},
	}
	w, err := build(ch)
	if err != nil {
		return nil, err
	}
	if err := s.scenario.validate(w.phases); err != nil {
		return nil, err
	}

	for err == nil && w.now() < s.duration {
		kind := s.scenario.pick(ch.rng)
		if err = w.phases[kind](w.now()); err == nil {
			s.log("soak: step %d (%s) done at %v", len(ch.sched.Steps), kind, w.now().Round(time.Millisecond))
		}
	}
	if err == nil {
		s.log("soak: %d steps executed, stabilizing", len(ch.sched.Steps))
		err = w.stabilize()
	}
	if err != nil && !errors.As(err, new(violationError)) {
		return nil, err
	}
	rep := &Report{Seed: s.seed, Schedule: ch.sched}
	rep.violate(err)

	if s.force {
		victim := w.victim()
		ch.sched.Note(w.now(), PhaseKind("forced-violation"), "injected regressing membership view at %s", victim)
		w.record(forcedViolation(victim))
	}
	rep.violate(w.verdict(rep))
	rep.Elapsed = w.now()
	if !rep.OK() && w.tracer != nil {
		rep.Timeline = w.tracer.TimelineString()
	}
	return rep, nil
}

// forcedViolation is a fabricated membership view with a regressing
// identifier for p — a guaranteed Local Monotonicity violation that
// exercises the report/timeline dump path end to end.
func forcedViolation(p types.ProcID) spec.Event {
	return spec.EMView{P: p, View: types.NewView(
		0, types.NewProcSet(p), map[types.ProcID]types.StartChangeID{p: 1},
	)}
}

// Package soak is the long-soak chaos harness: it drives the live TCP
// cluster for sustained durations under randomized, scheduled adversarial
// phases — partitions and heals, oscillating and flapping links, gray
// failures, crash/restart, flash-crowd joins, stale-WAL resurrection,
// scrambled durable and in-memory state, and wrapped-epoch/corrupted-counter
// injection — with the executable specification suite (internal/spec)
// attached throughout.
//
// A run is driven by a single seeded PRNG: the weighted scenario picks the
// phase sequence, and every phase draws its parameters (victims, splits,
// burst sizes, dwell times) from the same stream, so the chaos schedule
// replays from the logged seed; the kernel still picks the timing within it.
// On any invariant violation the run's Report carries the replay seed, the
// chaos schedule up to the failure, and the reconfiguration trace timeline
// of the implicated attempts (internal/obs).
package soak

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// PhaseKind names one adversarial phase of a soak schedule.
type PhaseKind string

// The scenario phase vocabulary.
const (
	// PhaseTraffic runs plain application multicast rounds.
	PhaseTraffic PhaseKind = "traffic"
	// PhasePartitionHeal splits the deployment in two, lets each side
	// stabilize, then heals and re-merges.
	PhasePartitionHeal PhaseKind = "partition-heal"
	// PhaseOscillate flips a partition open and closed several times
	// faster than the system stabilizes, then heals.
	PhaseOscillate PhaseKind = "oscillate"
	// PhaseCrashRestart kills a server and restarts it from its durable
	// state.
	PhaseCrashRestart PhaseKind = "crash-restart"
	// PhaseFlashCrowd joins a large batch of new clients in one instant.
	PhaseFlashCrowd PhaseKind = "flash-crowd"
	// PhaseStaleResurrect restarts a server from an old snapshot/WAL
	// generation, resurrecting stale identifier state.
	PhaseStaleResurrect PhaseKind = "stale-resurrect"
	// PhaseCorruptCounter injects a corrupted (huge or epoch-wrapped)
	// identifier record and lets the protocol absorb it.
	PhaseCorruptCounter PhaseKind = "corrupt-counter"
	// PhaseWALScramble kills a server, rewrites its durable state with
	// adversarially random bytes — record-boundary-aware or blind — and
	// restarts it through the fsck/repair path.
	PhaseWALScramble PhaseKind = "wal-scramble"
	// PhaseStateScramble injects adversarially random identifier records
	// straight into a running server's retained state, exercising the
	// sanitizer's arbitrary-state convergence without a restart.
	PhaseStateScramble PhaseKind = "state-scramble"
	// PhaseClientScramble scrambles a live client's in-memory identifier
	// watermarks (cid, view id, last start-change) with adversarially random
	// values, exercising the client half of arbitrary-state convergence:
	// self-clamping, the attach-claim re-float, and the notification filter.
	PhaseClientScramble PhaseKind = "client-scramble"
	// PhaseFlappingLink rapidly blocks and unblocks one server-server link,
	// faster than an undamped detector stabilizes; flap damping must
	// converge the verdict instead of installing a view per flip.
	PhaseFlappingLink PhaseKind = "flapping-link"
	// PhaseGrayFailure blocks exactly one direction of a server-server link
	// — a gray failure one side cannot see directly. Reachability-bitmap
	// reconciliation must converge both sides (and every third party) on
	// one symmetric reconfiguration.
	PhaseGrayFailure PhaseKind = "gray-failure"
)

// Weight gives one phase kind a relative selection weight.
type Weight struct {
	Kind   PhaseKind
	Weight int
}

// Scenario is a weighted phase mix — the DSL a soak run is scheduled from.
type Scenario struct {
	Name    string
	Weights []Weight
}

// pick draws the next phase kind from the weighted mix.
func (sc *Scenario) pick(rng *rand.Rand) PhaseKind {
	total := 0
	for _, w := range sc.Weights {
		if w.Weight > 0 {
			total += w.Weight
		}
	}
	if total == 0 {
		return PhaseTraffic
	}
	n := rng.Intn(total)
	for _, w := range sc.Weights {
		if w.Weight <= 0 {
			continue
		}
		if n < w.Weight {
			return w.Kind
		}
		n -= w.Weight
	}
	return sc.Weights[len(sc.Weights)-1].Kind
}

// validate checks that the runner's phase table executes every kind in the mix.
func (sc *Scenario) validate(phases map[PhaseKind]func(at time.Duration) error) error {
	if len(sc.Weights) == 0 {
		return fmt.Errorf("soak: scenario %q has no phases", sc.Name)
	}
	for _, w := range sc.Weights {
		if phases[w.Kind] == nil {
			return fmt.Errorf("soak: scenario %q: phase %q is not supported by this runner", sc.Name, w.Kind)
		}
	}
	return nil
}

// LiveScenario is the default mix for the live TCP deployment soak.
func LiveScenario() *Scenario {
	return &Scenario{
		Name: "live-default",
		Weights: []Weight{
			{PhaseTraffic, 4},
			{PhasePartitionHeal, 3},
			{PhaseOscillate, 2},
			{PhaseFlappingLink, 2},
			{PhaseGrayFailure, 2},
			{PhaseCrashRestart, 3},
			{PhaseFlashCrowd, 2},
			{PhaseStaleResurrect, 2},
			{PhaseCorruptCounter, 2},
			{PhaseWALScramble, 2},
			{PhaseStateScramble, 2},
			{PhaseClientScramble, 2},
		},
	}
}

// LiveArbitraryScenario concentrates the live soak on the self-stabilizing
// recovery paths: every phase leaves a server holding state no correct
// execution produces — scrambled WAL bytes, scrambled in-memory records,
// stale generations, corrupted counters — with just enough traffic to prove
// the data path survives each convergence.
func LiveArbitraryScenario() *Scenario {
	return &Scenario{
		Name: "live-arbitrary",
		Weights: []Weight{
			{PhaseTraffic, 2},
			{PhaseWALScramble, 4},
			{PhaseStateScramble, 4},
			{PhaseClientScramble, 4},
			{PhaseStaleResurrect, 2},
			{PhaseCorruptCounter, 2},
			{PhaseCrashRestart, 1},
		},
	}
}

// LiveDetectorScenario concentrates the live soak on the adaptive failure
// detector: flapping links that must be damped, gray failures that must be
// reconciled symmetrically, and just enough clean partitions and traffic to
// prove the detector still converges the easy cases. Runs of this scenario
// additionally hold the trace to the bounded-churn property
// (spec.CheckChurn) over the run's chaos transitions.
func LiveDetectorScenario() *Scenario {
	return &Scenario{
		Name: "live-detector",
		Weights: []Weight{
			{PhaseTraffic, 2},
			{PhaseFlappingLink, 4},
			{PhaseGrayFailure, 4},
			{PhasePartitionHeal, 1},
		},
	}
}

// ScenarioByName resolves a named scenario ("live-default", "live-arbitrary",
// "live-detector"), for the -scenario CLI flag.
func ScenarioByName(name string) (*Scenario, error) {
	for _, sc := range []*Scenario{LiveScenario(), LiveArbitraryScenario(), LiveDetectorScenario()} {
		if sc.Name == name {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("soak: unknown scenario %q", name)
}

// Step is one executed phase of a soak run's chaos schedule.
type Step struct {
	// Index numbers the step from 1.
	Index int
	// At is the wall time since the cluster booted when the phase started.
	At time.Duration
	// Kind is the phase kind.
	Kind PhaseKind
	// Detail records the drawn parameters (victims, splits, burst sizes).
	Detail string
}

func (s Step) String() string {
	return fmt.Sprintf("#%02d +%-10v %-15s %s", s.Index, s.At.Round(time.Millisecond), s.Kind, s.Detail)
}

// Schedule is the executed chaos schedule of one soak run, recorded as the
// run unfolds so a violation report can show everything the adversary did
// up to the failure.
type Schedule struct {
	Scenario string
	Seed     int64
	Steps    []Step
}

// Note appends one executed step at the given run clock.
func (s *Schedule) Note(at time.Duration, kind PhaseKind, format string, args ...any) {
	s.Steps = append(s.Steps, Step{
		Index:  len(s.Steps) + 1,
		At:     at,
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Render formats the schedule, one step per line.
func (s *Schedule) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s, seed %d, %d steps\n", s.Scenario, s.Seed, len(s.Steps))
	for _, st := range s.Steps {
		fmt.Fprintf(&b, "%s\n", st)
	}
	return b.String()
}

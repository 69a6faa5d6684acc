// Package soak is the long-soak chaos harness: it drives the live TCP
// cluster for sustained durations under randomized, scheduled adversarial
// phases — partitions and heals, oscillating and flapping links, gray
// failures, crash/restart, flash-crowd joins, stale-WAL resurrection,
// scrambled durable and in-memory state, and wrapped-epoch/corrupted-counter
// injection — with the executable specification suite (internal/spec)
// attached throughout.
//
// A run is driven by a single seeded PRNG: the weighted phase mix picks the
// phase sequence, and every phase draws its parameters (victims, splits,
// burst sizes, dwell times) from the same stream, so the chaos schedule
// replays from the logged seed; the kernel still picks the timing within it.
// On any invariant violation the run's Report carries the replay seed, the
// chaos schedule up to the failure, and the reconfiguration trace timeline
// of the implicated attempts (internal/obs).
package soak

import (
	"fmt"
	"os"
	"strings"
	"time"

	"vsgm/internal/randseed"
)

// Report is the outcome of one soak run. A clean run records the schedule
// it survived; a violated run additionally carries every specification
// violation, the reconfiguration trace timeline of the implicated
// attempts, and the replay seed — everything needed to reproduce and
// debug the failure.
type Report struct {
	// Seed is the PRNG seed the whole run derives from.
	Seed int64
	// Schedule is the executed chaos schedule (up to the failure, when the
	// run aborted).
	Schedule *Schedule
	// Population is the number of endpoints/clients at the end of the run.
	Population int
	// Violations lists every invariant violation (empty on a clean run).
	Violations []string
	// Timeline is the rendered reconfiguration trace timeline
	// (internal/obs), populated when the run ends in violation.
	Timeline string
	// Elapsed is the wall time from the cluster's boot to the end of the run.
	Elapsed time.Duration
}

// OK reports whether the run finished without violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// violate appends a violation, splitting multi-line checker aggregates.
func (r *Report) violate(err error) {
	if err == nil {
		return
	}
	for _, line := range strings.Split(err.Error(), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			r.Violations = append(r.Violations, line)
		}
	}
}

// Render formats the report for humans: verdict, replay instructions,
// violations, the chaos schedule, and (on failure) the reconfiguration
// timeline.
func (r *Report) Render() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "soak: %s (seed %d, %d steps, %v, population %d)\n",
		verdict, r.Seed, len(r.Schedule.Steps), r.Elapsed.Round(time.Millisecond), r.Population)
	fmt.Fprintf(&b, "replay: %s=%d (the same seed reproduces the schedule)\n", randseed.EnvVar, r.Seed)
	if !r.OK() {
		fmt.Fprintf(&b, "\n%d violation(s):\n", len(r.Violations))
		for i, v := range r.Violations {
			fmt.Fprintf(&b, "  %2d. %s\n", i+1, v)
		}
	}
	fmt.Fprintf(&b, "\nchaos schedule:\n%s", r.Schedule.Render())
	if !r.OK() && r.Timeline != "" {
		fmt.Fprintf(&b, "\nreconfiguration trace timeline:\n%s", r.Timeline)
	}
	return b.String()
}

// WriteFile writes the rendered report to path (the violation artifact).
func (r *Report) WriteFile(path string) error {
	return os.WriteFile(path, []byte(r.Render()), 0o644)
}

// Step is one executed phase of a soak run's chaos schedule.
type Step struct {
	// Index numbers the step from 1.
	Index int
	// At is the wall time since the cluster booted when the phase started.
	At time.Duration
	// Kind is the phase kind.
	Kind string
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
	Seed  int64
	Steps []Step
}

// Note appends one executed step at the given run clock.
func (s *Schedule) Note(at time.Duration, kind, format string, args ...any) {
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
	fmt.Fprintf(&b, "seed %d, %d steps\n", s.Seed, len(s.Steps))
	for _, st := range s.Steps {
		fmt.Fprintf(&b, "%s\n", st)
	}
	return b.String()
}

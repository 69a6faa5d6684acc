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

	// Detector aggregates: chaos transitions the schedule executed, and the
	// servers' failure-detector counters at the end of the run — flap
	// crossings seen, rejoin quarantines imposed, gray (one-way link)
	// downgrades applied. They let a seeded detector soak
	// assert that damping actually engaged, not merely that nothing broke.
	ChaosTransitions    int
	DetectorFlaps       int64
	DetectorQuarantines int64
	DetectorGrayDrops   int64
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
	fmt.Fprintf(&b, "replay: %s=%d (the same scenario reproduces the schedule)\n", randseed.EnvVar, r.Seed)
	fmt.Fprintf(&b, "detector: %d chaos transitions, %d flaps, %d quarantines, %d gray downgrades\n",
		r.ChaosTransitions, r.DetectorFlaps, r.DetectorQuarantines, r.DetectorGrayDrops)
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

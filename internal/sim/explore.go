package sim

import (
	"fmt"
	"math/rand"

	"vsgm/internal/spec"
)

// The explorer is a stateless model checker over the same worlds the clock
// drives. Where time mode samples one schedule from a latency distribution,
// the explorer *enumerates* schedules — depth-first over the tree of
// scheduling choices, replaying from the initial state on every branch — or
// draws them at random (swarm mode) for the deeper parts of the tree. Every
// schedule is validated against a fresh full specification suite.
//
// The nondeterminism explored is exactly the asynchronous environment's:
// which non-empty CO_RFIFO link delivers next, when each client hears its
// next membership notification, and where pending timers fall among them.
// Per-channel FIFO order is preserved, matching the substrate's guarantees.

// chooser resolves scheduling choices. A prefix of forced choices replays a
// branch; choices beyond the prefix default to 0 (or, in swarm mode, are drawn
// at random) and are recorded together with their branching factors so the
// explorer can backtrack.
type chooser struct {
	prefix []int
	taken  []int
	width  []int
	rng    *rand.Rand // non-nil in swarm mode
}

func (c *chooser) choose(n int) int {
	idx := len(c.taken)
	pick := 0
	if idx < len(c.prefix) {
		pick = c.prefix[idx]
	} else if c.rng != nil {
		pick = c.rng.Intn(n)
	}
	if pick >= n {
		pick = n - 1
	}
	c.taken = append(c.taken, pick)
	c.width = append(c.width, n)
	return pick
}

// Scenario drives a cluster through a fixed script; the explorer varies the
// schedule within it. Under the explorer, Run drains the cluster to
// quiescence by the chooser's picks instead of the clock, and RunFor fails.
type Scenario func(c *Cluster) error

// ExploreResult summarizes one exploration.
type ExploreResult struct {
	// Schedules is the number of schedules executed.
	Schedules int
	// Exhausted reports whether the whole choice tree was covered (only
	// meaningful for Exhaustive).
	Exhausted bool
}

// Exhaustive explores the scenario's schedule tree depth-first, replaying
// from a fresh cluster built from cfg on every branch, until the tree is
// exhausted or maxSchedules have run. cfg.Suite is replaced by a fresh
// spec.FullSuite per schedule. It returns an error, prefixed with the
// schedule's choices, for the first schedule that violates a specification
// or fails the scenario's own assertions.
func Exhaustive(cfg Config, scenario Scenario, maxSchedules int) (ExploreResult, error) {
	return exhaustive(clusterSchedule(cfg, scenario), maxSchedules)
}

// Swarm explores `runs` random schedules of the scenario drawn from the
// given seed, each on a fresh cluster checked as in Exhaustive.
func Swarm(cfg Config, scenario Scenario, runs int, seed int64) (ExploreResult, error) {
	return swarm(clusterSchedule(cfg, scenario), runs, seed)
}

// clusterSchedule runs one schedule of a cluster scenario under choose.
func clusterSchedule(cfg Config, scenario Scenario) func(choose func(int) int) error {
	return func(choose func(int) int) error {
		suite := spec.FullSuite(spec.WithTrace())
		cfg.Suite = suite
		c, err := NewCluster(cfg)
		if err != nil {
			return err
		}
		c.choose = choose
		if err := scenario(c); err != nil {
			return err
		}
		return suite.Err()
	}
}

// exhaustive is Exhaustive over any world: schedule builds a fresh world,
// hands its engine the chooser, runs the script, and returns the verdict.
func exhaustive(schedule func(choose func(int) int) error, maxSchedules int) (ExploreResult, error) {
	var res ExploreResult
	var prefix []int
	for res.Schedules < maxSchedules {
		ch := &chooser{prefix: prefix}
		err := schedule(ch.choose)
		res.Schedules++
		if err != nil {
			return res, fmt.Errorf("schedule %v: %w", ch.taken, err)
		}
		// Backtrack: find the deepest choice point with an untried branch.
		i := len(ch.taken) - 1
		for i >= 0 && ch.taken[i]+1 >= ch.width[i] {
			i--
		}
		if i < 0 {
			res.Exhausted = true
			break
		}
		prefix = append(ch.taken[:i:i], ch.taken[i]+1)
	}
	return res, nil
}

// swarm is Swarm over any world, as exhaustive is Exhaustive.
func swarm(schedule func(choose func(int) int) error, runs int, seed int64) (ExploreResult, error) {
	var res ExploreResult
	for i := 0; i < runs; i++ {
		ch := &chooser{rng: rand.New(rand.NewSource(seed + int64(i)))}
		err := schedule(ch.choose)
		res.Schedules++
		if err != nil {
			return res, fmt.Errorf("schedule %v: %w", ch.taken, err)
		}
	}
	return res, nil
}

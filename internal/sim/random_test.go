package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/randseed"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// TestRandomScenarios drives many seeded random schedules — traffic,
// membership changes committed while earlier ones are still in flight,
// partitions, merges, crashes, and recoveries — and checks every execution
// against the full specification suite, then verifies convergence and
// conditional liveness on the stabilized final view.
func TestRandomScenarios(t *testing.T) {
	if seed, ok := randseed.FromEnv(); ok {
		// Replay mode: run exactly the seed from a previous failure log.
		runRandomScenario(t, seed, core.LevelGCS)
		return
	}
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runRandomScenario(t, int64(seed), core.LevelGCS)
		})
	}
}

// TestRandomScenarioCrashDropsInFlightNotification replays the seed whose
// schedule crashes p01 while its view-1 notification is in flight and then
// recovers it. The notification must die with the crash: delivered to the
// recovered end-point, it is a view without a preceding start_change.
func TestRandomScenarioCrashDropsInFlightNotification(t *testing.T) {
	runRandomScenario(t, 17825792, core.LevelGCS)
}

// TestRandomScenariosVSLevel repeats a smaller sweep at the VS_RFIFO+TS
// level (no Self Delivery, no client blocking).
func TestRandomScenariosVSLevel(t *testing.T) {
	if seed, ok := randseed.FromEnv(); ok {
		runRandomScenario(t, seed, core.LevelVS)
		return
	}
	for seed := 100; seed < 110; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runRandomScenario(t, int64(seed), core.LevelVS)
		})
	}
}

func runRandomScenario(t *testing.T, seed int64, level core.Level) {
	t.Helper()
	t.Logf("PRNG seed %d (replay: %s=%d go test -run '%s' ./internal/sim)",
		seed, randseed.EnvVar, seed, t.Name())
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(3)

	var suite *spec.Suite
	if level == core.LevelGCS {
		suite = spec.FullSuite(spec.WithTrace())
	} else {
		suite = spec.VSSuite(spec.WithTrace())
	}
	strategies := []core.ForwardingStrategy{
		core.NewSimpleForwarding(),
		core.NewMinCopiesForwarding(),
	}
	c, err := NewCluster(Config{
		Procs:              ProcIDs(n),
		Level:              level,
		Forwarding:         strategies[rng.Intn(len(strategies))],
		SmallSync:          rng.Intn(2) == 0,
		AckInterval:        rng.Intn(3), // 0 (off), 1, or 2
		HierarchyGroupSize: []int{0, 2, 3}[rng.Intn(3)],

		Latency:         UniformLatency{Base: 10 * time.Millisecond, Jitter: 8 * time.Millisecond},
		MembershipRound: 8 * time.Millisecond,
		Seed:            seed * 7,
		Suite:           suite,
	})
	if err != nil {
		t.Fatal(err)
	}
	procs := c.Procs()

	alive := types.NewProcSet(procs...)
	crashed := types.NewProcSet()
	var pendingChange types.ProcSet

	randomAliveSubset := func() types.ProcSet {
		members := alive.Sorted()
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		k := 1 + rng.Intn(len(members))
		return types.NewProcSet(members[:k]...)
	}

	ops := 30
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 4: // send traffic from a random live member
			p := alive.Sorted()[rng.Intn(alive.Len())]
			_, err := c.Send(p, []byte(fmt.Sprintf("op%d", i)))
			if err != nil && !errors.Is(err, core.ErrBlocked) && !errors.Is(err, core.ErrCrashed) {
				t.Fatalf("send: %v", err)
			}

		case op < 6: // begin a membership change (commit comes later)
			set := randomAliveSubset()
			if err := c.StartChange(set); err != nil {
				t.Fatalf("start change: %v", err)
			}
			pendingChange = set

		case op < 8: // commit the pending change while traffic is in flight
			if pendingChange == nil {
				continue
			}
			commit := pendingChange.Minus(crashed)
			if commit.Len() == 0 {
				continue
			}
			if _, err := c.DeliverView(commit); err != nil {
				// The membership changed its mind in between (a crash,
				// recovery, or partition invalidated the pending change).
				// A fresh start_change is always legal; re-announce and
				// commit — exactly the cascading pattern of Section 5.
				if err := c.StartChange(commit); err != nil {
					t.Fatalf("re-announce: %v", err)
				}
				if _, err := c.DeliverView(commit); err != nil {
					t.Fatalf("deliver view after re-announce: %v", err)
				}
			}
			pendingChange = nil

		case op < 9: // crash a member (keep at least two alive)
			if alive.Len() <= 2 {
				continue
			}
			victims := alive.Sorted()
			p := victims[rng.Intn(len(victims))]
			if err := c.Crash(p); err != nil {
				t.Fatalf("crash: %v", err)
			}
			alive.Remove(p)
			crashed.Add(p)

		default: // recover a crashed member
			if crashed.Len() == 0 {
				continue
			}
			p := crashed.Sorted()[rng.Intn(crashed.Len())]
			if err := c.Recover(p); err != nil {
				t.Fatalf("recover: %v", err)
			}
			crashed.Remove(p)
			alive.Add(p)
		}
		if err := c.RunFor(time.Duration(rng.Intn(15)) * time.Millisecond); err != nil {
			t.Fatal(err)
		}

		// Occasionally partition and re-merge mid-run.
		if i == ops/2 && alive.Len() >= 4 && rng.Intn(2) == 0 {
			members := alive.Sorted()
			mid := len(members) / 2
			left := types.NewProcSet(members[:mid]...)
			right := types.NewProcSet(members[mid:]...)
			if _, err := c.Partition(left, right); err != nil {
				t.Fatalf("partition: %v", err)
			}
			c.HealConnectivity()
		}
	}

	// Stabilize: one final change to all live members, run to quiescence.
	c.HealConnectivity()
	final, _, err := c.ReconfigureTo(alive)
	if err != nil {
		t.Fatalf("final reconfiguration: %v", err)
	}
	for _, p := range alive.Sorted() {
		if got := c.Endpoint(p).CurrentView(); !got.Equal(final) {
			t.Errorf("%s stabilized in %s, want %s", p, got, final)
		}
	}

	// Post-stabilization traffic must reach everyone (Property 4.2).
	for _, p := range alive.Sorted() {
		if _, err := c.Send(p, []byte("final")); err != nil {
			t.Fatalf("final send: %v", err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	if err := suite.Err(); err != nil {
		t.Fatalf("specification violations:\n%v", err)
	}
	if err := spec.CheckLiveness(suite.Trace(), final); err != nil {
		t.Errorf("liveness: %v", err)
	}
}

package sim

import (
	"fmt"
	"testing"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

func newTestCluster(t *testing.T, n int, opts func(*Config)) (*Cluster, *spec.Suite) {
	t.Helper()
	suite := spec.FullSuite(spec.WithTrace())
	cfg := Config{
		Procs:           ProcIDs(n),
		Level:           core.LevelGCS,
		Latency:         UniformLatency{Base: 10 * time.Millisecond, Jitter: 5 * time.Millisecond},
		MembershipRound: 10 * time.Millisecond,
		Seed:            1,
		Suite:           suite,
	}
	if opts != nil {
		opts(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c, suite
}

func mustReconfigure(t *testing.T, c *Cluster, set types.ProcSet) types.View {
	t.Helper()
	v, _, err := c.ReconfigureTo(set)
	if err != nil {
		t.Fatalf("ReconfigureTo(%s): %v", set, err)
	}
	return v
}

func assertSpec(t *testing.T, suite *spec.Suite) {
	t.Helper()
	if err := suite.Err(); err != nil {
		t.Fatalf("specification violations:\n%v", err)
	}
}

func TestFormInitialGroup(t *testing.T) {
	c, suite := newTestCluster(t, 3, nil)
	all := types.NewProcSet(c.Procs()...)
	v := mustReconfigure(t, c, all)

	for _, p := range c.Procs() {
		if got := c.Endpoint(p).CurrentView(); !got.Equal(v) {
			t.Errorf("%s current view = %s, want %s", p, got, v)
		}
	}
	assertSpec(t, suite)
}

func TestSteadyStateMulticast(t *testing.T) {
	c, suite := newTestCluster(t, 4, nil)
	all := types.NewProcSet(c.Procs()...)
	v := mustReconfigure(t, c, all)

	const perSender = 5
	for round := 0; round < perSender; round++ {
		for _, p := range c.Procs() {
			if _, err := c.Send(p, []byte(fmt.Sprintf("m-%s-%d", p, round))); err != nil {
				t.Fatalf("send from %s: %v", p, err)
			}
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	wantDelivered := int64(len(c.Procs()) * len(c.Procs()) * perSender)
	if got := c.Metrics().Delivered; got != wantDelivered {
		t.Errorf("delivered %d messages, want %d", got, wantDelivered)
	}
	assertSpec(t, suite)
	if err := spec.CheckLiveness(suite.Trace(), v); err != nil {
		t.Errorf("liveness: %v", err)
	}
}

func TestMemberLeavesWithTrafficInFlight(t *testing.T) {
	c, suite := newTestCluster(t, 4, nil)
	procs := c.Procs()
	all := types.NewProcSet(procs...)
	mustReconfigure(t, c, all)

	for i := 0; i < 3; i++ {
		for _, p := range procs {
			if _, err := c.Send(p, []byte("x")); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
	}
	// Immediately reconfigure without draining: the leaving member's
	// messages are still in flight, so cut agreement has real work to do.
	survivor := types.NewProcSet(procs[0], procs[1], procs[2])
	v := mustReconfigure(t, c, survivor)

	for _, p := range survivor.Sorted() {
		if got := c.Endpoint(p).CurrentView(); !got.Equal(v) {
			t.Errorf("%s current view = %s, want %s", p, got, v)
		}
	}
	assertSpec(t, suite)
}

func TestPartitionAndMerge(t *testing.T) {
	c, suite := newTestCluster(t, 4, nil)
	procs := c.Procs()
	all := types.NewProcSet(procs...)
	mustReconfigure(t, c, all)

	left := types.NewProcSet(procs[0], procs[1])
	right := types.NewProcSet(procs[2], procs[3])
	views, err := c.Partition(left, right)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if len(views) != 2 {
		t.Fatalf("got %d views, want 2", len(views))
	}
	// Each side operates independently.
	if _, err := c.Send(procs[0], []byte("left")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(procs[3], []byte("right")); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	// Merge back into one view.
	c.HealConnectivity()
	merged := mustReconfigure(t, c, all)
	for _, p := range procs {
		if got := c.Endpoint(p).CurrentView(); !got.Equal(merged) {
			t.Errorf("%s current view = %s, want %s", p, got, merged)
		}
	}
	assertSpec(t, suite)
}

func TestCascadedChangeSkipsObsoleteView(t *testing.T) {
	c, suite := newTestCluster(t, 3, func(cfg *Config) {
		// Make membership notifications fast relative to the sync round so
		// the second change overtakes the first view's installation.
		cfg.MembershipLatency = FixedLatency(1 * time.Millisecond)
		cfg.Latency = FixedLatency(20 * time.Millisecond)
	})
	procs := c.Procs()
	pair := types.NewProcSet(procs[0], procs[1])
	all := types.NewProcSet(procs...)

	// Establish a shared two-member view first, so that the next view's
	// synchronization round requires a real (20ms) message exchange.
	mustReconfigure(t, c, pair)

	if err := c.StartChange(all); err != nil {
		t.Fatal(err)
	}
	v1, err := c.DeliverView(all)
	if err != nil {
		t.Fatal(err)
	}
	// Before p00/p01 can finish the sync round for v1, the membership
	// changes its mind and announces a newer view: v1 is now known to be
	// out of date at those end-points.
	if err := c.StartChange(all); err != nil {
		t.Fatal(err)
	}
	v2, err := c.DeliverView(all)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	for _, p := range procs {
		if got := c.Endpoint(p).CurrentView(); !got.Equal(v2) {
			t.Errorf("%s current view = %s, want %s", p, got, v2)
		}
	}
	// The obsolete view v1 must not have been delivered at the members of
	// the old shared view (p02, alone in a singleton view, may legitimately
	// install v1 before learning it is out of date).
	times := c.Metrics().InstallTimes(v1.Key())
	for _, p := range pair.Sorted() {
		if _, ok := times[p]; ok {
			t.Errorf("obsolete view %s was installed at %s", v1, p)
		}
	}
	assertSpec(t, suite)
}

func TestCrashAndRecovery(t *testing.T) {
	c, suite := newTestCluster(t, 3, nil)
	procs := c.Procs()
	all := types.NewProcSet(procs...)
	mustReconfigure(t, c, all)

	if _, err := c.Send(procs[0], []byte("before-crash")); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	if err := c.Crash(procs[2]); err != nil {
		t.Fatal(err)
	}
	survivors := types.NewProcSet(procs[0], procs[1])
	mustReconfigure(t, c, survivors)
	if _, err := c.Send(procs[1], []byte("while-down")); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	if err := c.Recover(procs[2]); err != nil {
		t.Fatal(err)
	}
	v := mustReconfigure(t, c, all)
	for _, p := range procs {
		if got := c.Endpoint(p).CurrentView(); !got.Equal(v) {
			t.Errorf("%s current view = %s, want %s", p, got, v)
		}
	}
	// Local Monotonicity must hold across the crash: the recovered
	// end-point's new view id exceeds its pre-crash views.
	assertSpec(t, suite)
}

// TestCrashDropsInFlightNotification crashes p while its view notification
// is in flight and recovers it before the notification lands. The
// notification must die with the crash: delivered to the recovered
// end-point, which starts from its initial state, it is a view without a
// preceding start_change.
func TestCrashDropsInFlightNotification(t *testing.T) {
	c, suite := newTestCluster(t, 3, func(cfg *Config) { cfg.Latency = FixedLatency(10 * time.Millisecond) })
	all := types.NewProcSet(c.Procs()...)
	p := c.Procs()[1]
	if err := c.StartChange(all); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(15 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeliverView(all); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	assertSpec(t, suite)
	v := mustReconfigure(t, c, all)
	for _, q := range c.Procs() {
		if got := c.Endpoint(q).CurrentView(); !got.Equal(v) {
			t.Errorf("%s current view = %s, want %s", q, got, v)
		}
	}
	assertSpec(t, suite)
}

func TestLevelsWVAndVS(t *testing.T) {
	for _, level := range []core.Level{core.LevelWV, core.LevelVS} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			suite := spec.SuiteFor(level, spec.WithTrace())
			c, err := NewCluster(Config{
				Procs:           ProcIDs(3),
				Level:           level,
				Latency:         FixedLatency(5 * time.Millisecond),
				MembershipRound: 5 * time.Millisecond,
				Seed:            7,
				Suite:           suite,
			})
			if err != nil {
				t.Fatal(err)
			}
			all := types.NewProcSet(c.Procs()...)
			v, _, err := c.ReconfigureTo(all)
			if err != nil {
				t.Fatalf("reconfigure: %v", err)
			}
			for _, p := range c.Procs() {
				if _, err := c.Send(p, []byte("hello")); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if err := suite.Err(); err != nil {
				t.Fatalf("spec violations:\n%v", err)
			}
			if err := spec.CheckLiveness(suite.Trace(), v); err != nil {
				t.Errorf("liveness: %v", err)
			}
		})
	}
}

func TestStabilityAcksBoundBuffersUnderSteadyTraffic(t *testing.T) {
	run := func(ackInterval int) int {
		c, suite := newTestCluster(t, 3, func(cfg *Config) {
			cfg.AckInterval = ackInterval
		})
		all := types.NewProcSet(c.Procs()...)
		mustReconfigure(t, c, all)
		for round := 0; round < 20; round++ {
			for _, p := range c.Procs() {
				if _, err := c.Send(p, []byte("steady")); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
		}
		assertSpec(t, suite)
		total := 0
		for _, p := range c.Procs() {
			total += c.CoreEndpoint(p).BufferedMessages()
		}
		return total
	}

	withoutAcks := run(0)
	withAcks := run(1)
	if withoutAcks != 3*3*20 {
		t.Errorf("without acks buffered = %d, want all %d messages retained", withoutAcks, 180)
	}
	if withAcks*4 > withoutAcks {
		t.Errorf("acks did not reclaim buffers: %d with vs %d without", withAcks, withoutAcks)
	}
}

func TestStabilityAcksSurviveReconfiguration(t *testing.T) {
	// Garbage collection must never break a later view change: stable
	// (collected) prefixes still count in the cuts and nobody needs them
	// forwarded.
	c, suite := newTestCluster(t, 4, func(cfg *Config) {
		cfg.AckInterval = 1
	})
	procs := c.Procs()
	all := types.NewProcSet(procs...)
	mustReconfigure(t, c, all)
	for i := 0; i < 10; i++ {
		for _, p := range procs {
			if _, err := c.Send(p, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	survivors := types.NewProcSet(procs[0], procs[1], procs[2])
	v := mustReconfigure(t, c, survivors)
	for _, p := range survivors.Sorted() {
		if got := c.Endpoint(p).CurrentView(); !got.Equal(v) {
			t.Errorf("%s view = %s, want %s", p, got, v)
		}
	}
	assertSpec(t, suite)
}

func TestHierarchicalSyncRound(t *testing.T) {
	// The Section 9 two-tier extension: with 9 members in groups of 3,
	// reconfiguration must still satisfy every specification, and the sync
	// traffic must collapse from N(N-1) point-to-point messages to
	// member→leader sends plus leader bundles.
	const n = 9
	c, suite := newTestCluster(t, n, func(cfg *Config) {
		cfg.HierarchyGroupSize = 3
	})
	all := types.NewProcSet(c.Procs()...)
	mustReconfigure(t, c, all)

	// Traffic, then a steady-state change with the cut agreement running
	// through the hierarchy.
	for _, p := range c.Procs() {
		if _, err := c.Send(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	before := c.Network().Stats()
	v := mustReconfigure(t, c, all)
	delta := c.Network().Stats().Sub(before)

	for _, p := range c.Procs() {
		if got := c.Endpoint(p).CurrentView(); !got.Equal(v) {
			t.Errorf("%s view = %s, want %s", p, got, v)
		}
	}
	assertSpec(t, suite)

	flat := int64(n * (n - 1))
	if delta.Sent.Sync >= flat {
		t.Errorf("hierarchical syncs = %d, want below the flat %d", delta.Sent.Sync, flat)
	}
	if delta.Sent.Bundle == 0 {
		t.Error("no leader bundles on the wire")
	}
	t.Logf("sync=%d bundle=%d (flat would be %d syncs)", delta.Sent.Sync, delta.Sent.Bundle, flat)
}

func TestHierarchyWithLeaveAndForwarding(t *testing.T) {
	// A member leaves mid-traffic under the hierarchy: cut agreement and
	// message recovery must still work through the aggregated syncs.
	c, suite := newTestCluster(t, 6, func(cfg *Config) {
		cfg.HierarchyGroupSize = 2
	})
	procs := c.Procs()
	all := types.NewProcSet(procs...)
	mustReconfigure(t, c, all)
	for i := 0; i < 3; i++ {
		for _, p := range procs {
			if _, err := c.Send(p, []byte("y")); err != nil {
				t.Fatal(err)
			}
		}
	}
	survivors := types.NewProcSet(procs[:5]...)
	v := mustReconfigure(t, c, survivors)
	for _, p := range survivors.Sorted() {
		if got := c.Endpoint(p).CurrentView(); !got.Equal(v) {
			t.Errorf("%s view = %s, want %s", p, got, v)
		}
	}
	assertSpec(t, suite)
}

func TestMetricsInstallTimesAndBlockedTotals(t *testing.T) {
	c, _ := newTestCluster(t, 3, nil)
	all := types.NewProcSet(c.Procs()...)
	v := mustReconfigure(t, c, all)

	times := c.Metrics().InstallTimes(v.Key())
	if len(times) != 3 {
		t.Fatalf("install times recorded for %d members, want 3", len(times))
	}
	for p, at := range times {
		if at <= 0 {
			t.Errorf("%s install time = %v", p, at)
		}
	}
	// Blocking was recorded for the change and resolved at installation.
	var blocked int
	for _, d := range c.Metrics().BlockedTotal {
		if d > 0 {
			blocked++
		}
	}
	if blocked != 3 {
		t.Errorf("blocked durations recorded for %d members, want 3", blocked)
	}
	// Unknown view keys yield an empty (non-nil) map.
	if got := c.Metrics().InstallTimes("nope"); len(got) != 0 {
		t.Errorf("unknown view key returned %v", got)
	}
}

func TestRunForDoesNotExecuteFutureEvents(t *testing.T) {
	c, _ := newTestCluster(t, 2, nil)
	fired := false
	c.At(time.Hour, func() { fired = true })
	if err := c.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event an hour out fired within a minute")
	}
	if c.Now() != time.Minute {
		t.Fatalf("clock = %v", c.Now())
	}
}

func TestMessagesDeliverWhileReconfiguring(t *testing.T) {
	// The §1 claim: "our algorithm allows some application messages to be
	// delivered while it is reconfiguring." Track pendency from the event
	// stream itself: deliveries between an end-point's block request and
	// its next view event happen while the change is in progress.
	pending := make(map[types.ProcID]bool)
	duringChange := 0
	cfg := Config{
		Procs:           ProcIDs(4),
		Latency:         UniformLatency{Base: 10 * time.Millisecond, Jitter: 8 * time.Millisecond},
		MembershipRound: 60 * time.Millisecond, // a long membership round
		Seed:            71,
	}
	cfg.OnAppEvent = func(p types.ProcID, ev core.Event) {
		switch ev.(type) {
		case core.BlockEvent:
			pending[p] = true
		case core.ViewEvent:
			pending[p] = false
		case core.DeliverEvent:
			if pending[p] {
				duringChange++
			}
		}
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := types.NewProcSet(c.Procs()...)
	mustReconfigure(t, c, all)

	// Messages race the start_change notifications: under jitter some
	// arrive after the block request and deliver during the round.
	if err := c.StartChange(all); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Procs() {
		if _, err := c.Send(p, []byte("racing")); err != nil {
			t.Fatal(err)
		}
	}
	c.At(60*time.Millisecond, func() {
		if _, err := c.DeliverView(all); err != nil {
			t.Errorf("deliver view: %v", err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if duringChange == 0 {
		t.Fatal("no messages delivered while reconfiguring; the paper's overlap claim should hold")
	}
	t.Logf("%d deliveries happened while a change was pending", duringChange)
}

func TestDeterministicReplay(t *testing.T) {
	// Two clusters with identical configuration and seed must produce
	// byte-identical external traces — the property every debugging and
	// model-checking workflow in this repository leans on.
	runOnce := func() string {
		suite := spec.FullSuite(spec.WithTrace())
		c, err := NewCluster(Config{
			Procs:              ProcIDs(4),
			Latency:            UniformLatency{Base: 10 * time.Millisecond, Jitter: 7 * time.Millisecond},
			MembershipRound:    9 * time.Millisecond,
			Seed:               123,
			Suite:              suite,
			AckInterval:        1,
			HierarchyGroupSize: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		procs := c.Procs()
		all := types.NewProcSet(procs...)
		if _, _, err := c.ReconfigureTo(all); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			for _, p := range procs {
				if _, err := c.Send(p, []byte(fmt.Sprintf("d%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.RunFor(4 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := c.ReconfigureTo(types.NewProcSet(procs[:3]...)); err != nil {
			t.Fatal(err)
		}
		return spec.RenderTrace(suite.Trace())
	}

	first := runOnce()
	second := runOnce()
	if first != second {
		t.Fatal("identical seeds produced different traces")
	}
	if len(first) == 0 {
		t.Fatal("empty trace")
	}
}

func TestSendFromHandlerDoesNotReenter(t *testing.T) {
	// A handler that answers a delivery with a send of its own. The answer is
	// self-delivered inside that Send call, but the handler must not be run
	// for it until the current event — and every event queued before it — has
	// been handled: an application sees its end-point's events one at a time,
	// in the end-point's order.
	var (
		c       *Cluster
		depth   int
		handled []string
	)
	suite := spec.FullSuite()
	cfg := Config{
		Procs: ProcIDs(3),
		Seed:  5,
		Suite: suite,
		OnAppEvent: func(p types.ProcID, ev core.Event) {
			d, ok := ev.(core.DeliverEvent)
			if !ok || p != "p00" {
				return
			}
			if depth++; depth > 1 {
				t.Errorf("handler re-entered for %s while handling another event", d)
			}
			handled = append(handled, string(d.Msg.Payload))
			if string(d.Msg.Payload) == "ping" {
				before := len(handled)
				if _, err := c.Send("p00", []byte("pong")); err != nil {
					t.Errorf("send from handler: %v", err)
				}
				if len(handled) != before {
					t.Error("Send returned after the handler had run for its self-delivery")
				}
			}
			depth--
		},
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustReconfigure(t, c, types.NewProcSet(c.Procs()...))
	for i := 0; i < 3; i++ {
		if _, err := c.Send("p00", []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(handled), "[ping pong ping pong ping pong]"; got != want {
		t.Errorf("p00 handled %s, want %s", got, want)
	}
	if err := suite.Err(); err != nil {
		t.Error(err)
	}
}

func TestHandlerSendsKeepTheBatchInHand(t *testing.T) {
	// The other half of drain's re-entrancy guard: a handler that sends twice
	// queues two new events while drain still iterates the batch it took, and
	// those must not land in the batch's slots (TakeEvents hands each slot out
	// once). "ping" is answered with a1 and a2, which arrive as one batch, and
	// a1 with b1 and b2; were the batch's array reused, b2 would overwrite a2
	// before its turn.
	var (
		c       *Cluster
		handled []string
	)
	answers := map[string][]string{"ping": {"a1", "a2"}, "a1": {"b1", "b2"}}
	suite := spec.FullSuite()
	c, err := NewCluster(Config{
		Procs: ProcIDs(3),
		Seed:  5,
		Suite: suite,
		OnAppEvent: func(p types.ProcID, ev core.Event) {
			d, ok := ev.(core.DeliverEvent)
			if !ok || p != "p00" {
				return
			}
			handled = append(handled, string(d.Msg.Payload))
			for _, a := range answers[string(d.Msg.Payload)] {
				if _, err := c.Send("p00", []byte(a)); err != nil {
					t.Errorf("send from handler: %v", err)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustReconfigure(t, c, types.NewProcSet(c.Procs()...))
	if _, err := c.Send("p00", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(handled), "[ping a1 a2 b1 b2]"; got != want {
		t.Errorf("p00 handled %s, want %s", got, want)
	}
	if err := suite.Err(); err != nil {
		t.Error(err)
	}
}

// TestViewEventTransitionalSetIsNilOnlyBelowVS pins what lets every harness
// derive EView.HasTrans from the event alone: an end-point above WV_RFIFO
// delivers a non-nil transitional set with every view, and a WV_RFIFO
// end-point delivers none.
func TestViewEventTransitionalSetIsNilOnlyBelowVS(t *testing.T) {
	for _, level := range []core.Level{core.LevelWV, core.LevelVS, core.LevelGCS} {
		t.Run(level.String(), func(t *testing.T) {
			views := 0
			suite := spec.SuiteFor(level)
			c, _ := newTestCluster(t, 4, func(cfg *Config) {
				cfg.Level = level
				cfg.Suite = suite
				cfg.OnAppEvent = func(p types.ProcID, ev core.Event) {
					e, ok := ev.(core.ViewEvent)
					if !ok {
						return
					}
					views++
					if (e.TransitionalSet == nil) != (level == core.LevelWV) {
						t.Errorf("%s installed %s with transitional set %v", p, e.View, e.TransitionalSet)
					}
				}
			})
			all := types.NewProcSet(c.Procs()...)
			mustReconfigure(t, c, all)
			left := types.NewProcSet(c.Procs()[:2]...)
			right := types.NewProcSet(c.Procs()[2:]...)
			if _, err := c.Partition(left, right); err != nil {
				t.Fatal(err)
			}
			c.HealConnectivity()
			mustReconfigure(t, c, all)
			if err := c.Crash(c.Procs()[3]); err != nil {
				t.Fatal(err)
			}
			if err := c.Recover(c.Procs()[3]); err != nil {
				t.Fatal(err)
			}
			mustReconfigure(t, c, all)
			assertSpec(t, suite)
			if views == 0 {
				t.Fatal("no view installed")
			}
		})
	}
}

// TestClusterRejectsUnknownProcess: the per-process controls refuse a
// process the cluster does not have, as Send does, and leave no event of it
// in the trace.
func TestClusterRejectsUnknownProcess(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(c *Cluster, p types.ProcID) error
	}{
		{"Send", func(c *Cluster, p types.ProcID) error { _, err := c.Send(p, []byte("x")); return err }},
		{"BlockOK", (*Cluster).BlockOK},
		{"Crash", (*Cluster).Crash},
		{"Recover", (*Cluster).Recover},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, suite := newTestCluster(t, 2, func(cfg *Config) { cfg.ManualBlock = true })
			mark := len(suite.Trace())
			if err := tc.call(c, "ghost"); err == nil {
				t.Fatalf("%s(ghost) succeeded", tc.name)
			}
			if got := suite.Trace()[mark:]; len(got) != 0 {
				t.Fatalf("%s(ghost) left events in the trace: %v", tc.name, got)
			}
		})
	}
}

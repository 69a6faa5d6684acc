package sim

import (
	"fmt"
	"testing"
	"time"

	"vsgm/internal/randseed"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

func TestServerWorldBootConvergesClients(t *testing.T) {
	suite := spec.FullSuite(spec.WithTrace())
	w, err := NewServerWorld(ServerWorldConfig{
		Servers:          2,
		ClientsPerServer: 3,
		Latency:          FixedLatency(10 * time.Millisecond),
		NotifyLatency:    FixedLatency(2 * time.Millisecond),
		Seed:             11,
		Suite:            suite,
		WithEndpoints:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}

	want := types.NewProcSet(w.Clients()...)
	var shared types.View
	for i, cid := range w.Clients() {
		got := w.Endpoint(cid).CurrentView()
		if !got.Members.Equal(want) {
			t.Fatalf("%s stabilized in %s, want members %s", cid, got, want)
		}
		if i == 0 {
			shared = got
		} else if !got.Equal(shared) {
			t.Fatalf("%s installed %s, but %s installed %s: servers delivered different views",
				cid, got, w.Clients()[0], shared)
		}
	}

	// The whole architecture carries application traffic end to end.
	for _, cid := range w.Clients() {
		if _, err := w.Send(cid, []byte("hi")); err != nil {
			t.Fatalf("send from %s: %v", cid, err)
		}
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if err := suite.Err(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
	if err := spec.CheckLiveness(suite.Trace(), shared); err != nil {
		t.Errorf("liveness: %v", err)
	}
}

// TestServerWorldFlashCrowdAttach joins a 1k-client flash crowd in one
// virtual instant and asserts the membership absorbs it in one
// reconfiguration: a single common view containing every joiner, Self
// Inclusion and Local Monotonicity intact (spec suite), and a bounded
// number of attempts (no livelock from the burst).
func TestServerWorldFlashCrowdAttach(t *testing.T) {
	seed, _ := randseed.Pick(29)
	t.Logf("PRNG seed %d (replay: %s=%d go test -run '%s' ./internal/sim)",
		seed, randseed.EnvVar, seed, t.Name())
	suite := spec.NewSuite([]spec.Checker{spec.NewMembership()}, spec.WithTrace())
	w, err := NewServerWorld(ServerWorldConfig{
		Servers:          3,
		ClientsPerServer: 2,
		Latency:          FixedLatency(10 * time.Millisecond),
		NotifyLatency:    FixedLatency(2 * time.Millisecond),
		Seed:             seed,
		Suite:            suite,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}

	before := make(map[types.ProcID]int64)
	for _, sid := range w.Servers() {
		before[sid] = w.Server(sid).AttemptsRun()
	}

	const crowd = 1000
	joiners := make([]types.ProcID, crowd)
	for i := range joiners {
		joiners[i] = types.ProcID(fmt.Sprintf("f%04d", i))
	}
	for i, sid := range w.Servers() {
		lo, hi := i*crowd/len(w.Servers()), (i+1)*crowd/len(w.Servers())
		if err := w.AttachClients(sid, joiners[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.TriggerChange(); err != nil {
		t.Fatal(err)
	}

	// Bounded attempts: the burst warms the caches in one extra round, so
	// the whole crowd is admitted within two attempts per server.
	for _, sid := range w.Servers() {
		if got := w.Server(sid).AttemptsRun() - before[sid]; got > 2 {
			t.Errorf("server %s ran %d attempts absorbing the flash crowd, want <= 2", sid, got)
		}
	}

	// Every client's last membership view is one shared view holding the
	// full population.
	want := types.NewProcSet(w.Clients()...)
	last := make(map[types.ProcID]types.View)
	for _, ev := range suite.Trace() {
		if e, ok := ev.(spec.EMView); ok {
			last[e.P] = e.View
		}
	}
	var shared types.View
	for i, cid := range w.Clients() {
		got, ok := last[cid]
		if !ok {
			t.Fatalf("client %s never received a membership view", cid)
		}
		if !got.Members.Equal(want) {
			t.Fatalf("%s stabilized in view %d with %d members, want %d",
				cid, got.ID, got.Members.Len(), want.Len())
		}
		if i == 0 {
			shared = got
		} else if !got.Equal(shared) {
			t.Fatalf("%s installed view %d, want the shared view %d", cid, got.ID, shared.ID)
		}
	}

	if err := suite.Err(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

func TestServerWorldSteadyStateChangeIsOneAttempt(t *testing.T) {
	w, err := NewServerWorld(ServerWorldConfig{
		Servers:          3,
		ClientsPerServer: 4,
		Latency:          FixedLatency(10 * time.Millisecond),
		Seed:             13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}

	before := make(map[types.ProcID]int64)
	for _, sid := range w.Servers() {
		before[sid] = w.Server(sid).AttemptsRun()
	}
	if err := w.TriggerChange(); err != nil {
		t.Fatal(err)
	}
	for _, sid := range w.Servers() {
		if got := w.Server(sid).AttemptsRun() - before[sid]; got != 1 {
			t.Errorf("server %s ran %d attempts for a steady-state change, want 1", sid, got)
		}
	}
}

func TestServerWorldMessageCostScalesWithServersNotClients(t *testing.T) {
	// Experiment E8 in miniature: with C clients total, the client-server
	// architecture exchanges O(S^2) server messages per change, while the
	// flat architecture (every client a membership participant) exchanges
	// O(C^2).
	run := func(servers, clientsPer int) int64 {
		w, err := NewServerWorld(ServerWorldConfig{
			Servers:          servers,
			ClientsPerServer: clientsPer,
			Latency:          FixedLatency(10 * time.Millisecond),
			Seed:             17,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Boot(); err != nil {
			t.Fatal(err)
		}
		base := w.Network().Stats().Sent.Memb
		if err := w.TriggerChange(); err != nil {
			t.Fatal(err)
		}
		return w.Network().Stats().Sent.Memb - base
	}

	const clients = 24
	clientServer := run(3, clients/3) // 3 servers, 24 clients
	flat := run(clients, 1)           // every client is a server
	if clientServer*4 > flat {        // expect ~ (3*2) vs (24*23)
		t.Errorf("client-server change cost %d not ≪ flat cost %d", clientServer, flat)
	}
}

func TestServerWorldPartitionAndHeal(t *testing.T) {
	suite := spec.FullSuite(spec.WithTrace())
	w, err := NewServerWorld(ServerWorldConfig{
		Servers:          2,
		ClientsPerServer: 2,
		Latency:          FixedLatency(8 * time.Millisecond),
		NotifyLatency:    FixedLatency(2 * time.Millisecond),
		Seed:             23,
		Suite:            suite,
		WithEndpoints:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}

	// Split: each server keeps its own clients.
	sA := types.NewProcSet(w.Servers()[0])
	sB := types.NewProcSet(w.Servers()[1])
	if err := w.PartitionServers(sA, sB); err != nil {
		t.Fatal(err)
	}
	sideOf := func(sid types.ProcID) types.ProcSet {
		side := types.NewProcSet()
		for _, cid := range w.Clients() {
			if w.home[cid] == sid {
				side.Add(cid)
			}
		}
		return side
	}
	for _, sid := range w.Servers() {
		want := sideOf(sid)
		for _, cid := range want.Sorted() {
			if got := w.Endpoint(cid).CurrentView().Members; !got.Equal(want) {
				t.Fatalf("%s partitioned view members = %s, want %s", cid, got, want)
			}
		}
	}

	// Each side keeps multicasting within its partition.
	for _, cid := range w.Clients() {
		if _, err := w.Send(cid, []byte("partitioned")); err != nil {
			t.Fatalf("send from %s: %v", cid, err)
		}
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}

	// Heal: everyone merges back into a single view.
	if err := w.HealServers(); err != nil {
		t.Fatal(err)
	}
	all := types.NewProcSet(w.Clients()...)
	var merged types.View
	for i, cid := range w.Clients() {
		got := w.Endpoint(cid).CurrentView()
		if !got.Members.Equal(all) {
			t.Fatalf("%s merged view members = %s, want %s", cid, got.Members, all)
		}
		if i == 0 {
			merged = got
		} else if !got.Equal(merged) {
			t.Fatalf("merged views differ: %s vs %s", got, merged)
		}
	}
	if err := suite.Err(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

func TestWorkloadDrivesCluster(t *testing.T) {
	c, err := NewCluster(Config{
		Procs:   ProcIDs(3),
		Latency: FixedLatency(5 * time.Millisecond),
		Seed:    31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReconfigureTo(types.NewProcSet(c.Procs()...)); err != nil {
		t.Fatal(err)
	}
	stats, err := (Workload{
		PerSender:   10,
		Burst:       2,
		Interval:    3 * time.Millisecond,
		PayloadSize: 32,
	}).Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Err() != nil || stats.Failed != 0 {
		t.Fatalf("workload failures: %d (%v)", stats.Failed, stats.Err())
	}
	if stats.Sent != 30 {
		t.Fatalf("sent = %d, want 30", stats.Sent)
	}
	if got, want := c.Metrics().Delivered, int64(90); got != want {
		t.Fatalf("delivered = %d, want %d", got, want)
	}
}

func TestWorkloadToleratesBlockedSends(t *testing.T) {
	c, err := NewCluster(Config{
		Procs:           ProcIDs(3),
		Latency:         FixedLatency(10 * time.Millisecond),
		MembershipRound: 10 * time.Millisecond,
		Seed:            37,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := types.NewProcSet(c.Procs()...)
	if _, _, err := c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	// A workload spanning a reconfiguration: some sends land in the
	// blocked window and are dropped rather than failing the run.
	stats, err := (Workload{PerSender: 20, Interval: 2 * time.Millisecond, IgnoreBlocked: true}).Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	c.At(5*time.Millisecond, func() {
		if err := c.StartChange(all); err != nil {
			t.Errorf("start change: %v", err)
		}
	})
	c.At(15*time.Millisecond, func() {
		if _, err := c.DeliverView(all); err != nil {
			t.Errorf("deliver view: %v", err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("failed sends: %d (%v)", stats.Failed, stats.Err())
	}
	if stats.Blocked == 0 {
		t.Log("no sends hit the blocked window (timing-dependent); still fine")
	}
	if stats.Sent+stats.Blocked != 60 {
		t.Fatalf("sent %d + blocked %d != 60", stats.Sent, stats.Blocked)
	}
}

func TestHeartbeatDetectorDrivesMembershipAutonomously(t *testing.T) {
	suite := spec.FullSuite(spec.WithTrace())
	w, err := NewServerWorld(ServerWorldConfig{
		Servers:          2,
		ClientsPerServer: 2,
		Latency:          FixedLatency(5 * time.Millisecond),
		NotifyLatency:    FixedLatency(2 * time.Millisecond),
		Seed:             41,
		Suite:            suite,
		WithEndpoints:    true,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		interval = 20 * time.Millisecond
		timeout  = 50 * time.Millisecond
	)
	// Boot purely via heartbeats: the first ticks discover full
	// reachability and form the group, with no Boot()/SetReachable calls.
	if err := w.RunWithHeartbeats(300*time.Millisecond, interval, timeout); err != nil {
		t.Fatal(err)
	}
	all := types.NewProcSet(w.Clients()...)
	for _, cid := range w.Clients() {
		if got := w.Endpoint(cid).CurrentView().Members; !got.Equal(all) {
			t.Fatalf("after heartbeat boot, %s view members = %s, want %s", cid, got, all)
		}
	}

	// Sever connectivity only; the detectors must notice on their own and
	// each side must reconfigure down to its local clients.
	w.SetConnectivity(
		types.NewProcSet(w.Servers()[0], "c000", "c002"),
		types.NewProcSet(w.Servers()[1], "c001", "c003"),
	)
	if err := w.RunWithHeartbeats(500*time.Millisecond, interval, timeout); err != nil {
		t.Fatal(err)
	}
	sideA := types.NewProcSet("c000", "c002")
	sideB := types.NewProcSet("c001", "c003")
	for _, cid := range sideA.Sorted() {
		if got := w.Endpoint(cid).CurrentView().Members; !got.Equal(sideA) {
			t.Fatalf("partitioned %s view members = %s, want %s", cid, got, sideA)
		}
	}
	for _, cid := range sideB.Sorted() {
		if got := w.Endpoint(cid).CurrentView().Members; !got.Equal(sideB) {
			t.Fatalf("partitioned %s view members = %s, want %s", cid, got, sideB)
		}
	}

	// Heal connectivity only; heartbeats resume and the group re-merges.
	w.HealConnectivity()
	if err := w.RunWithHeartbeats(500*time.Millisecond, interval, timeout); err != nil {
		t.Fatal(err)
	}
	for _, cid := range w.Clients() {
		if got := w.Endpoint(cid).CurrentView().Members; !got.Equal(all) {
			t.Fatalf("after heal, %s view members = %s, want %s", cid, got, all)
		}
	}
	if err := suite.Err(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

// TestServerWorldDetachedClientLeavesTheTrace detaches a client with an
// end-point: the world stops observing it (no end-point, no send, no further
// event of its end-point in the trace) while the rest carries on in a view
// without it.
func TestServerWorldDetachedClientLeavesTheTrace(t *testing.T) {
	suite := spec.FullSuite(spec.WithTrace())
	w, err := NewServerWorld(ServerWorldConfig{
		Servers:          2,
		ClientsPerServer: 2,
		Latency:          FixedLatency(10 * time.Millisecond),
		NotifyLatency:    FixedLatency(2 * time.Millisecond),
		Seed:             3,
		Suite:            suite,
		WithEndpoints:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	gone := w.Clients()[0]
	if err := w.DetachClients(gone); err != nil {
		t.Fatal(err)
	}
	mark := len(suite.Trace())
	if w.Endpoint(gone) != nil {
		t.Errorf("detached %s still has an end-point", gone)
	}
	if _, err := w.Send(gone, []byte("late")); err == nil {
		t.Errorf("send from detached %s succeeded", gone)
	}
	for _, cid := range w.Clients() {
		if _, err := w.Send(cid, []byte("after")); err != nil {
			t.Fatalf("send from %s: %v", cid, err)
		}
	}
	if err := w.TriggerChange(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range suite.Trace()[mark:] {
		if ev.Proc() == gone {
			t.Errorf("trace observed detached %s: %s", gone, ev)
		}
	}
	want := types.NewProcSet(w.Clients()...)
	for _, cid := range w.Clients() {
		if got := w.Endpoint(cid).CurrentView(); !got.Members.Equal(want) {
			t.Errorf("%s stabilized in %s, want members %s", cid, got, want)
		}
	}
	if err := suite.Err(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

// TestServerWorldReplaysItsSeed: a ServerWorld execution is a function of
// its seed, with six servers whose reactions and clients whose notifications
// draw their latencies from the world's stream, through sends, three
// partitions each healed, and a heartbeat-driven stretch. Every partition
// puts two to four servers on a side, so reactions taken in Go's map order
// would differ between two runs of a seed almost every time.
func TestServerWorldReplaysItsSeed(t *testing.T) {
	run := func(seed int64) string {
		suite := spec.FullSuite(spec.WithTrace())
		w, err := NewServerWorld(ServerWorldConfig{
			Servers:          6,
			ClientsPerServer: 1,
			Seed:             seed,
			Suite:            suite,
			WithEndpoints:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		send := func(round string) {
			for _, cid := range w.Clients() {
				if _, err := w.Send(cid, []byte(round)); err != nil {
					t.Fatalf("seed %d: send from %s: %v", seed, cid, err)
				}
			}
		}
		if err := w.Boot(); err != nil {
			t.Fatal(err)
		}
		send("boot")
		s := w.Servers()
		for _, split := range [][2]types.ProcSet{
			{types.NewProcSet(s[0], s[1]), types.NewProcSet(s[2:]...)},
			{types.NewProcSet(s[0], s[2], s[4]), types.NewProcSet(s[1], s[3], s[5])},
			{types.NewProcSet(s[:4]...), types.NewProcSet(s[4:]...)},
		} {
			if err := w.PartitionServers(split[0], split[1]); err != nil {
				t.Fatal(err)
			}
			send("split")
			if err := w.HealServers(); err != nil {
				t.Fatal(err)
			}
			send("healed")
		}
		if err := w.RunWithHeartbeats(200*time.Millisecond, 20*time.Millisecond, 50*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := suite.Err(); err != nil {
			t.Fatalf("seed %d: spec violations:\n%v", seed, err)
		}
		return spec.RenderTrace(suite.Trace())
	}
	for seed := int64(1); seed <= 5; seed++ {
		if first, second := run(seed), run(seed); first != second {
			t.Errorf("seed %d: two runs rendered different traces (%d and %d bytes)", seed, len(first), len(second))
		}
	}
}

package live

// Regime 3 tests: the live deployment under fault injection. The chaos
// fabric degrades real TCP links (partitions, latency, partial writes,
// drops, duplicates) while the full spec suite checks every safety
// property, and white-box transport tests pin down the supervision
// guarantees: sends that never block, backoff without goroutine leaks, dial and
// write deadlines, and prompt teardown behind dead or stuck peers.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vsgm/internal/types"
	"vsgm/internal/wire"
	"vsgm/internal/wire/pool"
)

// waitUntil polls cond until it holds or the timeout passes.
func waitUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// releaseBody ends a receive callback's hold on its frame's body.
func releaseBody(body *pool.Buf) {
	if body != nil {
		body.Release()
	}
}

// dropFrame is the receive callback of a fabric whose inbound frames no
// test reads.
func dropFrame(_ types.ProcID, _ frame, body *pool.Buf) { releaseBody(body) }

// linkCounts is the raw-fabric tests' per-peer reader: what the owner's
// collector scrapes as vsgm_link_<name>_total{peer=...} for every name in
// linkSeries, keyed by <name> — summed over every peer when peer is "".
func linkCounts(f *fabric, peer types.ProcID) map[string]int64 {
	out := make(map[string]int64, len(linkSeries))
	for _, l := range f.linkList() {
		if peer != "" && l.peer != peer {
			continue
		}
		for _, s := range linkSeries {
			out[strings.TrimSuffix(strings.TrimPrefix(s.name, "vsgm_link_"), "_total")] += s.read(l)
		}
	}
	return out
}

// TestLiveChaosPartitionAndHeal is the live-network mirror of
// sim.TestServerWorldPartitionAndHeal: two servers with two clients each
// run over real sockets, the chaos fabric partitions the deployment
// mid-multicast, each side reconfigures down to its own component and keeps
// multicasting, the partition heals, and the group reconverges on the
// merged view — with the full spec suite checking every event throughout.
// The degraded case runs the same reconfigurations with latency and partial
// writes on every link, so view changes cross fragmented, delayed frames.
func TestLiveChaosPartitionAndHeal(t *testing.T) {
	t.Run("clean", func(t *testing.T) { partitionAndHeal(t, false) })
	t.Run("degraded", func(t *testing.T) { partitionAndHeal(t, true) })
}

func partitionAndHeal(t *testing.T, degraded bool) {
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 4})
	defer w.close()
	w.StartHeartbeats(15*time.Millisecond, 120*time.Millisecond)

	all := w.ClientSet()
	w.waitFor("initial full view", func() bool {
		for _, node := range w.Clients() {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})
	// Heal clears the degradation, so it is applied again after the heal.
	degrade := func() {
		if !degraded {
			return
		}
		for _, c := range w.chaosOf() {
			c.SetLatency(0, 2*time.Millisecond)
			c.SetPartialWrites(true)
		}
	}
	degrade()

	// Pre-partition round: everyone hears everyone.
	base := w.Delivered()
	for cid := range w.Clients() {
		w.sendRetry(cid, "pre-"+string(cid))
	}
	w.waitFor("pre-partition deliveries everywhere", func() bool {
		snap := w.Delivered()
		for cid := range w.Clients() {
			if snap[cid] < base[cid]+len(w.Clients()) {
				return false
			}
		}
		return true
	})

	// Background traffic keeps flowing through the partition onset and the
	// heal, so the faults land mid-multicast rather than between quiet
	// phases. Errors (block windows during view changes) are expected.
	stop := make(chan struct{})
	var traffic sync.WaitGroup
	for cid, node := range w.Clients() {
		cid, node := cid, node
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				node.Send([]byte(fmt.Sprintf("bg-%s-%d", cid, i)))
				time.Sleep(3 * time.Millisecond)
			}
		}()
	}

	sideA := w.sideClients(w.Servers()[0].ID())
	sideB := w.sideClients(w.Servers()[1].ID())
	w.Partition(
		types.NewProcSet(w.Servers()[0].ID()),
		types.NewProcSet(w.Servers()[1].ID()),
	)

	w.waitFor("each side to install its own view", func() bool {
		for cid, node := range w.Clients() {
			want := sideA
			if sideB.Contains(cid) {
				want = sideB
			}
			if !node.CurrentView().Members.Equal(want) {
				return false
			}
		}
		return true
	})

	// Mid-partition round: each component keeps multicasting internally.
	mid := w.Delivered()
	for cid := range w.Clients() {
		w.sendRetry(cid, "mid-"+string(cid))
	}
	w.waitFor("mid-partition deliveries within each side", func() bool {
		snap := w.Delivered()
		for cid := range w.Clients() {
			side := sideA
			if sideB.Contains(cid) {
				side = sideB
			}
			if snap[cid] < mid[cid]+side.Len() {
				return false
			}
		}
		return true
	})

	w.Heal()
	degrade()
	w.waitFor("clients to reconverge on the merged view", func() bool {
		for _, node := range w.Clients() {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})

	close(stop)
	traffic.Wait()

	// Post-heal round: the merged group is fully connected again.
	post := w.Delivered()
	for cid := range w.Clients() {
		w.sendRetry(cid, "post-"+string(cid))
	}
	w.waitFor("post-heal deliveries everywhere", func() bool {
		snap := w.Delivered()
		for cid := range w.Clients() {
			if snap[cid] < post[cid]+len(w.Clients()) {
				return false
			}
		}
		return true
	})

	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violations across partition and heal:\n%v", err)
	}

	// The degradation was observable: the partition blocks counted drops.
	var chaosDrops int64
	for _, sn := range w.Servers() {
		chaosDrops += linkCounts(sn.fabric, "")["chaos_drops"]
	}
	for _, node := range w.Clients() {
		chaosDrops += linkCounts(node.fabric, "")["chaos_drops"]
	}
	if chaosDrops == 0 {
		t.Error("partition dropped no frames — chaos blocks never engaged")
	}
}

// TestLiveGrayFailureAsymmetricPartition breaks ONE direction of the
// server-server link: srv1 can no longer hear srv0, while srv0 still hears
// srv1 perfectly. A binary detector livelocks here — srv1 proposes a view
// without srv0, srv0 keeps proposing the full view, and the one-round
// membership protocol never completes. The gray-failure reconciliation must
// instead read srv1's piggybacked reachability bitmap (which excludes
// srv0), conclude the link is useless in both directions, and converge both
// sides on ONE symmetric reconfiguration into disjoint side views — which
// must then hold without oscillating until the link heals.
func TestLiveGrayFailureAsymmetricPartition(t *testing.T) {
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 4})
	defer w.close()
	w.StartHeartbeats(15*time.Millisecond, 120*time.Millisecond)

	all := w.ClientSet()
	w.waitFor("initial full view", func() bool {
		for _, node := range w.Clients() {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})

	sideA := w.sideClients(w.Servers()[0].ID())
	sideB := w.sideClients(w.Servers()[1].ID())

	// Break srv0→srv1 only: srv1 stops hearing srv0; the reverse direction
	// stays perfect.
	w.Servers()[0].Chaos().BlockOutbound(w.Servers()[1].ID())

	w.waitFor("both sides to install symmetric disjoint views", func() bool {
		for cid, node := range w.Clients() {
			want := sideA
			if sideB.Contains(cid) {
				want = sideB
			}
			if !node.CurrentView().Members.Equal(want) {
				return false
			}
		}
		return true
	})

	// Both detectors must agree the pair is broken — neither side may keep
	// trusting the half-open link.
	srv0 := w.Server("srv0")
	srv0.mu.Lock()
	r := srv0.srv.Detector().Stats()
	srv0.mu.Unlock()
	if r.GrayDowngrades == 0 {
		t.Errorf("srv0 never gray-downgraded its half-open peer: %+v", r)
	}

	// One reconfiguration, then stability: hold the asymmetric fault for
	// many detection periods and assert nobody's view moves again. A
	// detector that flip-flops on the half-open link (hearing srv1 restores
	// it, the bitmap evidence drops it again) would churn views here.
	type snap struct{ vid types.ViewID }
	before := make(map[types.ProcID]snap)
	for cid, node := range w.Clients() {
		before[cid] = snap{node.CurrentView().ID}
	}
	time.Sleep(700 * time.Millisecond)
	for cid, node := range w.Clients() {
		if got := node.CurrentView().ID; got != before[cid].vid {
			t.Errorf("view oscillated under a stable asymmetric fault: %s moved %d -> %d",
				cid, before[cid].vid, got)
		}
	}

	// Heal the direction: hearing recovers, the advertised bitmaps
	// re-include both ends, and the reconciliation unwinds into the merged
	// view.
	w.Servers()[0].Chaos().Unblock(w.Servers()[1].ID())
	w.waitFor("merged view after the link heals", func() bool {
		for _, node := range w.Clients() {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})

	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violations across the asymmetric partition:\n%v", err)
	}
}

// TestLiveLinkFailureFeedsSuspicion pins the transport→detector wiring:
// with a heartbeat timeout far past the test's lifetime, the only way the
// surviving server can learn of its peer's death is the transport reporting
// the broken link (linkDown → Server.Suspect).
func TestLiveLinkFailureFeedsSuspicion(t *testing.T) {
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 2})
	defer w.close()
	w.StartHeartbeats(20*time.Millisecond, 60*time.Second)

	all := w.ClientSet()
	w.waitFor("initial full view", func() bool {
		for _, node := range w.Clients() {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})

	dead := w.Servers()[1]
	deadClients := w.sideClients(dead.ID())
	dead.Close()

	rest := all.Minus(deadClients)
	w.waitFor("link-failure suspicion to reconfigure the survivors", func() bool {
		for cid, node := range w.Clients() {
			if deadClients.Contains(cid) {
				continue
			}
			if !node.CurrentView().Members.Equal(rest) {
				return false
			}
		}
		return true
	})

	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

// TestLiveReconnectBackoffAndResume kills a peer's listener mid-traffic,
// asserts the supervisor backs off in place (no per-attempt goroutine
// growth), restarts the listener on the same address, and asserts delivery
// resumes with the retry counters advanced.
func TestLiveReconnectBackoffAndResume(t *testing.T) {
	cfg := TransportConfig{
		DialTimeout:  time.Second,
		WriteTimeout: time.Second,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
	}

	var mu sync.Mutex
	var got []string
	recv := func(from types.ProcID, fr frame, body *pool.Buf) {
		defer releaseBody(body)
		if fr.Msg != nil && fr.Msg.Kind == types.KindApp {
			mu.Lock()
			got = append(got, string(fr.Msg.App.Payload))
			mu.Unlock()
		}
	}
	has := func(want string) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range got {
			if s == want {
				return true
			}
		}
		return false
	}

	before := runtime.NumGoroutine()

	fa, err := newFabric("a", "127.0.0.1:0", cfg, dropFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := newFabric("b", "127.0.0.1:0", cfg, recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := fb.Addr()
	fa.SetPeers(map[types.ProcID]string{"b": addr})

	send := func(payload string, id int64) {
		fa.Send([]types.ProcID{"b"}, types.WireMsg{
			Kind: types.KindApp,
			App:  types.AppMsg{ID: id, Payload: []byte(payload)},
		})
	}

	send("first", 1)
	waitUntil(t, "first delivery", 5*time.Second, func() bool { return has("first") })

	// Kill the listener. An idle link only discovers the break on its next
	// write, so probe while waiting; the supervisor must then retry in place.
	fb.Close()
	probe := 0
	waitUntil(t, "the break to be noticed", 5*time.Second, func() bool {
		send(fmt.Sprintf("probe-%d", probe), int64(500+probe))
		probe++
		s := linkCounts(fa, "b")
		return s["dial_failures"] >= 1 || s["write_errors"] >= 1
	})

	g0 := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		send(fmt.Sprintf("down-%d", i), int64(10+i))
		time.Sleep(2 * time.Millisecond)
	}
	waitUntil(t, "backoff retries to accumulate", 5*time.Second, func() bool {
		return linkCounts(fa, "b")["retries"] >= 3
	})
	if g1 := runtime.NumGoroutine(); g1 > g0+10 {
		t.Fatalf("goroutines grew while the peer was down: %d -> %d (per-attempt leak?)", g0, g1)
	}
	if s := linkCounts(fa, "b"); s["dial_failures"] < 1 {
		t.Fatalf("expected dial failures while the listener was down, got %v", s)
	}

	// Restart the listener on the same address; delivery must resume. The
	// OS may briefly hold the port, so rebinding retries.
	var fb2 *fabric
	waitUntil(t, "rebinding the peer's address", 5*time.Second, func() bool {
		fb2, err = newFabric("b", addr, cfg, recv, nil)
		return err == nil
	})

	send("after-restart", 1000)
	waitUntil(t, "delivery to resume after restart", 10*time.Second, func() bool {
		return has("after-restart")
	})

	s := linkCounts(fa, "b")
	if s["reconnects"] < 1 {
		t.Errorf("expected >=1 reconnect, got %v", s)
	}
	if s["retries"] < 3 {
		t.Errorf("expected >=3 retries, got %v", s)
	}

	fa.Close()
	fb2.Close()
	waitUntil(t, "goroutines to settle after close", 5*time.Second, func() bool {
		return runtime.NumGoroutine() <= before+3
	})
}

// TestLiveDeadPeerNeverWedgesSend sends a burst at an address that refuses
// connections: Send must return immediately (queued behind supervised
// dialing), the dial failures must be counted, and Close must stay prompt.
func TestLiveDeadPeerNeverWedgesSend(t *testing.T) {
	cfg := TransportConfig{
		DialTimeout:  200 * time.Millisecond,
		WriteTimeout: time.Second,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
	}
	fa, err := newFabric("a", "127.0.0.1:0", cfg, dropFrame, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A port that refuses connections: bind one, note it, close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	fa.SetPeers(map[types.ProcID]string{"ghost": deadAddr})

	start := time.Now()
	for i := 0; i < 500; i++ {
		fa.Send([]types.ProcID{"ghost"}, types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: int64(i)}})
		fa.Send([]types.ProcID{"ghost"}, types.WireMsg{Kind: types.KindHeartbeat})
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("1000 sends to a dead peer took %v — Send must never block on the network", d)
	}

	waitUntil(t, "supervised dial failures", 5*time.Second, func() bool {
		s := linkCounts(fa, "ghost")
		return s["dial_failures"] >= 2 && s["retries"] >= 2
	})
	// Heartbeats coalesce in place (a newer one replaces the queued older
	// one), so they never contribute to queue growth behind a dead link.
	if s := linkCounts(fa, "ghost"); s["heartbeats_coalesced"] == 0 {
		t.Errorf("expected queued heartbeats to coalesce: %v", s)
	}

	done := make(chan struct{})
	go func() { fa.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close wedged behind a dead peer")
	}
}

// TestLiveChaosPartialWritesAndLatency fragments every socket write into
// 7-byte chunks and adds jittered latency: frames must still arrive intact
// and in order, because framing is length-prefixed and the decoder reads
// incrementally.
func TestLiveChaosPartialWritesAndLatency(t *testing.T) {
	cfg := TransportConfig{
		DialTimeout: time.Second, WriteTimeout: 2 * time.Second,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	}
	var mu sync.Mutex
	var got []string
	recv := func(from types.ProcID, fr frame, body *pool.Buf) {
		defer releaseBody(body)
		if fr.Msg != nil && fr.Msg.Kind == types.KindApp {
			mu.Lock()
			got = append(got, string(fr.Msg.App.Payload))
			mu.Unlock()
		}
	}
	fa, err := newFabric("a", "127.0.0.1:0", cfg, dropFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := newFabric("b", "127.0.0.1:0", cfg, recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fa.SetPeers(map[types.ProcID]string{"b": fb.Addr()})

	fa.Chaos().SetPartialWrites(true)
	fa.Chaos().SetLatency(time.Millisecond, 2*time.Millisecond)

	const n = 20
	for i := 0; i < n; i++ {
		fa.Send([]types.ProcID{"b"}, types.WireMsg{
			Kind: types.KindApp,
			App:  types.AppMsg{ID: int64(i), Payload: []byte(fmt.Sprintf("m-%02d", i))},
		})
	}
	waitUntil(t, "all frames to arrive through the degraded link", 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})

	mu.Lock()
	defer mu.Unlock()
	for i, s := range got {
		if want := fmt.Sprintf("m-%02d", i); s != want {
			t.Fatalf("frame %d out of order or corrupted: got %q, want %q", i, s, want)
		}
	}
	if s := linkCounts(fa, "b"); s["frames_sent"] != n {
		t.Errorf("FramesSent = %d, want %d", s["frames_sent"], n)
	}
}

// TestLiveChaosDropAndDuplicate drives the probabilistic knobs at 1.0 so
// their effect is deterministic: dup doubles every frame (counted), drop
// suppresses every frame (counted), and Heal restores faithful delivery.
func TestLiveChaosDropAndDuplicate(t *testing.T) {
	cfg := TransportConfig{
		DialTimeout: time.Second, WriteTimeout: 2 * time.Second,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	}
	var received atomic.Int64
	var dropped atomic.Int64
	recv := func(from types.ProcID, fr frame, body *pool.Buf) {
		defer releaseBody(body)
		if fr.Msg == nil || fr.Msg.Kind != types.KindApp {
			return
		}
		if bytes.HasPrefix(fr.Msg.App.Payload, []byte("drop-")) {
			dropped.Add(1)
			return
		}
		received.Add(1)
	}
	fa, err := newFabric("a", "127.0.0.1:0", cfg, dropFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := newFabric("b", "127.0.0.1:0", cfg, recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fa.SetPeers(map[types.ProcID]string{"b": fb.Addr()})

	send := func(payload string, id int64) {
		fa.Send([]types.ProcID{"b"}, types.WireMsg{
			Kind: types.KindApp,
			App:  types.AppMsg{ID: id, Payload: []byte(payload)},
		})
	}

	const n = 10
	fa.Chaos().SetDuplicateProbability(1.0)
	for i := 0; i < n; i++ {
		send(fmt.Sprintf("dup-%d", i), int64(i))
	}
	waitUntil(t, "every frame to arrive twice", 10*time.Second, func() bool {
		return received.Load() == 2*n
	})
	if s := linkCounts(fa, "b"); s["chaos_dups"] != n {
		t.Errorf("ChaosDups = %d, want %d", s["chaos_dups"], n)
	}

	fa.Chaos().Heal()
	fa.Chaos().SetDropProbability(1.0)
	for i := 0; i < n; i++ {
		send(fmt.Sprintf("drop-%d", i), int64(100+i))
	}
	waitUntil(t, "every frame to be dropped", 10*time.Second, func() bool {
		return linkCounts(fa, "b")["chaos_drops"] >= n
	})
	if got := dropped.Load(); got != 0 {
		t.Errorf("%d frames leaked through a 1.0 drop probability", got)
	}

	fa.Chaos().Heal()
	send("probe", 1000)
	waitUntil(t, "faithful delivery after Heal", 10*time.Second, func() bool {
		return received.Load() == 2*n+1
	})
	if got := dropped.Load(); got != 0 {
		t.Errorf("dropped frames resurfaced after Heal: %d", got)
	}
}

// TestLiveWriteDeadlineBreaksStuckPeer connects to a listener that accepts
// and then never reads. Once the kernel buffers fill, writes stall; the
// write deadline must break the stall, count it, surface it through onDown,
// and leave Close prompt.
func TestLiveWriteDeadlineBreaksStuckPeer(t *testing.T) {
	cfg := TransportConfig{
		DialTimeout:  time.Second,
		WriteTimeout: 250 * time.Millisecond,
		BackoffBase:  10 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
		Window:       32,
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var cmu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			cmu.Lock()
			held = append(held, c)
			cmu.Unlock()
		}
	}()
	defer func() {
		cmu.Lock()
		defer cmu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()

	var downs atomic.Int64
	fa, err := newFabric("a", "127.0.0.1:0", cfg,
		dropFrame,
		func(types.ProcID, error) { downs.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	fa.SetPeers(map[types.ProcID]string{"stuck": ln.Addr().String()})

	// Keep feeding large frames, as far as the credit window admits them,
	// until the socket buffers fill and the deadline fires (buffer sizes vary
	// by host, so a fixed burst is not enough; the window's 16 MiB is several
	// times what a peer that never reads lets the kernel hold, and bounds
	// what the test keeps resident).
	payload := bytes.Repeat([]byte("x"), 512<<10)
	big := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 1, Payload: payload}}
	stuck := []types.ProcID{"stuck"}
	waitUntil(t, "the write deadline to break the stuck link", 15*time.Second, func() bool {
		if fa.admitData(stuck, false) == nil {
			fa.Send(stuck, big)
		}
		return linkCounts(fa, "stuck")["write_errors"] >= 1
	})
	// The writer counts the error before it reports the link down, so the
	// report may still be on its way when the counter flips.
	waitUntil(t, "the link failure to be reported through onDown", 5*time.Second, func() bool {
		return downs.Load() > 0
	})

	done := make(chan struct{})
	go func() { fa.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged behind a stuck peer")
	}
}

// ---- batching vs. chaos interplay ----
//
// The coalescing writer batches many frames into one flush; these tests pin
// that fault injection still operates at frame granularity: per-frame drop,
// dup, and partition verdicts land mid-batch with exact counters, and frame
// boundaries survive arbitrarily fragmented coalesced writes.

// TestLiveChaosMidBatchDropsKeepFrameBoundaries pushes a burst through a
// link with probabilistic drops and duplicates plus partial-write
// fragmentation. Every enqueued frame must be accounted for exactly once
// (sent or chaos-dropped, dups extra), and the receiver must see an intact,
// non-decreasing subsequence — a mid-batch drop is a cleanly missing frame,
// never a corrupt boundary.
func TestLiveChaosMidBatchDropsKeepFrameBoundaries(t *testing.T) {
	cfg := TransportConfig{
		DialTimeout: time.Second, WriteTimeout: 2 * time.Second,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	}
	var mu sync.Mutex
	var got []int64
	recv := func(from types.ProcID, fr frame, body *pool.Buf) {
		defer releaseBody(body)
		if fr.Msg != nil && fr.Msg.Kind == types.KindApp {
			mu.Lock()
			got = append(got, fr.Msg.App.ID)
			mu.Unlock()
		}
	}
	fa, err := newFabric("a", "127.0.0.1:0", cfg, dropFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := newFabric("b", "127.0.0.1:0", cfg, recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fa.SetPeers(map[types.ProcID]string{"b": fb.Addr()})

	fa.Chaos().SetPartialWrites(true)
	fa.Chaos().SetDropProbability(0.3)
	fa.Chaos().SetDuplicateProbability(0.3)

	const n = 300
	for i := 0; i < n; i++ {
		fa.Send([]types.ProcID{"b"}, types.WireMsg{
			Kind: types.KindApp,
			App:  types.AppMsg{ID: int64(i), Payload: []byte(fmt.Sprintf("burst-%03d", i))},
		})
	}

	// Every frame resolved: sent or dropped, duplicates on top.
	waitUntil(t, "per-frame accounting to close", 15*time.Second, func() bool {
		s := linkCounts(fa, "b")
		return s["frames_sent"]+s["chaos_drops"] == n+s["chaos_dups"]
	})
	s := linkCounts(fa, "b")
	if s["chaos_drops"] == 0 || s["chaos_dups"] == 0 {
		t.Fatalf("probabilistic faults never engaged mid-batch: %v", s)
	}
	waitUntil(t, "every sent frame to arrive", 15*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return int64(len(got)) == s["frames_sent"]
	})

	mu.Lock()
	defer mu.Unlock()
	seen := make(map[int64]int)
	for i, id := range got {
		if i > 0 && id < got[i-1] {
			t.Fatalf("frame order violated at %d: %d after %d", i, id, got[i-1])
		}
		seen[id]++
		if seen[id] > 2 {
			t.Fatalf("frame %d delivered %d times with one dup verdict max", id, seen[id])
		}
	}
}

// TestLiveChaosOneWayPartitionMidBatch flips a one-way partition on and off
// between bursts while reverse traffic keeps flowing: the blocked window is
// dropped and counted exactly, the surviving bursts arrive intact and in
// order, and the unblocked direction never loses a frame.
func TestLiveChaosOneWayPartitionMidBatch(t *testing.T) {
	cfg := TransportConfig{
		DialTimeout: time.Second, WriteTimeout: 2 * time.Second,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	}
	var mu sync.Mutex
	var fwd []int64
	var rev atomic.Int64
	recvB := func(from types.ProcID, fr frame, body *pool.Buf) {
		defer releaseBody(body)
		if fr.Msg != nil && fr.Msg.Kind == types.KindApp {
			mu.Lock()
			fwd = append(fwd, fr.Msg.App.ID)
			mu.Unlock()
		}
	}
	recvA := func(from types.ProcID, fr frame, body *pool.Buf) {
		defer releaseBody(body)
		if fr.Msg != nil && fr.Msg.Kind == types.KindApp {
			rev.Add(1)
		}
	}
	fa, err := newFabric("a", "127.0.0.1:0", cfg, recvA, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := newFabric("b", "127.0.0.1:0", cfg, recvB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fa.SetPeers(map[types.ProcID]string{"b": fb.Addr()})
	fb.SetPeers(map[types.ProcID]string{"a": fa.Addr()})

	send := func(f *fabric, dest types.ProcID, lo, hi int) {
		for i := lo; i < hi; i++ {
			f.Send([]types.ProcID{dest}, types.WireMsg{
				Kind: types.KindApp,
				App:  types.AppMsg{ID: int64(i), Payload: []byte(fmt.Sprintf("p-%03d", i))},
			})
		}
	}

	send(fa, "b", 0, 100)
	waitUntil(t, "first burst sent", 10*time.Second, func() bool {
		return linkCounts(fa, "b")["frames_sent"] == 100
	})

	// One-way: a→b blocked, b→a untouched.
	fa.Chaos().BlockOutbound("b")
	send(fa, "b", 100, 200)
	send(fb, "a", 0, 100)
	waitUntil(t, "blocked window to be dropped and counted", 10*time.Second, func() bool {
		return linkCounts(fa, "b")["chaos_drops"] == 100
	})
	waitUntil(t, "reverse direction to stay open", 10*time.Second, func() bool {
		return rev.Load() == 100
	})

	fa.Chaos().Unblock("b")
	send(fa, "b", 200, 300)
	waitUntil(t, "post-heal burst sent", 10*time.Second, func() bool {
		return linkCounts(fa, "b")["frames_sent"] == 200
	})
	waitUntil(t, "post-heal burst delivered", 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(fwd) == 200
	})

	mu.Lock()
	defer mu.Unlock()
	for i, id := range fwd {
		want := int64(i)
		if i >= 100 {
			want = int64(i + 100) // the blocked window [100,200) is cleanly missing
		}
		if id != want {
			t.Fatalf("frame %d: got id %d, want %d (partition must not reorder or corrupt)", i, id, want)
		}
	}
	if s := linkCounts(fa, "b"); s["frames_sent"]+s["chaos_drops"] != 300 {
		t.Errorf("accounting: FramesSent=%d + ChaosDrops=%d != 300", s["frames_sent"], s["chaos_drops"])
	}
}

// TestLiveBatchCoalescingBacklogFlushesOnce pins the syscall win: a backlog
// accumulated while the peer address was unknown drains in big batches —
// far fewer flushes than frames — through partial-write fragmentation, with
// order and boundaries intact.
func TestLiveBatchCoalescingBacklogFlushesOnce(t *testing.T) {
	cfg := TransportConfig{
		DialTimeout: time.Second, WriteTimeout: 2 * time.Second,
		BackoffBase: 20 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
	}
	var mu sync.Mutex
	var got []int64
	recv := func(from types.ProcID, fr frame, body *pool.Buf) {
		defer releaseBody(body)
		if fr.Msg != nil && fr.Msg.Kind == types.KindApp {
			mu.Lock()
			got = append(got, fr.Msg.App.ID)
			mu.Unlock()
		}
	}
	fa, err := newFabric("a", "127.0.0.1:0", cfg, dropFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := newFabric("b", "127.0.0.1:0", cfg, recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fa.Chaos().SetPartialWrites(true)

	// Enqueue the whole burst before the directory knows b's address: the
	// writer can only back off, so the backlog is guaranteed to be present
	// when the first connection comes up.
	const n = 100
	for i := 0; i < n; i++ {
		fa.Send([]types.ProcID{"b"}, types.WireMsg{
			Kind: types.KindApp,
			App:  types.AppMsg{ID: int64(i), Payload: []byte(fmt.Sprintf("bl-%03d", i))},
		})
	}
	fa.SetPeers(map[types.ProcID]string{"b": fb.Addr()})

	waitUntil(t, "backlog to drain", 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})

	mu.Lock()
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("frame %d out of order after batched drain: got %d", i, id)
		}
	}
	mu.Unlock()

	s := linkCounts(fa, "b")
	if s["frames_sent"] != n {
		t.Fatalf("FramesSent = %d, want %d", s["frames_sent"], n)
	}
	if s["flushes"] == 0 || s["flushes"] > n/5 {
		t.Errorf("Flushes = %d for %d frames — coalescing should need far fewer flushes than frames", s["flushes"], n)
	}
}

// TestSlowLorisSevered drives the classic slow-loris attack against a
// receiving fabric: the attacker completes the handshake promptly, then
// starts a frame and trickles its bytes one at a time. Per-byte deadline
// re-arming would keep such a parser open forever; the read-progress budget
// (a frame must complete within two WriteTimeouts of its first byte) must
// sever the connection instead.
//
// The after-bulk variant opens with one honest large frame and, in the same
// write, the first bytes of the trickled one: they reach the victim as the
// surplus of the large frame's direct fill, and the frame they start is on the
// clock from that read like any other.
func TestSlowLorisSevered(t *testing.T) {
	t.Run("goroutine", func(t *testing.T) { slowLorisSevered(t, false) })
	t.Run("goroutine-after-bulk", func(t *testing.T) { slowLorisSevered(t, true) })
}

func slowLorisSevered(t *testing.T, afterBulk bool) {
	var downs atomic.Int64
	var received atomic.Int64
	fb, err := newFabric("victim", "127.0.0.1:0", TransportConfig{WriteTimeout: 300 * time.Millisecond},
		func(_ types.ProcID, _ frame, body *pool.Buf) {
			releaseBody(body)
			received.Add(1)
		},
		func(types.ProcID, error) { downs.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	conn, err := net.Dial("tcp", fb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	if err := enc.Encode(frame{From: "loris"}); err != nil {
		t.Fatal(err)
	}

	payload := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 1, Payload: bytes.Repeat([]byte("x"), 256)}}
	body, err := wire.EncodeFrame(frame{Msg: &payload})
	if err != nil {
		t.Fatal(err)
	}
	defer body.Release()
	full := body.Wire()

	honest := int64(0)
	if afterBulk {
		bulk := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 0, Payload: bytes.Repeat([]byte("b"), stagingSlabSize)}}
		lead, err := wire.EncodeFrame(frame{Msg: &bulk})
		if err != nil {
			t.Fatal(err)
		}
		const head = 9 // the trickled frame's length prefix and a little more
		_, err = conn.Write(append(append([]byte(nil), lead.Wire()...), full[:head]...))
		lead.Release()
		if err != nil {
			t.Fatal(err)
		}
		full, honest = full[head:], 1
		waitUntil(t, "the victim to deliver the honest large frame", 5*time.Second, func() bool {
			return received.Load() == honest
		})
	}

	// Trickle one byte at a time, well inside the budget per byte: only the
	// whole-frame budget can catch this. The victim must cut us off long before the
	// frame completes (256+ bytes at 60ms each would take ~15s).
	start := time.Now()
	severed := false
	for i := 0; i < len(full) && time.Since(start) < 10*time.Second; i++ {
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := conn.Write(full[i : i+1]); err != nil {
			severed = true
			break
		}
		time.Sleep(60 * time.Millisecond)
		// A severed TCP connection can absorb a few more writes into the
		// kernel buffer before the reset surfaces; probe with a read too.
		conn.SetReadDeadline(time.Now().Add(time.Millisecond))
		if _, err := conn.Read(make([]byte, 1)); err != nil && !isTimeout(err) {
			severed = true
			break
		}
	}
	if !severed {
		t.Fatal("slow-loris connection was never severed by the read-progress budget")
	}
	waitUntil(t, "the victim to report the severed link", 5*time.Second, func() bool {
		return downs.Load() >= 1
	})
	if got := received.Load(); got != honest {
		t.Errorf("victim delivered %d frames, want %d: the trickled frame never completed", got, honest)
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// TestTrickledSenderWithinBudgetSurvives is the other half of the slow-loris
// contract: a slow but live peer whose every frame still completes within
// the read-progress budget must NOT be severed — the per-leg deadline re-arm
// (rather than one deadline across the whole stream) is what makes both
// properties hold at once.
func TestTrickledSenderWithinBudgetSurvives(t *testing.T) {
	t.Run("goroutine", trickledSenderSurvives)
}

func trickledSenderSurvives(t *testing.T) {
	var received atomic.Int64
	fb, err := newFabric("victim", "127.0.0.1:0", TransportConfig{WriteTimeout: 2 * time.Second},
		func(_ types.ProcID, fr frame, body *pool.Buf) {
			defer releaseBody(body)
			if fr.Msg != nil && fr.Msg.Kind == types.KindApp {
				received.Add(1)
			}
		},
		func(types.ProcID, error) {})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	sender, err := newFabric("loris", "127.0.0.1:0", TransportConfig{WriteTimeout: -1},
		dropFrame,
		func(types.ProcID, error) {})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sender.SetPeers(map[types.ProcID]string{"victim": fb.Addr()})
	sender.Chaos().SetTrickle(2 * time.Millisecond)

	for i := 0; i < 3; i++ {
		sender.Send([]types.ProcID{"victim"}, types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: int64(i), Payload: []byte("slow and steady")}})
	}
	waitUntil(t, "all trickled frames to arrive intact", 15*time.Second, func() bool {
		return received.Load() == 3
	})
}

// TestFrameRunLongerThanTheBudgetSurvives: a live sender whose frames follow
// one another without a pause, every read ending inside the next frame, keeps
// its connection for many budgets. The deadline armed when the run entered
// its first frame fires one budget later; the frame then in progress is young,
// so the deadline is re-armed for it instead of severing the link.
func TestFrameRunLongerThanTheBudgetSurvives(t *testing.T) {
	var received, downs atomic.Int64
	fb, err := newFabric("victim", "127.0.0.1:0", TransportConfig{WriteTimeout: 50 * time.Millisecond},
		func(_ types.ProcID, _ frame, body *pool.Buf) {
			releaseBody(body)
			received.Add(1)
		},
		func(types.ProcID, error) { downs.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	victim, sender := net.Pipe()
	defer sender.Close()
	fb.wg.Add(1)
	go fb.readLoop(victim)
	if err := wire.NewEncoder(sender).Encode(frame{From: "runner"}); err != nil {
		t.Fatal(err)
	}

	payload := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 1, Payload: bytes.Repeat([]byte("r"), 256)}}
	body, err := wire.EncodeFrame(frame{Msg: &payload})
	if err != nil {
		t.Fatal(err)
	}
	defer body.Release()
	full := body.Wire()
	head, tail := full[:len(full)/2], full[len(full)/2:]

	// Each pipe write is one read at the victim: the tail of one frame and
	// the head of the next, 30ms apart, for three budgets (100ms each).
	const frames = 10
	if _, err := sender.Write(head); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < frames; i++ {
		time.Sleep(30 * time.Millisecond)
		if _, err := sender.Write(append(append([]byte(nil), tail...), head...)); err != nil {
			t.Fatalf("frame %d: the victim cut a run of frames that each completed within the budget: %v", i, err)
		}
	}
	if _, err := sender.Write(tail); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "every frame of the run to arrive", 5*time.Second, func() bool {
		return received.Load() == frames
	})
	if n := downs.Load(); n != 0 {
		t.Fatalf("the link went down %d times during a live run", n)
	}
}

// countingConn records the length of every Write a chaosConn makes. It embeds
// a loopback *net.TCPConn, so a vectored write passed through to it reaches
// the socket's own writev without calling Write.
type countingConn struct {
	*net.TCPConn
	writes []int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.TCPConn.Write(p)
}

// threadWriteSyscalls is the calling OS thread's count of write system calls
// (write, writev, ...), or -1 where the kernel keeps no per-thread I/O
// accounting.
func threadWriteSyscalls() int64 {
	b, err := os.ReadFile("/proc/thread-self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// TestChaosConnShapesVectoredWrites pins the link writer's socket path under
// each write-shaping setting: with partial writes on, a run of two 20-byte
// frames goes out as 7-byte writes, frame by frame; with trickle on, one byte
// per write; with neither, as a single writev that never touches Write. The
// peer must read the same 40 bytes every time.
func TestChaosConnShapesVectoredWrites(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tx, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	rx, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	chaos := newChaos()
	fake := &countingConn{TCPConn: tx.(*net.TCPConn)}
	cc := chaos.wrap(fake).(*chaosConn)
	frames := [][]byte{bytes.Repeat([]byte("a"), 20), bytes.Repeat([]byte("b"), 20)}
	want := bytes.Join(frames, nil)
	ones := make([]int, len(want))
	for i := range ones {
		ones[i] = 1
	}

	for _, tc := range []struct {
		name     string
		set      func()
		writes   []int
		syscalls int64 // -1: not asserted (a sleeping writer may wake the poller)
	}{
		{"partial writes", func() { chaos.SetPartialWrites(true) }, []int{7, 7, 6, 7, 7, 6}, 6},
		{"trickle", func() { chaos.Heal(); chaos.SetTrickle(time.Microsecond) }, ones, -1},
		{"neither", chaos.Heal, nil, 1},
	} {
		tc.set()
		fake.writes = nil
		bufs := net.Buffers(append([][]byte(nil), frames...))
		runtime.LockOSThread()
		before := threadWriteSyscalls()
		n, err := cc.WriteBuffers(&bufs)
		after := threadWriteSyscalls()
		runtime.UnlockOSThread()
		if err != nil || n != int64(len(want)) || len(bufs) != 0 {
			t.Fatalf("%s: WriteBuffers = (%d, %v) with %d buffers left, want all %d bytes consumed", tc.name, n, err, len(bufs), len(want))
		}
		if !slices.Equal(fake.writes, tc.writes) {
			t.Errorf("%s: Write calls of %v bytes, want %v", tc.name, fake.writes, tc.writes)
		}
		if tc.syscalls >= 0 && before >= 0 && after-before != tc.syscalls {
			t.Errorf("%s: %d write system calls, want %d", tc.name, after-before, tc.syscalls)
		}
		got := make([]byte, len(want))
		rx.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(rx, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: peer read %q (%v), want %q", tc.name, got, err, want)
		}
	}
}

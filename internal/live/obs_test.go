package live

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vsgm/internal/obs"
	"vsgm/internal/types"
)

// TestLiveTracedReconfigurationSingleSyncRound runs a real TCP deployment
// with a shared registry and tracer, triggers a failure-free departure
// reconfiguration, and asserts the one-round property the tracer exists to
// prove: every surviving member's completed span for the new view records
// exactly one sync round. It then closes the deployment and checks the
// frozen collectors keep every node's final numbers scrapeable.
func TestLiveTracedReconfigurationSingleSyncRound(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg)

	serverIDs := []types.ProcID{"srv0", "srv1"}
	serverSet := types.NewProcSet(serverIDs...)
	dir := make(map[types.ProcID]string)

	var servers []*ServerNode
	for _, sid := range serverIDs {
		sn, err := NewServerNode(ServerConfig{
			ID: sid, Addr: "127.0.0.1:0", Servers: serverSet,
			Transport: testTransport(), Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Close()
		servers = append(servers, sn)
		dir[sid] = sn.Addr()
	}

	clientIDs := []types.ProcID{"cli0", "cli1", "cli2"}
	clients := make(map[types.ProcID]*Node)
	for i, cid := range clientIDs {
		node, err := NewNode(NodeConfig{
			ID: cid, Addr: "127.0.0.1:0", AutoBlock: true,
			MsgIDBase: int64(i+1) * 1_000_000,
			Transport: testTransport(), Obs: reg, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		clients[cid] = node
		dir[cid] = node.Addr()
	}
	for _, sn := range servers {
		sn.SetPeers(dir)
	}
	for _, node := range clients {
		node.SetPeers(dir)
	}
	for i, cid := range clientIDs {
		servers[i%len(servers)].AddClient(cid)
	}
	for _, sn := range servers {
		sn.SetReachable(serverSet)
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	all := types.NewProcSet(clientIDs...)
	waitFor("group formation", func() bool {
		for _, node := range clients {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})

	// Failure-free departure: both servers drop the leaver, one
	// reconfiguration removes it from the view.
	leaver := clientIDs[len(clientIDs)-1]
	survivors := all.Minus(types.NewProcSet(leaver))
	for _, sn := range servers {
		sn.RemoveClient(leaver)
	}
	servers[0].Reconfigure()
	waitFor("survivor view", func() bool {
		for _, cid := range clientIDs[:len(clientIDs)-1] {
			if !clients[cid].CurrentView().Members.Equal(survivors) {
				return false
			}
		}
		return true
	})

	// The departure view's span must be complete with exactly one sync round
	// on every survivor.
	finalVid := clients[clientIDs[0]].CurrentView().ID
	spans := make(map[types.ProcID]obs.ReconfigReport)
	for _, sp := range tracer.Completed() {
		if sp.View == finalVid {
			spans[sp.Endpoint] = sp
		}
	}
	for _, cid := range clientIDs[:len(clientIDs)-1] {
		sp, ok := spans[cid]
		if !ok {
			t.Fatalf("no completed span for %s installing view %d; completed: %+v", cid, finalVid, tracer.Completed())
		}
		if sp.SyncRounds != 1 {
			t.Errorf("%s installed view %d in %d sync rounds, want exactly 1: %+v", cid, finalVid, sp.SyncRounds, sp)
		}
		if sp.Trace == 0 {
			t.Errorf("%s span carries no trace id: %+v", cid, sp)
		}
		if sp.Latency <= 0 {
			t.Errorf("%s span has non-positive latency %v", cid, sp.Latency)
		}
	}

	// Survivors that installed the same view share the trace id the servers
	// gossiped for that attempt.
	traces := make(map[uint64]bool)
	for _, sp := range spans {
		traces[sp.Trace] = true
	}
	if len(traces) != 1 {
		t.Errorf("survivors report %d distinct trace ids for one view change: %+v", len(traces), spans)
	}

	// Close everything; the frozen collectors must keep the final numbers —
	// the collector-only series of every node and server, links per peer —
	// without touching the closed nodes.
	for _, node := range clients {
		node.Close()
	}
	for _, sn := range servers {
		sn.Close()
	}
	scraped := make(map[string]bool) // "<owner> <metric>"
	var views float64
	for _, s := range reg.Snapshot().Samples {
		for _, l := range s.Labels {
			if l.Key == "node" || l.Key == "server" {
				scraped[l.Value+" "+s.Name] = true
			}
		}
		if s.Name == "vsgm_endpoint_views_installed_total" {
			views += s.Value
		}
	}
	for _, id := range append(append([]types.ProcID(nil), serverIDs...), clientIDs...) {
		want := []string{"vsgm_link_frames_sent_total", "vsgm_pool_outstanding", "vsgm_endpoint_views_installed_total"}
		if serverSet.Contains(id) {
			want[2] = "vsgm_server_attempts_total"
		}
		for _, name := range want {
			if !scraped[string(id)+" "+name] {
				t.Errorf("closed %s no longer scrapes %s", id, name)
			}
		}
	}
	if views == 0 {
		t.Error("frozen collectors report zero installed views after close")
	}
	var js strings.Builder
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"metrics"`) || strings.Contains(js.String(), `"status"`) {
		t.Errorf("/statusz rendering is not metrics and histograms alone:\n%s", js.String())
	}

	// The timeline renders each survivor's one-round proof.
	var b strings.Builder
	tracer.RenderTimeline(&b)
	for _, cid := range clientIDs[:len(clientIDs)-1] {
		want := fmt.Sprintf("%s cid=", cid)
		if !strings.Contains(b.String(), want) {
			t.Errorf("timeline missing %q:\n%s", want, b.String())
		}
	}
	if !strings.Contains(b.String(), "(sync_rounds=1)") {
		t.Errorf("timeline missing a one-round span:\n%s", b.String())
	}
}

// TestLinkSeriesArePerPeer: a link's counters scrape as one series per
// (owner, peer), so a fault on one link shows on that link alone. Three
// fabrics, only a→c chaos-blocked: a's drops move toward c and stay zero
// toward b, and its frames reach b and not c.
func TestLinkSeriesArePerPeer(t *testing.T) {
	fabrics := make(map[types.ProcID]*fabric)
	dir := make(map[types.ProcID]string)
	for _, id := range []types.ProcID{"a", "b", "c"} {
		f, err := newFabric(id, "127.0.0.1:0", testTransport(), func(types.ProcID, frame) {}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fabrics[id], dir[id] = f, f.Addr()
	}
	for _, f := range fabrics {
		f.SetPeers(dir)
	}
	fa := fabrics["a"]
	reg := obs.NewRegistry()
	reg.RegisterCollector("node/a", func() []obs.Sample { return fa.linkSamples(obs.L("node", "a")) })

	fa.Chaos().BlockOutbound("c")
	const n = 10
	for i := 0; i < n; i++ {
		fa.Send([]types.ProcID{"b", "c"}, types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: int64(i)}})
	}
	scrape := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	waitUntil(t, "a's frames sent to b and dropped toward c", 10*time.Second, func() bool {
		text := scrape()
		return strings.Contains(text, fmt.Sprintf(`vsgm_link_frames_sent_total{node="a",peer="b"} %d`, n)) &&
			strings.Contains(text, fmt.Sprintf(`vsgm_link_chaos_drops_total{node="a",peer="c"} %d`, n))
	})
	text := scrape()
	for _, want := range []string{
		`vsgm_link_chaos_drops_total{node="a",peer="b"} 0`,
		`vsgm_link_frames_sent_total{node="a",peer="c"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestLiveEveryNumberIsASeries: every number a live node reports is a
// /metrics series. After an attach and a failover, the failed-over client
// scrapes its attach state (home, epoch, identifier watermarks), its attach
// and flow-control counters and its links per peer; both servers — the
// survivor and the killed one, whose collector froze at Close — scrape the
// membership, durability and sanitizer counters, the registered-client
// gauge and their links per peer.
func TestLiveEveryNumberIsASeries(t *testing.T) {
	reg := obs.NewRegistry()
	w := newAttachWorld(t, 2, 2, attachOptions{
		tuneServer: func(_ types.ProcID, cfg *ServerConfig) { cfg.Obs = reg },
		tuneNode:   func(_ int, cfg *NodeConfig) { cfg.Obs = reg },
	})
	defer w.close()
	w.boot()
	w.startHeartbeats(20*time.Millisecond, 150*time.Millisecond)
	w.waitFullView("all clients attached and in the full view", 0)

	// cli0's rotated home list starts at srv0: killing srv0 fails it over.
	dead, survivor := w.servers[0], w.servers[1]
	orphan := w.clients["cli0"]
	floor := w.maxViewID()
	dead.Close()
	w.waitFor("all clients re-homed at the survivor", func() bool {
		for _, node := range w.clients {
			if node.Home() != survivor.ID() {
				return false
			}
		}
		return true
	})
	w.waitFullView("survivor reinstalls the full view", floor)

	type key struct{ owner, name, peer, home string }
	series := make(map[key]float64)
	for _, s := range reg.Snapshot().Samples {
		var k key
		k.name = s.Name
		for _, l := range s.Labels {
			switch l.Key {
			case "node", "server":
				k.owner = l.Value
			case "peer":
				k.peer = l.Value
			case "home":
				k.home = l.Value
			}
		}
		series[k] = s.Value
	}
	orphan.amu.Lock()
	epoch := orphan.epoch
	orphan.amu.Unlock()
	if got, ok := series[key{"cli0", "vsgm_node_epoch", "", ""}]; !ok || int64(got) != epoch || epoch < 2 {
		t.Errorf("vsgm_node_epoch{node=cli0} = %v (present %v), node epoch %d: want the failed-over epoch, 2 or more", got, ok, epoch)
	}
	if got := series[key{"cli0", "vsgm_node_home", "", "srv1"}]; got != 1 {
		t.Errorf(`vsgm_node_home{home="srv1",node="cli0"} = %v, want 1`, got)
	}
	if got := series[key{"cli0", "vsgm_node_last_vid", "", ""}]; got <= float64(floor) {
		t.Errorf("vsgm_node_last_vid{node=cli0} = %v, want above the pre-failover view %d", got, floor)
	}
	if got := series[key{"srv1", "vsgm_server_clients", "", ""}]; got != 2 {
		t.Errorf("vsgm_server_clients{server=srv1} = %v, want 2", got)
	}

	for _, name := range []string{
		"vsgm_node_last_cid", "vsgm_node_attaches_total", "vsgm_node_failovers_total",
		"vsgm_node_attach_retries_total", "vsgm_node_stale_notifies_total", "vsgm_node_sync_probes_total",
		"vsgm_node_self_clamps_total", "vsgm_node_sends_blocked_total", "vsgm_node_sends_overloaded_total",
		"vsgm_node_slow_reports_total", "vsgm_node_mem_bytes", "vsgm_node_overloaded",
	} {
		if _, ok := series[key{"cli0", name, "", ""}]; !ok {
			t.Errorf("cli0 does not scrape %s", name)
		}
	}
	for _, sid := range []string{"srv0", "srv1"} {
		for _, name := range []string{
			"vsgm_server_clients", "vsgm_server_attaches_served_total", "vsgm_server_detaches_total",
			"vsgm_server_evictions_total", "vsgm_server_overload_evictions_total", "vsgm_server_lease_evictions_total",
			"vsgm_server_reproposals_total", "vsgm_server_attempts_total", "vsgm_server_views_delivered_total",
			"vsgm_server_wal_appends_total", "vsgm_server_wal_snapshots_total", "vsgm_server_wal_errors_total",
		} {
			if _, ok := series[key{sid, name, "", ""}]; !ok {
				t.Errorf("%s does not scrape %s", sid, name)
			}
		}
		found := false
		for k := range series {
			found = found || (k.owner == sid && k.name == "vsgm_sanitize_clamps_total")
		}
		if !found {
			t.Errorf("%s does not scrape vsgm_sanitize_clamps_total", sid)
		}
	}
	for _, link := range []key{
		{"cli0", "vsgm_link_frames_sent_total", "srv1", ""},
		{"cli0", "vsgm_link_dials_total", "srv0", ""},
		{"srv1", "vsgm_link_frames_sent_total", "cli0", ""},
		{"srv0", "vsgm_link_frames_sent_total", "srv1", ""},
	} {
		if got, ok := series[link]; !ok || got == 0 {
			t.Errorf("%s{owner=%s,peer=%s} = %v (present %v), want a nonzero per-peer series", link.name, link.owner, link.peer, got, ok)
		}
	}
}

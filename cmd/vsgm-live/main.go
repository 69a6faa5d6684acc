// Command vsgm-live runs the client-server deployment over real TCP
// loopback sockets: dedicated membership servers, GCS end-points as
// concurrent client processes, live traffic, and an optional member
// departure — then reports what every client observed.
//
// Usage:
//
//	vsgm-live -servers 2 -clients 4 -msgs 10
//	vsgm-live -clients 5 -leave
//	vsgm-live -servers 2 -clients 4 -partition
//	vsgm-live -servers 2 -clients 4 -kill-server 0 -restart-server
//	vsgm-live -servers 2 -clients 4 -slow-client 3 -window 4
//
// With -partition the servers run live heartbeat failure detectors, the
// chaos fabric splits the deployment into two components mid-run, each side
// reconfigures independently, and the partition then heals back into one
// merged view. The final report includes per-node transport counters
// (dials, retries, reconnects, drops) so the degradation is observable.
//
// With -kill-server N the deployment runs in crash-recovery mode: clients
// register through the in-band attach protocol, every server journals its
// identifier state to a WAL under -state-dir, and server N is killed
// mid-deployment — its clients fail over down their home lists and traffic
// resumes. Adding -restart-server then brings the dead server back on the
// same address, recovering its records from the WAL and rejoining the
// group.
//
// With -slow-client N the deployment exercises end-to-end flow control:
// client N throttles its event consumption by -slow-delay per event, the
// small -window credit budget shuts the other clients' send windows toward
// it, their Send calls block instead of shedding frames, and after the
// configured grace the laggard is reported, evicted, and banned — the
// survivors reconfigure to a smaller live view and traffic completes. The
// report includes the flow-control counters (credits granted/consumed,
// sends blocked, overload evictions).
//
// Every run shares one observability registry and reconfiguration tracer
// (internal/obs): every number the run reports is scraped from the registry
// (so a killed server's frozen counters print without racing its shutdown),
// and the report ends with the per-endpoint reconfiguration timelines. With
// -debug-addr the same registry is served live over HTTP — Prometheus text on
// /metrics, JSON on /statusz, timelines on /tracez, and the standard pprof
// handlers — for the run's duration. See docs/OPERATIONS.md for the full
// metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/live"
	"vsgm/internal/obs"
	"vsgm/internal/sim"
	"vsgm/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vsgm-live:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vsgm-live", flag.ContinueOnError)
	var (
		nServers   = fs.Int("servers", 2, "number of membership servers")
		nClients   = fs.Int("clients", 4, "number of client end-points")
		msgs       = fs.Int("msgs", 10, "multicasts per client")
		leave      = fs.Bool("leave", false, "remove one member after the traffic phase")
		partition  = fs.Bool("partition", false, "partition and heal the servers after the traffic phase")
		killServer = fs.Int("kill-server", -1, "kill this server (by index) after the traffic phase; enables in-band attach and WAL-backed servers")
		restartSrv = fs.Bool("restart-server", false, "with -kill-server: restart the killed server from its WAL")
		stateDir   = fs.String("state-dir", "", "root directory for per-server durable state (default: a temporary directory)")
		slowClient = fs.Int("slow-client", -1, "throttle this client (by index) into a slow consumer; enables flow control with a small credit window and eviction of the laggard")
		slowDelay  = fs.Duration("slow-delay", 500*time.Millisecond, "with -slow-client: extra processing time per delivered event")
		window     = fs.Int("window", 4, "with -slow-client: per-sender credit window in frames")
		timeout    = fs.Duration("timeout", 10*time.Second, "per-phase convergence timeout")
		debugAddr  = fs.String("debug-addr", "", "serve Prometheus /metrics, JSON /statusz, /tracez and pprof on this address for the run's duration (e.g. 127.0.0.1:8080; empty disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nServers < 1 || *nClients < 1 {
		return fmt.Errorf("need at least one server and one client")
	}
	if *partition && *nServers < 2 {
		return fmt.Errorf("-partition needs at least two servers")
	}
	attachMode := *killServer >= 0
	if attachMode {
		if *killServer >= *nServers {
			return fmt.Errorf("-kill-server %d out of range (have %d servers)", *killServer, *nServers)
		}
		if *nServers < 2 {
			return fmt.Errorf("-kill-server needs at least two servers to fail over to")
		}
		if *partition || *leave {
			return fmt.Errorf("-kill-server cannot combine with -partition or -leave")
		}
	}
	if *restartSrv && !attachMode {
		return fmt.Errorf("-restart-server needs -kill-server")
	}
	slowMode := *slowClient >= 0
	if slowMode {
		if *slowClient >= *nClients {
			return fmt.Errorf("-slow-client %d out of range (have %d clients)", *slowClient, *nClients)
		}
		if *nClients < 2 {
			return fmt.Errorf("-slow-client needs at least two clients (someone must outpace the laggard)")
		}
		if *window < 1 {
			return fmt.Errorf("-window must be at least 1")
		}
		if attachMode || *partition || *leave {
			return fmt.Errorf("-slow-client cannot combine with -kill-server, -partition, or -leave")
		}
	}
	inband := attachMode || slowMode
	stateRoot := *stateDir
	if attachMode && stateRoot == "" {
		tmp, err := os.MkdirTemp("", "vsgm-live-state-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		stateRoot = tmp
	}

	// Every node shares one registry and one reconfiguration tracer; every
	// number the run prints is read from these (not the live structs), so
	// reporting on a killed server never races its shutdown.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg)
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, reg, tracer)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(out, "debug listener on %s (/metrics /statusz /tracez /debug/pprof)\n", dbg.Addr())
	}

	var (
		mu        sync.Mutex
		delivered = make(map[types.ProcID]int)
	)

	serverIDs := sim.ServerIDs(*nServers)
	serverSet := types.NewProcSet(serverIDs...)
	dir := make(map[types.ProcID]string)

	var servers []*live.ServerNode
	for _, sid := range serverIDs {
		cfg := live.ServerConfig{ID: sid, Addr: "127.0.0.1:0", Servers: serverSet, Obs: reg}
		if attachMode {
			// Crash-recovery mode: durable identifier state plus a fast
			// watchdog, so a restarted server resumes above everything it
			// issued and stalled attempts repair in demo time.
			store, err := live.NewFileStore(filepath.Join(stateRoot, string(sid)))
			if err != nil {
				return err
			}
			cfg.Store = store
			cfg.Watchdog = 25 * time.Millisecond
		}
		if slowMode {
			// Overload mode: a fast watchdog keeps the eviction
			// reconfiguration snappy, and the ban outlives the run so the
			// evicted laggard cannot re-attach and flap the view.
			cfg.Watchdog = 25 * time.Millisecond
			cfg.SlowBan = time.Minute
		}
		sn, err := live.NewServerNode(cfg)
		if err != nil {
			return err
		}
		defer sn.Close()
		servers = append(servers, sn)
		dir[sid] = sn.Addr()
	}

	clientIDs := sim.ClientIDs(*nClients)
	clients := make(map[types.ProcID]*live.Node, *nClients)
	for i, cid := range clientIDs {
		cid := cid
		cfg := live.NodeConfig{
			ID:        cid,
			Addr:      "127.0.0.1:0",
			AutoBlock: true,
			MsgIDBase: int64(i+1) * 1_000_000,
			Obs:       reg,
			Tracer:    tracer,
			OnEvent: func(ev core.Event) {
				if _, ok := ev.(core.DeliverEvent); ok {
					mu.Lock()
					delivered[cid]++
					mu.Unlock()
				}
			},
		}
		if inband {
			// In-band attachment: each client courts the servers in a
			// rotated order, so preferred homes round-robin and a dead home
			// fails over to the next server along.
			homeList := make([]types.ProcID, *nServers)
			for j := range homeList {
				homeList[j] = serverIDs[(i+j)%*nServers]
			}
			cfg.HomeServers = homeList
			cfg.AttachInterval = 40 * time.Millisecond
			cfg.AttachTimeout = 250 * time.Millisecond
		}
		if slowMode {
			// Flow-control mode: a small per-sender credit window, a short
			// slow-consumer grace so the laggard is reported in demo time,
			// and a memory budget clamping total resident bytes.
			cfg.Transport.Window = *window
			cfg.SlowConsumerGrace = 250 * time.Millisecond
			cfg.MemHighWater = 1 << 20
			if i == *slowClient {
				inner := cfg.OnEvent
				delay := *slowDelay
				cfg.OnEvent = func(ev core.Event) {
					time.Sleep(delay)
					inner(ev)
				}
			}
		}
		node, err := live.NewNode(cfg)
		if err != nil {
			return err
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
	homes := make(map[types.ProcID]types.ProcID, *nClients)
	for i, cid := range clientIDs {
		srv := servers[i%len(servers)]
		if !inband {
			srv.AddClient(cid)
		}
		homes[cid] = srv.ID()
	}

	fmt.Fprintf(out, "booting %d servers and %d clients on loopback TCP\n", *nServers, *nClients)
	switch {
	case *partition:
		// The partition scenario needs live failure detection: heartbeats
		// notice the silence across the cut and reconfigure each side.
		for _, sn := range servers {
			sn.StartHeartbeats(serverSet, 20*time.Millisecond, 150*time.Millisecond)
		}
	case inband:
		// Crash recovery and overload degradation need both: a known-good
		// starting reachability and heartbeats so membership stays live.
		for _, sn := range servers {
			sn.SetReachable(serverSet)
			sn.StartHeartbeats(serverSet, 20*time.Millisecond, 150*time.Millisecond)
		}
	default:
		for _, sn := range servers {
			sn.SetReachable(serverSet)
		}
	}
	all := types.NewProcSet(clientIDs...)
	if err := waitFor(*timeout, func() bool {
		for _, node := range clients {
			if inband && node.Home() == "" {
				return false
			}
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("group formation: %w", err)
	}
	fmt.Fprintf(out, "group %s formed\n", clients[clientIDs[0]].CurrentView())

	// In slow mode the laggard only consumes: the other clients' traffic is
	// what exhausts its credit windows, and keeping it out of the sender
	// pool makes the survivors' delivery totals deterministic after its
	// eviction.
	laggard := types.ProcID("")
	senders := clientIDs
	if slowMode {
		laggard = clientIDs[*slowClient]
		senders = make([]types.ProcID, 0, *nClients-1)
		for _, cid := range clientIDs {
			if cid != laggard {
				senders = append(senders, cid)
			}
		}
		fmt.Fprintf(out, "throttling %s: +%v per delivered event (credit window %d)\n", laggard, *slowDelay, *window)
	}
	sendAll := func() {
		fmt.Fprintf(out, "multicasting %d messages per client concurrently\n", *msgs)
		var wg sync.WaitGroup
		for _, cid := range senders {
			node := clients[cid]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < *msgs; i++ {
					// A send can race a view change; ErrBlocked simply means
					// retry after the change.
					for {
						_, err := node.Send([]byte(fmt.Sprintf("m%d", i)))
						if err == nil {
							break
						}
						if err != core.ErrBlocked {
							return
						}
						time.Sleep(time.Millisecond)
					}
				}
			}()
		}
		wg.Wait()
	}
	sendAll()

	want := *msgs * len(senders)
	if err := waitFor(*timeout, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, cid := range senders {
			if delivered[cid] < want {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("traffic phase: %w", err)
	}

	if slowMode {
		rest := all.Minus(types.NewProcSet(laggard))
		if err := waitFor(*timeout, func() bool {
			counts := scrape(reg)
			var evicted float64
			for _, sid := range serverIDs {
				evicted += counts[string(sid)]["vsgm_server_overload_evictions_total"]
			}
			if evicted == 0 {
				return false
			}
			for _, cid := range senders {
				if !clients[cid].CurrentView().Members.Equal(rest) {
					return false
				}
			}
			return true
		}); err != nil {
			return fmt.Errorf("overload eviction phase: %w", err)
		}
		counts := scrape(reg)
		var blocked int64
		for _, cid := range senders {
			blocked += int64(counts[string(cid)]["vsgm_node_sends_blocked_total"])
		}
		fmt.Fprintf(out, "slow consumer %s evicted for overload; survivors installed %s (%d sends blocked en route)\n",
			laggard, clients[senders[0]].CurrentView(), blocked)
	}

	if attachMode {
		killed := servers[*killServer]
		killedID, killedAddr := killed.ID(), killed.Addr()
		floor := maxViewID(clients)
		fmt.Fprintf(out, "killing %s mid-deployment\n", killedID)
		killed.Close()

		if err := waitFor(*timeout, func() bool {
			for _, node := range clients {
				h := node.Home()
				if h == "" || h == killedID {
					return false
				}
				v := node.CurrentView()
				if v.ID <= floor || !v.Members.Equal(all) {
					return false
				}
			}
			return true
		}); err != nil {
			return fmt.Errorf("failover phase: %w", err)
		}
		counts := scrape(reg)
		for _, cid := range clientIDs {
			fmt.Fprintf(out, "  %s failed over to %s (failovers=%d)\n", cid, clients[cid].Home(),
				int64(counts[string(cid)]["vsgm_node_failovers_total"]))
		}
		fmt.Fprintf(out, "failover complete: %s\n", clients[clientIDs[0]].CurrentView())

		// Traffic resumes through the survivors.
		sendAll()
		if err := waitFor(*timeout, func() bool {
			mu.Lock()
			defer mu.Unlock()
			for _, cid := range clientIDs {
				if delivered[cid] < 2*want {
					return false
				}
			}
			return true
		}); err != nil {
			return fmt.Errorf("post-failover traffic: %w", err)
		}
		fmt.Fprintln(out, "post-failover traffic delivered")

		if *restartSrv {
			store, err := live.NewFileStore(filepath.Join(stateRoot, string(killedID)))
			if err != nil {
				return err
			}
			sn, err := live.NewServerNode(live.ServerConfig{
				ID:       killedID,
				Addr:     killedAddr,
				Servers:  serverSet,
				Store:    store,
				Watchdog: 25 * time.Millisecond,
				Obs:      reg,
			})
			if err != nil {
				return fmt.Errorf("restart %s: %w", killedID, err)
			}
			defer sn.Close()
			servers[*killServer] = sn
			recs := sn.Records()
			rj, _ := json.Marshal(recs)
			fmt.Fprintf(out, "restarted %s on %s: recovered %d records from its WAL: %s\n",
				killedID, killedAddr, len(recs), rj)

			floor = maxViewID(clients)
			sn.SetPeers(dir)
			sn.SetReachable(serverSet)
			sn.StartHeartbeats(serverSet, 20*time.Millisecond, 150*time.Millisecond)
			if err := waitFor(*timeout, func() bool {
				for _, node := range clients {
					v := node.CurrentView()
					if v.ID <= floor || !v.Members.Equal(all) {
						return false
					}
				}
				return true
			}); err != nil {
				return fmt.Errorf("rejoin phase: %w", err)
			}
			fmt.Fprintf(out, "%s rejoined the server group: %s\n", killedID, clients[clientIDs[0]].CurrentView())
		}
	}

	if *partition {
		// Split the servers into two halves; each component is a server
		// group plus its homed clients, and every member blocks outbound
		// frames to the other side — the transport stays up, the frames
		// silently vanish, and the heartbeat detectors observe the silence.
		half := *nServers / 2
		groupA := types.NewProcSet(serverIDs[:half]...)
		groupB := types.NewProcSet(serverIDs[half:]...)
		compA, compB := groupA.Clone(), groupB.Clone()
		for cid, home := range homes {
			if groupA.Contains(home) {
				compA.Add(cid)
			} else {
				compB.Add(cid)
			}
		}
		chaos := make(map[types.ProcID]*live.Chaos)
		for _, sn := range servers {
			chaos[sn.ID()] = sn.Chaos()
		}
		for cid, node := range clients {
			chaos[cid] = node.Chaos()
		}
		union := compA.Union(compB)
		for _, comp := range []types.ProcSet{compA, compB} {
			outside := union.Minus(comp).Sorted()
			for p := range comp {
				chaos[p].BlockOutbound(outside...)
			}
		}
		fmt.Fprintf(out, "partitioning servers into %s | %s\n", groupA, groupB)

		clientsA := compA.Minus(groupA)
		clientsB := compB.Minus(groupB)
		if err := waitFor(*timeout, func() bool {
			for cid, node := range clients {
				want := clientsA
				if compB.Contains(cid) {
					want = clientsB
				}
				if !node.CurrentView().Members.Equal(want) {
					return false
				}
			}
			return true
		}); err != nil {
			return fmt.Errorf("partition phase: %w", err)
		}
		fmt.Fprintf(out, "partition observed: sides installed %s and %s\n", clientsA, clientsB)

		for _, c := range chaos {
			c.Heal()
		}
		if err := waitFor(*timeout, func() bool {
			for _, node := range clients {
				if !node.CurrentView().Members.Equal(all) {
					return false
				}
			}
			return true
		}); err != nil {
			return fmt.Errorf("heal phase: %w", err)
		}
		fmt.Fprintf(out, "healed: group reconverged on %s\n", clients[clientIDs[0]].CurrentView())
	}

	if *leave && *nClients > 1 {
		leaver := clientIDs[*nClients-1]
		fmt.Fprintf(out, "%s leaves the group\n", leaver)
		for _, sn := range servers {
			sn.RemoveClient(leaver)
		}
		servers[0].Reconfigure()
		rest := all.Minus(types.NewProcSet(leaver))
		if err := waitFor(*timeout, func() bool {
			for cid, node := range clients {
				if cid == leaver {
					continue
				}
				if !node.CurrentView().Members.Equal(rest) {
					return false
				}
			}
			return true
		}); err != nil {
			return fmt.Errorf("departure phase: %w", err)
		}
		fmt.Fprintf(out, "survivors installed %s\n", clients[clientIDs[0]].CurrentView())
	}

	mu.Lock()
	defer mu.Unlock()
	ids := append([]types.ProcID(nil), clientIDs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, cid := range ids {
		fmt.Fprintf(out, "  %s delivered %d messages\n", cid, delivered[cid])
	}

	// The report below is scraped from the observability registry rather than
	// from the node structs: a killed server's collector was frozen at Close,
	// so these reads never race a shutdown. A node's links sum over its peers.
	counts := scrape(reg)
	fmt.Fprintln(out, "transport counters:")
	printStats := func(id types.ProcID) {
		g := func(name string) int64 { return int64(counts[string(id)]["vsgm_link_"+name+"_total"]) }
		fmt.Fprintf(out, "  %s: dials=%d failures=%d retries=%d reconnects=%d frames=%d flushes=%d writeErrs=%d drops=%d creditsGranted=%d creditsConsumed=%d windowExhausted=%d\n",
			id, g("dials"), g("dial_failures"), g("retries"), g("reconnects"), g("frames_sent"), g("flushes"),
			g("write_errors"), g("queue_drops")+g("chaos_drops"),
			g("credits_granted"), g("credits_consumed"), g("window_exhausted"))
	}
	for _, sid := range serverIDs {
		printStats(sid)
	}
	for _, cid := range ids {
		printStats(cid)
	}

	// Per-endpoint reconfiguration timelines, stamped with the trace ids the
	// servers gossiped through their proposals.
	fmt.Fprintln(out, "reconfiguration trace:")
	tracer.RenderTimeline(out)
	fmt.Fprintln(out, "done")
	return nil
}

// scrape reads one registry snapshot into owner -> metric -> value, where the
// owner is the value of a series' node or server label and a metric's series
// under one owner (one per peer, for links) are summed.
func scrape(reg *obs.Registry) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, s := range reg.Snapshot().Samples {
		for _, l := range s.Labels {
			if l.Key != "node" && l.Key != "server" {
				continue
			}
			m := out[l.Value]
			if m == nil {
				m = make(map[string]float64)
				out[l.Value] = m
			}
			m[s.Name] += s.Value
		}
	}
	return out
}

// maxViewID returns the highest view identifier any client has installed.
func maxViewID(clients map[types.ProcID]*live.Node) types.ViewID {
	var max types.ViewID
	for _, node := range clients {
		if v := node.CurrentView().ID; v > max {
			max = v
		}
	}
	return max
}

func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %v", limit)
}

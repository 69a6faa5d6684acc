// Command vsgm-live runs the client-server deployment over real TCP
// loopback sockets: dedicated membership servers, GCS end-points as
// concurrent client processes, and live traffic — then reports what every
// client observed.
//
// Usage:
//
//	vsgm-live -servers 2 -clients 4 -msgs 10
//
// Every run shares one observability registry and reconfiguration tracer
// (internal/obs): every number the run reports is scraped from the registry,
// and the report ends with the per-endpoint reconfiguration timelines. With
// -debug-addr the same registry is served live over HTTP — Prometheus text on
// /metrics, JSON on /statusz, timelines on /tracez, and the standard pprof
// handlers — for the run's duration. See docs/OPERATIONS.md for the full
// metric catalogue.
//
// Faults are exercised elsewhere, with the specification checkers attached:
// the live soak (vsgm-soak -mode live) scripts partitions, crashes with WAL
// restarts and overload, and the internal/live tests cover each on its own.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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
		nServers  = fs.Int("servers", 2, "number of membership servers")
		nClients  = fs.Int("clients", 4, "number of client end-points")
		msgs      = fs.Int("msgs", 10, "multicasts per client")
		timeout   = fs.Duration("timeout", 10*time.Second, "per-phase convergence timeout")
		debugAddr = fs.String("debug-addr", "", "serve Prometheus /metrics, JSON /statusz, /tracez and pprof on this address for the run's duration (e.g. 127.0.0.1:8080; empty disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nServers < 1 || *nClients < 1 {
		return fmt.Errorf("need at least one server and one client")
	}

	// Every node shares one registry and one reconfiguration tracer; every
	// number the run prints is read from these, not the live structs.
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
		sn, err := live.NewServerNode(live.ServerConfig{ID: sid, Addr: "127.0.0.1:0", Servers: serverSet, Obs: reg})
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
		node, err := live.NewNode(live.NodeConfig{
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
		})
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
	for i, cid := range clientIDs {
		servers[i%len(servers)].AddClient(cid)
	}

	fmt.Fprintf(out, "booting %d servers and %d clients on loopback TCP\n", *nServers, *nClients)
	for _, sn := range servers {
		sn.SetReachable(serverSet)
	}
	all := types.NewProcSet(clientIDs...)
	if err := waitFor(*timeout, func() bool {
		for _, node := range clients {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("group formation: %w", err)
	}
	fmt.Fprintf(out, "group %s formed\n", clients[clientIDs[0]].CurrentView())

	fmt.Fprintf(out, "multicasting %d messages per client concurrently\n", *msgs)
	var wg sync.WaitGroup
	for _, node := range clients {
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

	want := *msgs * *nClients
	if err := waitFor(*timeout, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, cid := range clientIDs {
			if delivered[cid] < want {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("traffic phase: %w", err)
	}

	mu.Lock()
	defer mu.Unlock()
	ids := append([]types.ProcID(nil), clientIDs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, cid := range ids {
		fmt.Fprintf(out, "  %s delivered %d messages\n", cid, delivered[cid])
	}

	// A node's links sum over its peers.
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

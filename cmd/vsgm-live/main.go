// Command vsgm-live runs the client-server deployment over real TCP
// loopback sockets: dedicated membership servers, GCS end-points as
// concurrent client processes, and live traffic — then reports what every
// client observed and the verdict of the specification checkers that watched
// every event ("spec: ok", or an error naming the violation).
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
// The deployment is internal/live's loopback Deployment, the same one the
// live soak (vsgm-soak) and the internal/live tests drive through
// partitions, crashes with WAL restarts and overload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"vsgm/internal/live"
	"vsgm/internal/obs"
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

	// The nodes run the transport's default timeouts, not the deployment's
	// shrunk loopback ones.
	d, err := live.NewDeployment(live.DeploymentConfig{
		Servers: *nServers,
		Clients: *nClients,
		Server: func(_ types.ProcID, cfg *live.ServerConfig) error {
			cfg.Transport, cfg.Obs = live.TransportConfig{}, reg
			return nil
		},
		Node: func(_ int, cfg *live.NodeConfig) {
			cfg.Transport, cfg.Obs, cfg.Tracer = live.TransportConfig{}, reg, tracer
		},
	})
	if err != nil {
		return err
	}
	defer d.Close()
	clientIDs := d.ClientIDs()

	fmt.Fprintf(out, "booting %d servers and %d clients on loopback TCP\n", *nServers, *nClients)
	d.SetReachable()
	if err := d.WaitFullView("group formation", 0, *timeout); err != nil {
		return err
	}
	fmt.Fprintf(out, "group %s formed\n", d.Client(clientIDs[0]).CurrentView())

	fmt.Fprintf(out, "multicasting %d messages per client concurrently\n", *msgs)
	var wg sync.WaitGroup
	for cid := range d.Clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < *msgs; i++ {
				// A send can race a view change; SendRetry retries through it.
				if d.SendRetry(cid, fmt.Sprintf("m%d", i), *timeout) != nil {
					return
				}
			}
		}()
	}
	wg.Wait()

	want := *msgs * *nClients
	if err := d.WaitFor("the traffic phase", *timeout, func() bool {
		delivered := d.Delivered()
		for _, cid := range clientIDs {
			if delivered[cid] < want {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	delivered := d.Delivered()
	for _, cid := range clientIDs {
		fmt.Fprintf(out, "  %s delivered %d messages\n", cid, delivered[cid])
	}

	// A node's links sum over its peers.
	counts := scrape(reg)
	fmt.Fprintln(out, "transport counters:")
	for _, id := range append(d.ServerIDs(), clientIDs...) {
		g := func(name string) int64 { return int64(counts[string(id)]["vsgm_link_"+name+"_total"]) }
		fmt.Fprintf(out, "  %s: dials=%d failures=%d retries=%d reconnects=%d frames=%d flushes=%d writeErrs=%d drops=%d creditsGranted=%d creditsConsumed=%d windowExhausted=%d\n",
			id, g("dials"), g("dial_failures"), g("retries"), g("reconnects"), g("frames_sent"), g("flushes"),
			g("write_errors"), g("chaos_drops"),
			g("credits_granted"), g("credits_consumed"), g("window_exhausted"))
	}

	// Per-endpoint reconfiguration timelines, stamped with the trace ids the
	// servers gossiped through their proposals.
	fmt.Fprintln(out, "reconfiguration trace:")
	tracer.RenderTimeline(out)
	if err := d.Close(); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	fmt.Fprintln(out, "spec: ok")
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

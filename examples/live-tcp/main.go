// Live TCP deployment: the same GCS end-point and membership-server
// automata that power the deterministic simulator, here running as
// concurrent goroutines over real loopback TCP sockets — two dedicated
// membership servers serving three clients, exactly the client-server
// architecture of the paper's Figure 1.
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"vsgm"
	"vsgm/internal/live"
	"vsgm/internal/obs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		mu        sync.Mutex
		delivered = make(map[vsgm.ProcID][]string)
		views     = make(map[vsgm.ProcID]vsgm.View)
	)

	// Two membership servers.
	serverSet := vsgm.NewProcSet("srv0", "srv1")
	var servers []*live.ServerNode
	dir := make(map[vsgm.ProcID]string)
	for _, sid := range serverSet.Sorted() {
		sn, err := live.NewServerNode(live.ServerConfig{
			ID: sid, Addr: "127.0.0.1:0", Servers: serverSet,
		})
		if err != nil {
			return err
		}
		defer sn.Close()
		servers = append(servers, sn)
		dir[sid] = sn.Addr()
	}

	// Three clients, each with a GCS end-point on its own TCP listener,
	// publishing its numbers into one metrics registry.
	reg := obs.NewRegistry()
	clientIDs := []vsgm.ProcID{"alice", "bob", "carol"}
	clients := make(map[vsgm.ProcID]*live.Node, len(clientIDs))
	for i, cid := range clientIDs {
		cid := cid
		node, err := live.NewNode(live.NodeConfig{
			ID:        cid,
			Addr:      "127.0.0.1:0",
			AutoBlock: true,
			MsgIDBase: int64(i+1) * 1_000_000,
			Obs:       reg,
			OnEvent: func(ev vsgm.Event) {
				mu.Lock()
				defer mu.Unlock()
				switch e := ev.(type) {
				case vsgm.DeliverEvent:
					// A payload is valid until this handler returns;
					// formatting it makes the copy that is kept.
					delivered[cid] = append(delivered[cid],
						fmt.Sprintf("%s:%s", e.Sender, e.Msg.Payload))
				case vsgm.ViewEvent:
					views[cid] = e.View
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

	// Distribute the address directory and home the clients: alice and bob
	// at srv0, carol at srv1.
	for _, sn := range servers {
		sn.SetPeers(dir)
	}
	for _, node := range clients {
		node.SetPeers(dir)
	}
	servers[0].AddClient("alice")
	servers[0].AddClient("bob")
	servers[1].AddClient("carol")

	// The servers discover each other with heartbeat failure detectors —
	// no manual reachability wiring.
	fmt.Println("booting the membership servers (heartbeat detectors)...")
	for _, sn := range servers {
		sn.StartHeartbeats(serverSet, 10*time.Millisecond, 50*time.Millisecond)
	}

	all := vsgm.NewProcSet(clientIDs...)
	if err := waitFor(3*time.Second, func() bool {
		for _, node := range clients {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("clients did not converge: %w", err)
	}
	fmt.Printf("all clients installed %s over TCP\n\n", clients["alice"].CurrentView())

	fmt.Println("everyone multicasts concurrently:")
	var wg sync.WaitGroup
	for _, cid := range clientIDs {
		node := clients[cid]
		cid := cid
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := node.Send([]byte("hello from " + string(cid))); err != nil {
				log.Printf("send from %s: %v", cid, err)
			}
		}()
	}
	wg.Wait()

	if err := waitFor(3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, cid := range clientIDs {
			if len(delivered[cid]) < len(clientIDs) {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("messages did not propagate: %w", err)
	}

	mu.Lock()
	for _, cid := range clientIDs {
		msgs := append([]string(nil), delivered[cid]...)
		sort.Strings(msgs)
		fmt.Printf("  %s delivered %v\n", cid, msgs)
	}
	mu.Unlock()

	// The supervised transport counts per link, one registry series per
	// peer; a healthy run shows one dial per active link and no retries or
	// drops.
	fmt.Println("\ntransport counters:")
	totals := make(map[string]float64) // "<node> <metric>", summed over peers
	for _, s := range reg.Snapshot().Samples {
		for _, l := range s.Labels {
			if l.Key == "node" {
				totals[l.Value+" "+s.Name] += s.Value
			}
		}
	}
	for _, cid := range clientIDs {
		count := func(name string) int64 { return int64(totals[string(cid)+" vsgm_link_"+name+"_total"]) }
		fmt.Printf("  %s: dials=%d retries=%d frames=%d drops=%d\n", cid,
			count("dials"), count("retries"), count("frames_sent"), count("chaos_drops"))
	}

	fmt.Println("\nvirtually synchronous multicast over real sockets ✓")
	return nil
}

func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %v", limit)
}

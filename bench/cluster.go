package main

import (
	"fmt"
	"sync"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/live"
	"vsgm/internal/membership"
	"vsgm/internal/obs"
	"vsgm/internal/sim"
	"vsgm/internal/types"
)

const (
	numServers = 2
	numMembers = 4

	opDeadline    = 5 * time.Second  // group formation, drain, one view install
	closeDeadline = 15 * time.Second // tearing a whole cluster down
)

var memberIDs = sim.ClientIDs(numMembers)

// memberHooks are the callbacks one workload hangs on one member. onEvent is
// the application's view (the node's serialized event pump); the other three
// are set only in traced runs and stamp the layer boundaries from outside.
type memberHooks struct {
	onEvent       func(core.Event)
	onSend        func(types.AppMsg)
	observe       func(core.Event)
	observeNotify func(membership.Notification)
}

// liveCluster is the deployment every TCP workload runs on: numServers
// membership servers and numMembers end-points on loopback, clients
// registered out of band, no heartbeats, zero-value transport tuning.
type liveCluster struct {
	reg     *obs.Registry
	tracer  *obs.Tracer
	servers []*live.ServerNode
	nodes   []*live.Node
	ids     []types.ProcID
	homes   []*live.ServerNode // homes[i] serves ids[i]

	// View-install tracking: await arms a target membership, the members'
	// event pumps report into installed, and the last expected member to
	// install a view with exactly that membership closes done.
	mu       sync.Mutex
	target   types.ProcSet
	waiting  map[types.ProcID]bool
	done     chan struct{}
	lastView []types.View
	lastAt   time.Time
	lastBy   int // member whose install completed the target
}

// newLiveCluster builds the cluster and forms the group; the returned
// duration runs from the first listen call to the moment the last member's
// application saw the full view.
func newLiveCluster(traced bool, hooks func(i int) memberHooks) (*liveCluster, time.Duration, error) {
	start := time.Now()
	c := &liveCluster{reg: obs.NewRegistry(), lastView: make([]types.View, numMembers)}
	if traced {
		// Keep enough finished spans for a whole churn run (members × view
		// changes); the default ring of 256 would drop most of them.
		c.tracer = obs.NewTracer(c.reg, obs.WithKeep(1<<14))
	}
	serverIDs := sim.ServerIDs(numServers)
	serverSet := types.NewProcSet(serverIDs...)
	dir := make(map[types.ProcID]string)
	for _, sid := range serverIDs {
		sn, err := live.NewServerNode(live.ServerConfig{ID: sid, Addr: "127.0.0.1:0", Servers: serverSet, Obs: c.reg})
		if err != nil {
			c.close()
			return nil, 0, fmt.Errorf("server %s: %w", sid, err)
		}
		c.servers = append(c.servers, sn)
		dir[sid] = sn.Addr()
	}
	c.ids = memberIDs
	all := types.NewProcSet(c.ids...)
	c.await(all)
	for i, id := range c.ids {
		i, h := i, hooks(i)
		cfg := live.NodeConfig{
			ID:            id,
			Addr:          "127.0.0.1:0",
			AutoBlock:     true,
			MsgIDBase:     int64(i+1) * 1_000_000_000,
			Obs:           c.reg,
			Tracer:        c.tracer,
			OnSend:        h.onSend,
			Observe:       h.observe,
			ObserveNotify: h.observeNotify,
			OnEvent: func(ev core.Event) {
				if ve, ok := ev.(core.ViewEvent); ok {
					c.installed(i, ve.View)
				}
				if h.onEvent != nil {
					h.onEvent(ev)
				}
			},
		}
		node, err := live.NewNode(cfg)
		if err != nil {
			c.close()
			return nil, 0, fmt.Errorf("node %s: %w", id, err)
		}
		c.nodes = append(c.nodes, node)
		dir[id] = node.Addr()
	}
	for _, sn := range c.servers {
		sn.SetPeers(dir)
	}
	for i, node := range c.nodes {
		node.SetPeers(dir)
		home := c.servers[i%len(c.servers)]
		home.AddClient(c.ids[i])
		c.homes = append(c.homes, home)
	}
	for _, sn := range c.servers {
		sn.SetReachable(serverSet)
	}
	at, ok := c.waitInstalled(opDeadline)
	if !ok {
		return c, 0, fmt.Errorf("group of %d not formed within %v", numMembers, opDeadline)
	}
	return c, at.Sub(start), nil
}

// await arms the install tracker: every member of target must install a view
// whose membership is exactly target.
func (c *liveCluster) await(target types.ProcSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.target = target
	c.waiting = make(map[types.ProcID]bool, target.Len())
	for p := range target {
		c.waiting[p] = true
	}
	c.done = make(chan struct{})
}

func (c *liveCluster) installed(i int, v types.View) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastView[i] = v
	if c.waiting[c.ids[i]] && v.Members.Equal(c.target) {
		delete(c.waiting, c.ids[i])
		if len(c.waiting) == 0 {
			c.lastAt, c.lastBy = now, i
			close(c.done)
		}
	}
}

// waitInstalled blocks until the armed target is installed everywhere and
// returns the instant the last member's application saw it; lastBy then
// names that member.
func (c *liveCluster) waitInstalled(limit time.Duration) (time.Time, bool) {
	c.mu.Lock()
	done := c.done
	c.mu.Unlock()
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.lastAt, true
	case <-t.C:
		return time.Time{}, false
	}
}

// sameView reports whether the given members all ended in one view.
func (c *liveCluster) sameView(members []int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	first := c.lastView[members[0]]
	for _, i := range members[1:] {
		if v := c.lastView[i]; v.ID != first.ID || !v.Members.Equal(first.Members) {
			return fmt.Errorf("%s ended in %s but %s in %s", c.ids[members[0]], first, c.ids[i], v)
		}
	}
	return nil
}

// close tears the cluster down; the caller bounds it with closeDeadline.
func (c *liveCluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// within runs fn and reports whether it returned before the deadline. A fn
// that never returns leaks its goroutine; callers treat that as fatal.
func within(limit time.Duration, fn func()) bool {
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// counters reads the cluster's registry by metric name, summing a name's
// series across nodes. Reading by name keeps the benchmark compiling when a
// layer renames or drops a stats struct; a series that is gone reads absent.
type counters map[string]float64

func snapshotCounters(reg *obs.Registry) counters {
	out := make(counters)
	for _, s := range reg.Snapshot().Samples {
		out[s.Name] += s.Value
	}
	return out
}

// since returns how much every series grew from an earlier snapshot.
func (c counters) since(before counters) counters {
	out := make(counters, len(c))
	for name, v := range c {
		out[name] = v - before[name]
	}
	return out
}

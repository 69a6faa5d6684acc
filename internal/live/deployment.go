package live

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/membership"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// The loopback timings a Deployment runs with, shrunk so that fault
// injection, lossy-trunk attempts and failover all resolve in test time. The
// watchdog and the attach intervals apply to in-band (Attach) deployments
// only; out-of-band servers keep the package's default watchdog.
const (
	loopbackWatchdog       = 25 * time.Millisecond
	loopbackAttachInterval = 40 * time.Millisecond
	loopbackAttachTimeout  = 250 * time.Millisecond
)

func loopbackTransport() TransportConfig {
	return TransportConfig{DialTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second,
		BackoffBase: 10 * time.Millisecond, BackoffMax: 250 * time.Millisecond}
}

// DeploymentConfig sizes a loopback Deployment.
type DeploymentConfig struct {
	// Servers (at least one) and Clients size the deployment: servers srv0,
	// srv1, ... and initial clients cli0, cli1, ...
	Servers, Clients int
	// Attach homes clients in band: client i lists every server as its
	// HomeServers, rotated to start at server i mod Servers, and registers
	// itself through the attach protocol. Otherwise client i is registered
	// out of band (AddClient) at server i mod Servers.
	Attach bool
	// Server and Node, when set, adjust each server's and each client's
	// configuration before it starts: stores, leases, budgets, registry,
	// tracer. Server runs again for every restart, and its error aborts
	// the start; Node's index is the client's creation order. The spec
	// collector is installed after Node runs and chains to any Observe,
	// OnSend or ObserveNotify it set.
	Server func(sid types.ProcID, cfg *ServerConfig) error
	Node   func(i int, cfg *NodeConfig)
}

// Deployment is the live counterpart of sim.Cluster: membership servers and
// client end-points on loopback TCP, every client event fed into one spec
// suite through the synchronous Observe/ObserveNotify/OnSend hooks — the
// pump-based OnEvent can report an event after a fast peer has already
// reacted to it, and the online checkers need causal arrival order. The
// methods that change the deployment — AddClients, CloseClient,
// RestartServer, SetReachable, StartHeartbeats and Close — must not run
// concurrently with any other method; the rest only read it and may.
type Deployment struct {
	cfg       DeploymentConfig
	serverIDs []types.ProcID
	serverSet types.ProcSet
	servers   map[types.ProcID]*ServerNode
	clients   map[types.ProcID]*Node
	homes     map[types.ProcID]types.ProcID // the server client i was homed at first
	created   int                           // clients ever started
	started   []*fabric                     // every node's fabric, for the pool audit

	reachable           bool
	hbInterval, hbLimit time.Duration

	mu    sync.Mutex
	suite *spec.Suite
	dlvrs map[types.ProcID]int
}

// NewDeployment starts the servers and clients and wires their directories;
// the servers learn who is reachable from SetReachable or StartHeartbeats.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("live: a deployment needs at least one server, got %d", cfg.Servers)
	}
	d := &Deployment{
		cfg:     cfg,
		servers: make(map[types.ProcID]*ServerNode),
		clients: make(map[types.ProcID]*Node),
		homes:   make(map[types.ProcID]types.ProcID),
		suite:   spec.FullSuite(spec.WithTrace()),
		dlvrs:   make(map[types.ProcID]int),
	}
	for i := 0; i < cfg.Servers; i++ {
		d.serverIDs = append(d.serverIDs, types.ProcID(fmt.Sprintf("srv%d", i)))
	}
	d.serverSet = types.NewProcSet(d.serverIDs...)
	for _, sid := range d.serverIDs {
		if err := d.startServer(sid, "127.0.0.1:0"); err != nil {
			d.Close()
			return nil, err
		}
	}
	ids := make([]types.ProcID, cfg.Clients)
	for i := range ids {
		ids[i] = types.ProcID(fmt.Sprintf("cli%d", i))
	}
	if err := d.AddClients(ids...); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *Deployment) startServer(sid types.ProcID, addr string) error {
	cfg := ServerConfig{
		ID:        sid,
		Addr:      addr,
		Servers:   d.serverSet,
		Transport: loopbackTransport(),
	}
	if d.cfg.Attach {
		cfg.Watchdog = loopbackWatchdog
	}
	if d.cfg.Server != nil {
		if err := d.cfg.Server(sid, &cfg); err != nil {
			return err
		}
	}
	sn, err := NewServerNode(cfg)
	if err != nil {
		if cfg.Store != nil {
			cfg.Store.Close()
		}
		return err
	}
	d.servers[sid] = sn
	d.started = append(d.started, sn.fabric)
	return nil
}

// AddClients starts one client per id, homed like the initial ones by its
// creation order, and extends every node's directory to them.
func (d *Deployment) AddClients(ids ...types.ProcID) error {
	n := len(d.serverIDs)
	for _, cid := range ids {
		i := d.created
		d.created++
		cfg := NodeConfig{
			ID:        cid,
			Addr:      "127.0.0.1:0",
			AutoBlock: true,
			MsgIDBase: int64(i+1) * 1_000_000,
			Transport: loopbackTransport(),
		}
		if d.cfg.Attach {
			for j := 0; j < n; j++ {
				cfg.HomeServers = append(cfg.HomeServers, d.serverIDs[(i+j)%n])
			}
			cfg.AttachInterval, cfg.AttachTimeout = loopbackAttachInterval, loopbackAttachTimeout
		}
		if d.cfg.Node != nil {
			d.cfg.Node(i, &cfg)
		}
		d.collect(cid, &cfg)
		node, err := NewNode(cfg)
		if err != nil {
			return err
		}
		d.clients[cid], d.homes[cid] = node, d.serverIDs[i%n]
		d.started = append(d.started, node.fabric)
	}
	d.setPeers()
	if !d.cfg.Attach {
		for _, cid := range ids {
			d.servers[d.homes[cid]].AddClient(cid)
		}
	}
	return nil
}

// collect chains the deployment's spec collector in front of cfg's
// synchronous hooks.
func (d *Deployment) collect(p types.ProcID, cfg *NodeConfig) {
	observe, onSend, notify := cfg.Observe, cfg.OnSend, cfg.ObserveNotify
	autoBlockOK := cfg.AutoBlock
	cfg.Observe = func(ev core.Event) {
		d.mu.Lock()
		spec.EndpointActions(p, ev, autoBlockOK, d.recordLocked)
		d.mu.Unlock()
		if observe != nil {
			observe(ev)
		}
	}
	cfg.OnSend = func(m types.AppMsg) {
		d.Record(spec.ESend{P: p, MsgID: m.ID})
		if onSend != nil {
			onSend(m)
		}
	}
	cfg.ObserveNotify = func(n membership.Notification) {
		d.Record(spec.MbrshpAction(p, n.Kind == membership.NotifyView, n.StartChange, n.View))
		if notify != nil {
			notify(n)
		}
	}
}

// Record feeds events to the spec suite as if a node had reported them —
// for what the nodes cannot report themselves, such as a crash — counting
// deliveries.
func (d *Deployment) Record(evs ...spec.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ev := range evs {
		d.recordLocked(ev)
	}
}

// recordLocked is Record for one event with d.mu held.
func (d *Deployment) recordLocked(ev spec.Event) {
	if e, ok := ev.(spec.EDeliver); ok {
		d.dlvrs[e.P]++
	}
	d.suite.OnEvent(ev)
}

// setPeers hands every node the directory of every current node.
func (d *Deployment) setPeers() {
	dir := make(map[types.ProcID]string, len(d.servers)+len(d.clients))
	for sid, sn := range d.servers {
		dir[sid] = sn.Addr()
	}
	for cid, node := range d.clients {
		dir[cid] = node.Addr()
	}
	for _, sn := range d.servers {
		sn.SetPeers(dir)
	}
	for _, node := range d.clients {
		node.SetPeers(dir)
	}
}

// SetReachable boots the membership statically: every server takes every
// server as reachable.
func (d *Deployment) SetReachable() {
	d.reachable = true
	for _, sn := range d.servers {
		sn.SetReachable(d.serverSet)
	}
}

// StartHeartbeats runs every server's heartbeat failure detector over the
// server set.
func (d *Deployment) StartHeartbeats(interval, timeout time.Duration) {
	d.hbInterval, d.hbLimit = interval, timeout
	for _, sn := range d.servers {
		sn.StartHeartbeats(d.serverSet, interval, timeout)
	}
}

// ServerIDs lists the servers in index order.
func (d *Deployment) ServerIDs() []types.ProcID { return append([]types.ProcID(nil), d.serverIDs...) }

// Server returns the current instance of server sid (closed if the caller
// killed it and has not restarted it).
func (d *Deployment) Server(sid types.ProcID) *ServerNode { return d.servers[sid] }

// Servers returns the current server instances in index order.
func (d *Deployment) Servers() []*ServerNode {
	out := make([]*ServerNode, len(d.serverIDs))
	for i, sid := range d.serverIDs {
		out[i] = d.servers[sid]
	}
	return out
}

// Client returns client cid's node, nil once CloseClient dropped it.
func (d *Deployment) Client(cid types.ProcID) *Node { return d.clients[cid] }

// Clients returns the current clients by identifier.
func (d *Deployment) Clients() map[types.ProcID]*Node { return maps.Clone(d.clients) }

// ClientIDs lists the current clients in sorted order.
func (d *Deployment) ClientIDs() []types.ProcID { return d.ClientSet().Sorted() }

// ClientSet is the set of current clients.
func (d *Deployment) ClientSet() types.ProcSet {
	s := types.NewProcSet()
	for cid := range d.clients {
		s.Add(cid)
	}
	return s
}

// CloseClient closes client cid without ceremony and drops it from the
// deployment. Servers that still hold its registration keep it.
func (d *Deployment) CloseClient(cid types.ProcID) {
	d.clients[cid].Close()
	delete(d.clients, cid)
}

// RestartServer closes server sid if it still runs and starts a fresh
// instance on its old address — from whatever store the Server hook hands
// it — which rejoins the directory, the static reachability and the
// heartbeats the deployment has.
func (d *Deployment) RestartServer(sid types.ProcID) error {
	old := d.servers[sid]
	old.Close()
	if err := d.startServer(sid, old.Addr()); err != nil {
		return err
	}
	sn := d.servers[sid]
	d.setPeers()
	if d.reachable {
		sn.SetReachable(d.serverSet)
	}
	if d.hbInterval > 0 {
		sn.StartHeartbeats(d.serverSet, d.hbInterval, d.hbLimit)
	}
	return nil
}

// HomeOf is the server client cid is homed at now: its attach-protocol home,
// or in out-of-band mode the server that registered it. An attach-mode
// client between homes has none.
func (d *Deployment) HomeOf(cid types.ProcID) types.ProcID {
	if h := d.clients[cid].Home(); h != "" || d.cfg.Attach {
		return h
	}
	return d.homes[cid]
}

// Partition splits the deployment into components, one per server group
// plus the clients homed at it now (a client with no home rides with the
// first group), and has every node block outbound frames to every node
// outside its component. It returns the components.
func (d *Deployment) Partition(groups ...types.ProcSet) []types.ProcSet {
	comps, all := make([]types.ProcSet, len(groups)), types.NewProcSet()
	for i, g := range groups {
		comps[i] = g.Clone()
		all = all.Union(g)
	}
	for cid := range d.clients {
		i := 0
		for j, g := range groups {
			if g.Contains(d.HomeOf(cid)) {
				i = j
				break
			}
		}
		comps[i].Add(cid)
		all.Add(cid)
	}
	chaos := d.chaosOf()
	for _, comp := range comps {
		outside := all.Minus(comp).Sorted()
		for p := range comp {
			if c := chaos[p]; c != nil {
				c.BlockOutbound(outside...)
			}
		}
	}
	return comps
}

// Heal lifts every chaos fault on every node.
func (d *Deployment) Heal() {
	for _, c := range d.chaosOf() {
		c.Heal()
	}
}

func (d *Deployment) chaosOf() map[types.ProcID]*Chaos {
	out := make(map[types.ProcID]*Chaos, len(d.servers)+len(d.clients))
	for sid, sn := range d.servers {
		out[sid] = sn.Chaos()
	}
	for cid, node := range d.clients {
		out[cid] = node.Chaos()
	}
	return out
}

// WaitFor polls cond until it holds or timeout passes.
func (d *Deployment) WaitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
}

// WaitFullView waits until every client has a home and has installed a view
// over every client with an id above floor. On timeout the error carries
// each client's home and view and each server's reachability and attempt
// counters, so it shows who was stuck, not just that someone was.
func (d *Deployment) WaitFullView(what string, floor types.ViewID, timeout time.Duration) error {
	all := d.ClientSet()
	err := d.WaitFor(what, timeout, func() bool {
		for cid, node := range d.clients {
			if v := node.CurrentView(); d.HomeOf(cid) == "" || v.ID <= floor || !v.Members.Equal(all) {
				return false
			}
		}
		return true
	})
	if err == nil {
		return nil
	}
	var b strings.Builder
	for _, cid := range d.ClientIDs() {
		v := d.clients[cid].CurrentView()
		fmt.Fprintf(&b, " %s[home=%s vid=%d members=%d]", cid, d.HomeOf(cid), v.ID, v.Members.Len())
	}
	for _, sid := range d.serverIDs {
		sn := d.servers[sid]
		sn.mu.Lock()
		attempts, views, repro, evict := sn.srv.AttemptsRun(), sn.srv.ViewsDelivered(), sn.srv.Reproposals(), sn.srv.Evictions()
		sn.mu.Unlock()
		fmt.Fprintf(&b, " %s[reach=%s clients=%d attempts=%d views=%d repro=%d evict=%d]",
			sid, sn.Reachable(), sn.Clients().Len(), attempts, views, repro, evict)
	}
	return fmt.Errorf("%v (floor %d, want %d members);%s", err, floor, all.Len(), b.String())
}

// SendRetry multicasts payload from cid, retrying through the block windows
// of view changes until timeout.
func (d *Deployment) SendRetry(cid types.ProcID, payload string, timeout time.Duration) error {
	node := d.clients[cid]
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		_, err := node.Send([]byte(payload))
		if err == nil {
			return nil
		}
		if err != core.ErrBlocked {
			return fmt.Errorf("send from %s failed: %v", cid, err)
		}
		time.Sleep(3 * time.Millisecond)
	}
	return fmt.Errorf("send from %s still blocked after %v", cid, timeout)
}

// inOneFullView reports whether every client has installed the same view
// over every client: the precondition for a within-view traffic round.
func (d *Deployment) inOneFullView() bool {
	all, key := d.ClientSet(), ""
	for _, node := range d.clients {
		v := node.CurrentView()
		if !v.Members.Equal(all) || (key != "" && v.Key() != key) {
			return false
		}
		key = v.Key()
	}
	return len(d.clients) > 0
}

// TrafficRound waits until all clients agree on one full view, has every
// client multicast once, and waits until every client has delivered the
// whole round. Each of the three steps gets timeout. The round is sent once:
// a message lost in the view it was sent in fails the round.
func (d *Deployment) TrafficRound(tag string, timeout time.Duration) error {
	if err := d.WaitFor("clients to agree on one full view", timeout, d.inOneFullView); err != nil {
		return fmt.Errorf("%s traffic round: %v", tag, err)
	}
	base, ids := d.Delivered(), d.ClientIDs()
	for _, cid := range ids {
		if err := d.SendRetry(cid, tag+"-"+string(cid), timeout); err != nil {
			return err
		}
	}
	return d.WaitFor(tag+" traffic delivered everywhere", timeout, func() bool {
		snap := d.Delivered()
		for _, cid := range ids {
			if snap[cid]-base[cid] < len(ids) {
				return false
			}
		}
		return true
	})
}

// MaxViewID is the highest view id any client has installed.
func (d *Deployment) MaxViewID() types.ViewID {
	var max types.ViewID
	for _, node := range d.clients {
		if v := node.CurrentView().ID; v > max {
			max = v
		}
	}
	return max
}

// Delivered snapshots each client's count of delivered messages.
func (d *Deployment) Delivered() map[types.ProcID]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return maps.Clone(d.dlvrs)
}

// Trace copies the events the spec suite has seen so far.
func (d *Deployment) Trace() []spec.Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.suite.Trace())
}

// SpecErr is the spec suite's verdict so far.
func (d *Deployment) SpecErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suite.Err()
}

// Close closes every node and returns the spec suite's verdict joined with
// the pool audit: every node the deployment ever started must have given
// back all its pooled receive buffers, or a frame body (or a staging slab)
// was delivered without a matching Release. Closing again repeats both.
func (d *Deployment) Close() error {
	for _, node := range d.clients {
		node.Close()
	}
	for _, sn := range d.servers {
		sn.Close()
	}
	errs := []error{d.SpecErr()}
	for _, f := range d.started {
		// Close has joined every loop, so the count is already final; the
		// brief wait only absorbs pump goroutines that Close let finish.
		if d.WaitFor("", time.Second, func() bool { return f.PoolStats().Outstanding == 0 }) != nil {
			errs = append(errs, fmt.Errorf("%s: %d pooled buffers still outstanding after Close (leaked reference)", f.id, f.PoolStats().Outstanding))
		}
	}
	return errors.Join(errs...)
}

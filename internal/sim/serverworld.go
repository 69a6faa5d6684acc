package sim

import (
	"fmt"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/corfifo"
	"vsgm/internal/membership"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// ServerWorldConfig parameterizes a simulation of the full client-server
// architecture: dedicated membership servers running the one-round
// membership algorithm among themselves, each serving a set of clients.
type ServerWorldConfig struct {
	// Servers is the number of dedicated membership servers.
	Servers int
	// ClientsPerServer is the number of clients homed at each server.
	ClientsPerServer int
	// Latency models server-to-server and client-to-client link latency.
	Latency LatencyModel
	// NotifyLatency models server-to-client notification latency; defaults
	// to Latency. FixedLatency(0) models clients co-located with their
	// server.
	NotifyLatency LatencyModel
	// Seed seeds the RNG.
	Seed int64
	// Suite receives the trace; optional.
	Suite *spec.Suite
	// WithEndpoints attaches a real GCS end-point to every client, so the
	// whole paper architecture (Figure 1) runs end to end. Without it the
	// world only counts notifications, which suffices for the scalability
	// experiment.
	WithEndpoints bool
}

// ServerWorld is the simulated client-server deployment.
type ServerWorld struct {
	harness

	cfg       ServerWorldConfig
	servers   map[types.ProcID]*membership.Server
	serverIDs []types.ProcID
	clients   []types.ProcID
	home      map[types.ProcID]types.ProcID
	// detached holds the clients whose end-point DetachClients stopped, so
	// that one attached again is a recovery, not a new process.
	detached types.ProcSet

	// epSeq numbers every end-point ever created, so message-id bases stay
	// unique across attach/detach churn.
	epSeq int

	// Notifications counts server-to-client membership notifications.
	Notifications int64
}

// ServerIDs returns n server identifiers s00, s01, ...
func ServerIDs(n int) []types.ProcID {
	out := make([]types.ProcID, n)
	for i := range out {
		out[i] = types.ProcID(fmt.Sprintf("s%02d", i))
	}
	return out
}

// ClientIDs returns n client identifiers c000, c001, ...
func ClientIDs(n int) []types.ProcID {
	out := make([]types.ProcID, n)
	for i := range out {
		out[i] = types.ProcID(fmt.Sprintf("c%03d", i))
	}
	return out
}

// NewServerWorld builds the deployment: servers fully connected, each with
// its local clients registered.
func NewServerWorld(cfg ServerWorldConfig) (*ServerWorld, error) {
	if cfg.Servers <= 0 || cfg.ClientsPerServer <= 0 {
		return nil, fmt.Errorf("sim: server world needs at least one server and one client per server")
	}
	if cfg.Latency == nil {
		cfg.Latency = DefaultLatency()
	}
	if cfg.NotifyLatency == nil {
		cfg.NotifyLatency = cfg.Latency
	}

	serverIDs := ServerIDs(cfg.Servers)
	clients := ClientIDs(cfg.Servers * cfg.ClientsPerServer)
	procs := append(append([]types.ProcID(nil), serverIDs...), clients...)

	w := &ServerWorld{
		harness:   newHarness(newEngine(procs, cfg.Latency, cfg.Seed), cfg.Suite, cfg.NotifyLatency, true),
		cfg:       cfg,
		servers:   make(map[types.ProcID]*membership.Server, cfg.Servers),
		serverIDs: serverIDs,
		clients:   clients,
		home:      make(map[types.ProcID]types.ProcID, len(clients)),
		detached:  types.NewProcSet(),
	}

	serverSet := types.NewProcSet(serverIDs...)
	for _, sid := range serverIDs {
		srv, err := membership.NewServer(sid, serverSet, w.net.Handle(sid), w.notify)
		if err != nil {
			return nil, err
		}
		w.servers[sid] = srv
		w.net.Register(sid, corfifo.HandlerFunc(func(from types.ProcID, m types.WireMsg) {
			srv.HandleMessage(from, m, virtualTime(w.Now()))
		}))
	}
	for i, cid := range clients {
		if err := w.addClient(cid, serverIDs[i%cfg.Servers]); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// addClient homes client cid at server sid and, with WithEndpoints, gives it
// a GCS end-point on the network. A client whose end-point was detached
// before starts a fresh one from its initial state: recover_p (Section 8).
func (w *ServerWorld) addClient(cid, sid types.ProcID) error {
	w.home[cid] = sid
	w.servers[sid].AddClient(cid)
	if !w.cfg.WithEndpoints {
		return nil
	}
	if w.detached.Contains(cid) {
		w.detached.Remove(cid)
		w.specEvent(spec.ERecover{P: cid})
	}
	w.epSeq++
	ep, err := newEndpoint(Config{Level: core.LevelGCS}, cid, w.epSeq, w.net.Handle(cid))
	if err != nil {
		return err
	}
	w.add(cid, ep)
	return nil
}

// Servers returns the server identifiers.
func (w *ServerWorld) Servers() []types.ProcID {
	return append([]types.ProcID(nil), w.serverIDs...)
}

// Clients returns the client identifiers.
func (w *ServerWorld) Clients() []types.ProcID {
	return append([]types.ProcID(nil), w.clients...)
}

// Server returns the membership server with the given id.
func (w *ServerWorld) Server(id types.ProcID) *membership.Server { return w.servers[id] }

// Endpoint returns the GCS end-point attached to client id (nil without
// WithEndpoints).
func (w *ServerWorld) Endpoint(id types.ProcID) *core.Endpoint {
	if m := w.members[id]; m != nil {
		return m.node.(*core.Endpoint)
	}
	return nil
}

// AttachClients registers a batch of clients at the given home server in one
// virtual instant — a flash crowd. The caller triggers a reconfiguration
// (TriggerChange) to admit the batch into a view; a single change suffices
// however large the batch is. No identifier may be attached already; one
// detached before comes back under its old identity. With WithEndpoints set,
// each client gets a GCS end-point wired to the network like the boot-time
// ones.
func (w *ServerWorld) AttachClients(sid types.ProcID, ids []types.ProcID) error {
	if _, ok := w.servers[sid]; !ok {
		return fmt.Errorf("sim: no server %s", sid)
	}
	for _, cid := range ids {
		if _, dup := w.home[cid]; dup {
			return fmt.Errorf("sim: client %s already attached", cid)
		}
	}
	w.addProcs(ids...)
	for _, cid := range ids {
		w.clients = append(w.clients, cid)
		if err := w.addClient(cid, sid); err != nil {
			return err
		}
	}
	return nil
}

// DetachClients deregisters clients from their home servers (a leave or
// churn storm). The caller triggers a reconfiguration to exclude them;
// retained server-side records keep their identifiers monotone should they
// ever return. A detached end-point stops as in a crash, and the suite is
// told so: it no longer owes the views and messages of the group it left.
func (w *ServerWorld) DetachClients(ids ...types.ProcID) error {
	for _, cid := range ids {
		sid, ok := w.home[cid]
		if !ok {
			return fmt.Errorf("sim: client %s is not attached", cid)
		}
		w.servers[sid].RemoveClient(cid)
		delete(w.home, cid)
		if w.members[cid] != nil {
			w.specEvent(spec.ECrash{P: cid})
			w.detached.Add(cid)
		}
		// What the network still carries to it is dropped, as for a crash.
		w.net.Unregister(cid)
		delete(w.members, cid)
		for i, c := range w.clients {
			if c == cid {
				w.clients = append(w.clients[:i], w.clients[i+1:]...)
				break
			}
		}
	}
	return nil
}

// HomeOf returns the home server of a client (empty if not attached).
func (w *ServerWorld) HomeOf(cid types.ProcID) types.ProcID { return w.home[cid] }

// Boot connects all servers' failure detectors to the full server set,
// which starts the first membership attempt, and runs to quiescence.
func (w *ServerWorld) Boot() error {
	all := types.NewProcSet(w.serverIDs...)
	for _, sid := range w.serverIDs {
		w.servers[sid].SetReachable(all)
	}
	return w.Run()
}

// TriggerChange starts a fresh membership attempt at one server (the others
// adopt it) and runs to quiescence — one steady-state view change.
func (w *ServerWorld) TriggerChange() error {
	w.servers[w.serverIDs[0]].Reconfigure()
	return w.Run()
}

// notify counts a server's notification to a client and relays it.
func (w *ServerWorld) notify(p types.ProcID, n membership.Notification) {
	w.Notifications++
	w.relay(p, n)
}

// virtualTime maps the simulator's clock onto a time.Time instant for the
// membership servers' clock inputs.
func virtualTime(d time.Duration) time.Time {
	return time.Unix(0, 0).Add(d)
}

// RunWithHeartbeats drives the deployment for the given window with a
// heartbeat failure detector at every server: each interval, every server
// ticks in sorted order (membership.Server.Tick), which heartbeats its peers,
// re-evaluates suspicions with the given timeout, feeds verdict changes
// straight into its membership algorithm and re-proposes a stalled attempt
// (there are no leases to sweep: the world homes its clients out of band).
// With heartbeats running, partitions and heals reconfigure the membership
// autonomously — no external SetReachable calls.
func (w *ServerWorld) RunWithHeartbeats(window, interval, timeout time.Duration) error {
	for _, sid := range w.serverIDs {
		w.servers[sid].StartDetector(timeout, virtualTime(w.Now()))
	}
	deadline := w.Now() + window
	var tick func()
	tick = func() {
		if w.Now() > deadline {
			return
		}
		for _, sid := range w.serverIDs {
			w.servers[sid].Tick(virtualTime(w.Now()))
		}
		w.At(interval, tick)
	}
	w.At(0, tick)
	return w.RunFor(window)
}

// PartitionServers splits the deployment: server connectivity, failure
// detectors, and each server's clients follow their home server into its
// side. Each side's membership then stabilizes independently (the service
// is partitionable). Runs to quiescence.
func (w *ServerWorld) PartitionServers(groups ...types.ProcSet) error {
	comps := make([]types.ProcSet, len(groups))
	for i, g := range groups {
		comp := g.Clone()
		for _, cid := range w.clients {
			if g.Contains(w.home[cid]) {
				comp.Add(cid)
			}
		}
		comps[i] = comp
	}
	w.SetConnectivity(comps...)
	// In sorted order: each server's reaction draws its message latencies
	// from the world's seeded stream, so map order would make a seed's
	// schedule vary run to run.
	for _, g := range groups {
		for _, sid := range g.Sorted() {
			if srv, ok := w.servers[sid]; ok {
				srv.SetReachable(g)
			}
		}
	}
	return w.Run()
}

// HealServers reconnects everything and re-merges the membership. Runs to
// quiescence.
func (w *ServerWorld) HealServers() error {
	w.HealConnectivity()
	all := types.NewProcSet(w.serverIDs...)
	for _, sid := range w.serverIDs {
		w.servers[sid].SetReachable(all)
	}
	return w.Run()
}

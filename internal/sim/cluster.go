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

// pair is an ordered link.
type pair struct{ from, to types.ProcID }

// Node is the automaton interface the cluster drives. *core.Endpoint is the
// primary implementation; internal/baseline provides comparison algorithms.
type Node interface {
	ID() types.ProcID
	HandleStartChange(sc types.StartChange)
	HandleView(v types.View)
	HandleMessage(from types.ProcID, m types.WireMsg)
	Send(payload []byte) (types.AppMsg, error)
	BlockOK()
	Crash()
	Recover()
	TakeEvents() []core.Event
	CurrentView() types.View
}

var _ Node = (*core.Endpoint)(nil)

// NodeFactory builds one node; idx is the process's position in Config.Procs
// (useful for deriving unique message-id bases).
type NodeFactory func(p types.ProcID, idx int, tr *corfifo.Handle) (Node, error)

// Config parameterizes a simulated cluster.
type Config struct {
	// Procs lists the end-points; required. See ProcIDs for a generator.
	Procs []types.ProcID

	// Level selects the automaton layer for every end-point; defaults to
	// core.LevelGCS.
	Level core.Level

	// Forwarding selects the forwarding strategy; defaults to the simple
	// strategy of Section 5.2.2.
	Forwarding core.ForwardingStrategy

	// SmallSync enables the Section 5.2.4 small-sync-message optimization.
	SmallSync bool

	// ManualBlock disables automatic block acknowledgment; the test drives
	// BlockOK itself. By default end-points act as their own blocking
	// clients.
	ManualBlock bool

	// RetainOldBuffers disables message-buffer garbage collection.
	RetainOldBuffers bool

	// AckInterval enables within-view stability acknowledgments every this
	// many deliveries (0 disables); see core.Config.AckInterval.
	AckInterval int

	// HierarchyGroupSize enables the two-tier synchronization hierarchy;
	// see core.Config.HierarchyGroupSize.
	HierarchyGroupSize int

	// Latency models per-message link latency; defaults to DefaultLatency.
	Latency LatencyModel

	// MembershipLatency models the latency of membership notifications to
	// clients; defaults to Latency.
	MembershipLatency LatencyModel

	// MembershipRound is the simulated duration of the membership servers'
	// agreement round: ReconfigureTo commits the view this long after
	// issuing the start_change. Default 0 (instant agreement).
	MembershipRound time.Duration

	// Seed seeds the deterministic RNG.
	Seed int64

	// NewNode overrides node construction (used to run baseline algorithms
	// in the same harness). When nil, core end-points are built from the
	// fields above.
	NewNode NodeFactory

	// Suite receives every external event of the execution; optional.
	Suite *spec.Suite

	// OnAppEvent observes application-facing events per end-point; optional.
	OnAppEvent func(p types.ProcID, ev core.Event)

	// TraceFor, when set, supplies each end-point's reconfiguration trace
	// hook (e.g. obs.Tracer.ForEndpoint). Only used by the default node
	// factory; a custom NewNode wires tracing itself. May return nil for
	// untraced end-points.
	TraceFor func(p types.ProcID) core.ProtocolTrace
}

// Metrics aggregates execution measurements.
type Metrics struct {
	Sent         int64
	Delivered    int64
	ViewInstalls int64

	installTimes map[string]map[types.ProcID]time.Duration
	blockStart   map[types.ProcID]time.Duration
	BlockedTotal map[types.ProcID]time.Duration
}

// InstallTimes returns the per-process virtual times at which the view with
// the given key was delivered to the application.
func (m *Metrics) InstallTimes(viewKey string) map[types.ProcID]time.Duration {
	out := make(map[types.ProcID]time.Duration, len(m.installTimes[viewKey]))
	for p, t := range m.installTimes[viewKey] {
		out[p] = t
	}
	return out
}

// Cluster is a simulated composition of end-points, substrate, and
// membership service under a virtual clock (the composition of Figure 8).
// It is not safe for concurrent use.
type Cluster struct {
	*engine

	cfg      Config
	oracle   *membership.Oracle
	eps      map[types.ProcID]Node
	draining map[types.ProcID]bool // processes whose events drain is handing out
	metrics  Metrics
}

// ProcIDs returns n process identifiers p00, p01, ...
func ProcIDs(n int) []types.ProcID {
	out := make([]types.ProcID, n)
	for i := range out {
		out[i] = types.ProcID(fmt.Sprintf("p%02d", i))
	}
	return out
}

// NewCluster builds a cluster per cfg. All end-points start registered,
// fully connected, and in their initial singleton views.
func NewCluster(cfg Config) (*Cluster, error) {
	if len(cfg.Procs) == 0 {
		return nil, fmt.Errorf("sim: config requires at least one process")
	}
	if cfg.Level == 0 {
		cfg.Level = core.LevelGCS
	}
	if cfg.Forwarding == nil {
		cfg.Forwarding = core.NewSimpleForwarding()
	}
	if cfg.Latency == nil {
		cfg.Latency = DefaultLatency()
	}
	if cfg.MembershipLatency == nil {
		cfg.MembershipLatency = cfg.Latency
	}

	c := &Cluster{
		engine:   newEngine(cfg.Procs, cfg.Latency, cfg.Seed),
		cfg:      cfg,
		eps:      make(map[types.ProcID]Node, len(cfg.Procs)),
		draining: make(map[types.ProcID]bool),
	}
	c.metrics.installTimes = make(map[string]map[types.ProcID]time.Duration)
	c.metrics.blockStart = make(map[types.ProcID]time.Duration)
	c.metrics.BlockedTotal = make(map[types.ProcID]time.Duration)

	c.oracle = membership.NewOracle(c.onMembership)

	newNode := cfg.NewNode
	if newNode == nil {
		newNode = func(p types.ProcID, idx int, tr *corfifo.Handle) (Node, error) {
			epCfg := core.Config{
				ID:                 p,
				Transport:          tr,
				Level:              cfg.Level,
				Forwarding:         cfg.Forwarding,
				AutoBlock:          !cfg.ManualBlock,
				SmallSync:          cfg.SmallSync,
				RetainOldBuffers:   cfg.RetainOldBuffers,
				AckInterval:        cfg.AckInterval,
				HierarchyGroupSize: cfg.HierarchyGroupSize,
				MsgIDBase:          int64(idx+1) * 1_000_000_000,
			}
			if cfg.TraceFor != nil {
				epCfg.Trace = cfg.TraceFor(p)
			}
			return core.NewEndpoint(epCfg)
		}
	}
	for i, p := range cfg.Procs {
		ep, err := newNode(p, i, c.net.Handle(p))
		if err != nil {
			return nil, err
		}
		c.eps[p] = ep
		c.registerHandler(p)
		c.oracle.Register(p)
	}
	return c, nil
}

func (c *Cluster) registerHandler(p types.ProcID) {
	ep := c.eps[p]
	c.net.Register(p, corfifo.HandlerFunc(func(from types.ProcID, m types.WireMsg) {
		ep.HandleMessage(from, m)
		c.drain(p)
	}))
}

// Endpoint returns the node for p.
func (c *Cluster) Endpoint(p types.ProcID) Node { return c.eps[p] }

// CoreEndpoint returns the node for p as a *core.Endpoint; it returns nil
// when the cluster runs a different node implementation.
func (c *Cluster) CoreEndpoint(p types.ProcID) *core.Endpoint {
	ep, _ := c.eps[p].(*core.Endpoint)
	return ep
}

// Metrics returns the accumulated metrics.
func (c *Cluster) Metrics() *Metrics { return &c.metrics }

// Procs returns the configured process identifiers.
func (c *Cluster) Procs() []types.ProcID {
	return append([]types.ProcID(nil), c.cfg.Procs...)
}

// ---- membership plumbing ----

// onMembership receives oracle notifications and relays them to the client
// after the membership latency, preserving per-client FIFO order. The
// MBRSHP outputs are linked to CO_RFIFO.live_p as in Figure 8.
func (c *Cluster) onMembership(p types.ProcID, n membership.Notification) {
	c.schedule(channel{chanNotify, pair{p, p}}, 0, c.cfg.MembershipLatency, func() {
		ep := c.eps[p]
		switch n.Kind {
		case membership.NotifyStartChange:
			c.specEvent(spec.EMStartChange{P: p, SC: n.StartChange})
			c.net.SetLive(p, n.StartChange.Set)
			ep.HandleStartChange(n.StartChange)
		case membership.NotifyView:
			c.specEvent(spec.EMView{P: p, View: n.View})
			c.net.SetLive(p, n.View.Members)
			ep.HandleView(n.View)
		}
		c.drain(p)
	})
}

// StartChange has the membership service begin forming a view with the given
// set (start_change notifications flow to each live member).
func (c *Cluster) StartChange(set types.ProcSet) error {
	_, err := c.oracle.StartChange(set)
	return err
}

// DeliverView has the membership service commit and deliver a view with the
// given membership.
func (c *Cluster) DeliverView(set types.ProcSet) (types.View, error) {
	return c.oracle.DeliverView(set)
}

// ReconfigureTo performs a full reconfiguration to the given membership:
// start_change now, view commit after the configured membership round, then
// the execution runs to quiescence. It returns the installed view and the
// duration from the start_change until the last member delivered the view
// to its application.
func (c *Cluster) ReconfigureTo(set types.ProcSet) (types.View, time.Duration, error) {
	start := c.now
	if err := c.StartChange(set); err != nil {
		return types.View{}, 0, err
	}
	var (
		v    types.View
		verr error
	)
	c.At(c.cfg.MembershipRound, func() { v, verr = c.oracle.DeliverView(set) })
	if err := c.Run(); err != nil {
		return types.View{}, 0, err
	}
	if verr != nil {
		return types.View{}, 0, verr
	}
	installs := c.metrics.installTimes[v.Key()]
	var last time.Duration
	for _, p := range set.Sorted() {
		t, ok := installs[p]
		if !ok {
			return v, 0, fmt.Errorf("sim: %s did not install %s", p, v)
		}
		if t > last {
			last = t
		}
	}
	return v, last - start, nil
}

// Partition splits both the network connectivity and the membership into the
// given groups, then runs to quiescence. Each group receives its own view.
func (c *Cluster) Partition(groups ...types.ProcSet) ([]types.View, error) {
	c.SetConnectivity(groups...)
	views, err := c.oracle.Partition(groups...)
	if err != nil {
		return nil, err
	}
	if err := c.Run(); err != nil {
		return nil, err
	}
	return views, nil
}

// ---- application interface ----

// Send multicasts payload from p in p's current view.
func (c *Cluster) Send(p types.ProcID, payload []byte) (types.AppMsg, error) {
	m, err := c.eps[p].Send(payload)
	if err != nil {
		return types.AppMsg{}, err
	}
	c.metrics.Sent++
	c.specEvent(spec.ESend{P: p, MsgID: m.ID})
	c.drain(p)
	return m, nil
}

// BlockOK acknowledges an outstanding block request at p (only needed with
// ManualBlock).
func (c *Cluster) BlockOK(p types.ProcID) {
	c.specEvent(spec.EBlockOK{P: p})
	c.eps[p].BlockOK()
	c.drain(p)
}

// Crash crashes end-point p (Section 8): its automaton freezes, the
// substrate stops delivering to it, and the membership marks it crashed.
func (c *Cluster) Crash(p types.ProcID) error {
	c.specEvent(spec.ECrash{P: p})
	c.eps[p].Crash()
	c.net.Unregister(p)
	return c.oracle.Crash(p)
}

// Recover restarts end-point p from its initial state under its original
// identity (no stable storage; Section 8).
func (c *Cluster) Recover(p types.ProcID) error {
	c.specEvent(spec.ERecover{P: p})
	if err := c.oracle.Recover(p); err != nil {
		return err
	}
	c.registerHandler(p)
	c.eps[p].Recover()
	c.drain(p)
	return nil
}

// ---- event draining ----

func (c *Cluster) specEvent(ev spec.Event) {
	if c.cfg.Suite != nil {
		c.cfg.Suite.OnEvent(ev)
	}
}

// drain hands the application events an end-point produced to the spec suite,
// the metrics and the observer callback, in the end-point's order. It does not
// re-enter: a handler that calls back into the cluster for the same process
// (Send, BlockOK) queues more events, and the nested drain returns at once,
// leaving them to the outermost call, which keeps taking until the end-point
// has none. So Send from inside a handler no longer sees its own self-delivery
// on return; it sees it after the events that precede it. The suite is fed a
// whole batch before the batch's first handler runs, because that is the order
// of the end-point's external actions: everything in the batch happened before
// any send a handler makes in response.
func (c *Cluster) drain(p types.ProcID) {
	if c.draining[p] {
		return
	}
	c.draining[p] = true
	defer delete(c.draining, p)
	for {
		evs := c.eps[p].TakeEvents()
		if len(evs) == 0 {
			return
		}
		for _, ev := range evs {
			c.observe(p, ev)
		}
		if c.cfg.OnAppEvent != nil {
			for _, ev := range evs {
				c.cfg.OnAppEvent(p, ev)
			}
		}
	}
}

// observe feeds one application event to the spec suite and the metrics.
func (c *Cluster) observe(p types.ProcID, ev core.Event) {
	switch e := ev.(type) {
	case core.DeliverEvent:
		c.metrics.Delivered++
		c.specEvent(spec.EDeliver{P: p, From: e.Sender, MsgID: e.Msg.ID})
	case core.ViewEvent:
		c.metrics.ViewInstalls++
		row := c.metrics.installTimes[e.View.Key()]
		if row == nil {
			row = make(map[types.ProcID]time.Duration)
			c.metrics.installTimes[e.View.Key()] = row
		}
		row[p] = c.now
		if start, ok := c.metrics.blockStart[p]; ok {
			c.metrics.BlockedTotal[p] += c.now - start
			delete(c.metrics.blockStart, p)
		}
		c.specEvent(spec.EView{
			P:        p,
			View:     e.View,
			Trans:    e.TransitionalSet,
			HasTrans: e.TransitionalSet != nil,
		})
	case core.BlockEvent:
		c.specEvent(spec.EBlock{P: p})
		c.metrics.blockStart[p] = c.now
		if !c.cfg.ManualBlock {
			// The auto-blocking client acknowledged synchronously.
			c.specEvent(spec.EBlockOK{P: p})
		}
	}
}

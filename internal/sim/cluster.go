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

// Cluster is a simulated composition of end-points, substrate, and
// membership service under a virtual clock (the composition of Figure 8).
// It is not safe for concurrent use.
type Cluster struct {
	harness

	cfg    Config
	oracle *membership.Oracle
	// final is the view a scenario left every member of in the end, with the
	// execution quiescent and no membership event pending; nil unless the
	// scenario sets it. The explorer then also holds the schedule to
	// Property 4.2 for it (spec.CheckLiveness).
	final *types.View
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
		harness: newHarness(newEngine(cfg.Procs, cfg.Latency, cfg.Seed), cfg.Suite, cfg.MembershipLatency, !cfg.ManualBlock),
		cfg:     cfg,
	}
	c.onAppEvent = cfg.OnAppEvent
	c.oracle = membership.NewOracle(c.relay)

	newNode := cfg.NewNode
	if newNode == nil {
		newNode = func(p types.ProcID, idx int, tr *corfifo.Handle) (Node, error) {
			return newEndpoint(cfg, p, idx+1, tr)
		}
	}
	for i, p := range cfg.Procs {
		ep, err := newNode(p, i, c.net.Handle(p))
		if err != nil {
			return nil, err
		}
		c.add(p, ep)
		c.oracle.Register(p)
	}
	return c, nil
}

// Endpoint returns the node for p.
func (c *Cluster) Endpoint(p types.ProcID) Node {
	if m := c.members[p]; m != nil {
		return m.node
	}
	return nil
}

// CoreEndpoint returns the node for p as a *core.Endpoint; it returns nil
// when the cluster runs a different node implementation.
func (c *Cluster) CoreEndpoint(p types.ProcID) *core.Endpoint {
	ep, _ := c.Endpoint(p).(*core.Endpoint)
	return ep
}

// Metrics returns the accumulated metrics.
func (c *Cluster) Metrics() *Metrics { return &c.metrics }

// Procs returns the configured process identifiers.
func (c *Cluster) Procs() []types.ProcID {
	return append([]types.ProcID(nil), c.cfg.Procs...)
}

// ---- membership plumbing ----

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

// BlockOK acknowledges an outstanding block request at p (only needed with
// ManualBlock).
func (c *Cluster) BlockOK(p types.ProcID) error {
	m, err := c.memberOf(p)
	if err != nil {
		return err
	}
	c.specEvent(spec.EBlockOK{P: p})
	m.node.BlockOK()
	c.drain(m)
	return nil
}

// Crash crashes end-point p (Section 8): its automaton freezes, the
// substrate stops delivering to it, and the membership marks it crashed.
func (c *Cluster) Crash(p types.ProcID) error {
	m, err := c.memberOf(p)
	if err != nil {
		return err
	}
	c.specEvent(spec.ECrash{P: p})
	m.node.Crash()
	c.net.Unregister(p)
	return c.oracle.Crash(p)
}

// Recover restarts end-point p from its initial state under its original
// identity (no stable storage; Section 8).
func (c *Cluster) Recover(p types.ProcID) error {
	m, err := c.memberOf(p)
	if err != nil {
		return err
	}
	c.specEvent(spec.ERecover{P: p})
	if err := c.oracle.Recover(p); err != nil {
		return err
	}
	c.listen(m)
	m.node.Recover()
	c.drain(m)
	return nil
}

// Package vsgm is a virtually synchronous group multicast library with a
// client-server architecture, reproducing Keidar & Khazan, "A Client-Server
// Approach to Virtually Synchronous Group Multicast: Specifications,
// Algorithms, and Proofs" (ICDCS 2000).
//
// # Architecture
//
// Group membership is maintained by an external membership service — either
// dedicated membership servers (MembershipServer) or a controllable oracle
// (MembershipOracle) — while virtually synchronous multicast is implemented
// by GCS end-points (Endpoint) running at the clients, on top of a
// connection-oriented reliable FIFO substrate (Network). The end-point
// algorithm runs its synchronization round in parallel with the membership
// round, keyed by locally unique start-change identifiers, so
// reconfiguration completes in a single message round without pre-agreement
// on a globally unique identifier.
//
// The service guarantees, per view: Self Inclusion, Local Monotonicity,
// within-view gap-free FIFO delivery, Virtual Synchrony (agreed cuts),
// Transitional Sets, and Self Delivery — plus conditional liveness when the
// membership stabilizes. Every property has an executable specification
// checker (Suite) that can validate whole-system traces.
//
// # Quick start
//
// The most convenient entry point is the deterministic in-memory Cluster,
// which composes end-points, substrate, and membership under a virtual
// clock:
//
//	cluster, err := vsgm.NewCluster(vsgm.ClusterConfig{Procs: vsgm.ProcIDs(3), Seed: 1})
//	...
//	view, dur, err := cluster.ReconfigureTo(vsgm.NewProcSet(cluster.Procs()...))
//	cluster.Send("p00", []byte("hello"))
//	cluster.Run()
//
// The same cluster is what the model checker explores: Exhaustive and Swarm
// run a Scenario over fresh clusters whose clock is replaced by a chooser, so
// Run drains by enumerated (or random) interleavings of deliveries and
// membership notifications, each validated against the full specification
// suite.
//
// Higher layers build on the service exactly as the paper motivates:
// NewTotalOrder provides totally ordered multicast over the FIFO service,
// and NewReplica provides replicated state machines whose state transfer is
// driven by transitional sets.
package vsgm

import (
	"vsgm/internal/baseline"
	"vsgm/internal/causal"
	"vsgm/internal/core"
	"vsgm/internal/corfifo"
	"vsgm/internal/membership"
	"vsgm/internal/rsm"
	"vsgm/internal/shard"
	"vsgm/internal/sim"
	"vsgm/internal/spec"
	"vsgm/internal/totalorder"
	"vsgm/internal/types"
)

// Fundamental vocabulary (see internal/types).
type (
	// ProcID identifies a process / GCS end-point.
	ProcID = types.ProcID
	// ProcSet is a finite set of process identifiers.
	ProcSet = types.ProcSet
	// View is a membership view: identifier, member set, and the startId
	// map from members to their last start-change identifiers.
	View = types.View
	// ViewID identifies a view.
	ViewID = types.ViewID
	// StartChangeID is a locally unique, increasing start-change identifier.
	StartChangeID = types.StartChangeID
	// StartChange is a membership service's change notification.
	StartChange = types.StartChange
	// Cut maps senders to committed last-delivered message indices.
	Cut = types.Cut
	// AppMsg is an application message.
	AppMsg = types.AppMsg
	// WireMsg is a message on the reliable FIFO substrate.
	WireMsg = types.WireMsg
)

// NewProcSet builds a process set from the given members.
func NewProcSet(members ...ProcID) ProcSet { return types.NewProcSet(members...) }

// InitialView returns the default singleton view of process p.
func InitialView(p ProcID) View { return types.InitialView(p) }

// The GCS end-point automaton (see internal/core).
type (
	// Endpoint is the GCS end-point automaton of Section 5 of the paper.
	Endpoint = core.Endpoint
	// EndpointConfig parameterizes an end-point.
	EndpointConfig = core.Config
	// Level selects the automaton layer (WV_RFIFO, VS_RFIFO+TS, or GCS).
	Level = core.Level
	// Event is an end-point output to its application.
	Event = core.Event
	// DeliverEvent delivers an application message. Its payload is valid
	// until the handler returns; copy what you keep.
	DeliverEvent = core.DeliverEvent
	// ViewEvent delivers a view with its transitional set.
	ViewEvent = core.ViewEvent
	// BlockEvent asks the application to stop sending during a change.
	BlockEvent = core.BlockEvent
	// ForwardingStrategy is the Section 5.2.2 forwarding predicate.
	ForwardingStrategy = core.ForwardingStrategy
	// Transport is the end-point's interface to the FIFO substrate.
	Transport = core.Transport
)

// Automaton levels.
const (
	// LevelWV runs only the within-view reliable FIFO layer.
	LevelWV = core.LevelWV
	// LevelVS adds Virtual Synchrony and Transitional Sets.
	LevelVS = core.LevelVS
	// LevelGCS adds Self Delivery with client blocking (the full service).
	LevelGCS = core.LevelGCS
)

// Errors returned by Endpoint.Send.
var (
	// ErrBlocked is returned while the client is blocked for a view change.
	ErrBlocked = core.ErrBlocked
	// ErrCrashed is returned after Crash and before Recover.
	ErrCrashed = core.ErrCrashed
)

// NewEndpoint constructs a GCS end-point in its initial singleton view.
func NewEndpoint(cfg EndpointConfig) (*Endpoint, error) { return core.NewEndpoint(cfg) }

// NewSimpleForwarding returns the paper's simple forwarding strategy.
func NewSimpleForwarding() ForwardingStrategy { return core.NewSimpleForwarding() }

// NewMinCopiesForwarding returns the copy-minimizing forwarding strategy.
func NewMinCopiesForwarding() ForwardingStrategy { return core.NewMinCopiesForwarding() }

// The reliable FIFO substrate (see internal/corfifo).
type (
	// Network is the CO_RFIFO substrate automaton.
	Network = corfifo.Network
	// NetworkStats aggregates substrate traffic counters.
	NetworkStats = corfifo.Stats
)

// NewNetwork returns an empty CO_RFIFO substrate.
func NewNetwork() *Network { return corfifo.NewNetwork() }

// The membership service (see internal/membership).
type (
	// MembershipOracle is the controllable membership implementation.
	MembershipOracle = membership.Oracle
	// MembershipServer is one dedicated server of the distributed
	// client-server membership service.
	MembershipServer = membership.Server
	// MembershipNotification is a start_change or view notification.
	MembershipNotification = membership.Notification
	// MembershipOutput receives notifications for clients.
	MembershipOutput = membership.Output
)

// NewMembershipOracle returns a controllable membership service.
func NewMembershipOracle(out MembershipOutput) *MembershipOracle {
	return membership.NewOracle(out)
}

// NewMembershipServer returns one dedicated membership server.
func NewMembershipServer(id ProcID, servers ProcSet, tr membership.ServerTransport, out MembershipOutput) (*MembershipServer, error) {
	return membership.NewServer(id, servers, tr, out)
}

// The deterministic simulation harness (see internal/sim).
type (
	// Cluster composes end-points, substrate, and membership under a
	// virtual clock.
	Cluster = sim.Cluster
	// ClusterConfig parameterizes a cluster.
	ClusterConfig = sim.Config
	// Node is the automaton interface the cluster drives.
	Node = sim.Node
	// LatencyModel samples per-message link latencies.
	LatencyModel = sim.LatencyModel
	// UniformLatency draws latencies uniformly around a base.
	UniformLatency = sim.UniformLatency
	// FixedLatency is a constant latency.
	FixedLatency = sim.FixedLatency
	// ServerWorld simulates the full client-server deployment with
	// dedicated membership servers.
	ServerWorld = sim.ServerWorld
	// ServerWorldConfig parameterizes a server world.
	ServerWorldConfig = sim.ServerWorldConfig
	// NodeFactory builds alternative node implementations for a cluster.
	NodeFactory = sim.NodeFactory
	// TransportHandle is a sender-side handle onto the FIFO substrate,
	// bound to one end-point.
	TransportHandle = *corfifo.Handle
)

// NewCluster builds a simulated cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return sim.NewCluster(cfg) }

// NewServerWorld builds a simulated client-server deployment.
func NewServerWorld(cfg ServerWorldConfig) (*ServerWorld, error) { return sim.NewServerWorld(cfg) }

// ProcIDs returns n process identifiers p00, p01, ...
func ProcIDs(n int) []ProcID { return sim.ProcIDs(n) }

// Executable specifications (see internal/spec).
type (
	// Suite runs specification checkers over a trace.
	Suite = spec.Suite
	// TraceEvent is one external event of the composed system.
	TraceEvent = spec.Event
)

// FullSuite returns the checkers for a complete GCS-level run.
func FullSuite() *Suite { return spec.FullSuite(spec.WithTrace()) }

// CheckLiveness evaluates the conditional liveness property (Property 4.2)
// on a finished trace for the stabilized view v.
func CheckLiveness(trace []TraceEvent, v View) error { return spec.CheckLiveness(trace, v) }

// Higher layers (see internal/totalorder, internal/causal, internal/rsm,
// internal/shard).
type (
	// TotalOrder is a totally ordered multicast session layered on the
	// virtually synchronous FIFO service.
	TotalOrder = totalorder.Session
	// CausalOrder is a causally ordered multicast session layered on the
	// virtually synchronous FIFO service.
	CausalOrder = causal.Session
	// Replica is a replicated-state-machine member with transitional-set
	// driven state transfer.
	Replica = rsm.Replica
	// ReplicaConfig parameterizes a replica.
	ReplicaConfig = rsm.Config
	// StateMachine is the deterministic state replicas manage.
	StateMachine = rsm.StateMachine
	// KVStore is a replicated key-value state machine: the machine every
	// shard replica runs, here without a durable store.
	KVStore = shard.Machine
)

// NewTotalOrder builds a total-order session for end-point id; feed it the
// end-point's events and send through it.
func NewTotalOrder(id ProcID, send func([]byte) error, deliver func(ProcID, []byte), onView func(View, ProcSet)) (*TotalOrder, error) {
	return totalorder.New(id, send, deliver, onView)
}

// NewCausalOrder builds a causal-order session for end-point id; feed it
// the end-point's events and send through it.
func NewCausalOrder(id ProcID, send func([]byte) error, deliver func(ProcID, []byte), onView func(View, ProcSet)) (*CausalOrder, error) {
	return causal.New(id, send, deliver, onView)
}

// NewReplica builds a replicated-state-machine member.
func NewReplica(cfg ReplicaConfig) (*Replica, error) { return rsm.NewReplica(cfg) }

// NewKVStore returns an empty replicated key-value store.
func NewKVStore() *KVStore { return shard.NewMachine(nil) }

// EncodeSet returns the KV command that sets key to value.
func EncodeSet(key, value string) []byte { return shard.EncodeSet(key, value) }

// EncodeDel returns the KV command that deletes key.
func EncodeDel(key string) []byte { return shard.EncodeDel(key) }

// The stateless model checker: the simulator's engine with a chooser in
// place of its clock (see internal/sim).
type (
	// Scenario drives a cluster through a fixed script; the explorer varies
	// the schedule within it, and the cluster's Run drains by its choices.
	Scenario = sim.Scenario
	// ExploreResult summarizes an exploration.
	ExploreResult = sim.ExploreResult
)

// Exhaustive explores a scenario's schedule tree depth-first (replaying from
// a fresh cluster per branch) until exhaustion or maxSchedules.
func Exhaustive(cfg ClusterConfig, scenario Scenario, maxSchedules int) (ExploreResult, error) {
	return sim.Exhaustive(cfg, scenario, maxSchedules)
}

// Swarm explores `runs` random schedules of a scenario from the given seed.
func Swarm(cfg ClusterConfig, scenario Scenario, runs int, seed int64) (ExploreResult, error) {
	return sim.Swarm(cfg, scenario, runs, seed)
}

// Baseline algorithms for comparison (see internal/baseline).
type (
	// TwoRoundNode is the two-round (identifier pre-agreement) virtually
	// synchronous end-point the paper improves on.
	TwoRoundNode = baseline.TwoRound
)

// NewTwoRoundNode constructs a baseline two-round end-point.
func NewTwoRoundNode(id ProcID, tr Transport, msgIDBase int64) (*TwoRoundNode, error) {
	return baseline.NewTwoRound(id, tr, msgIDBase)
}

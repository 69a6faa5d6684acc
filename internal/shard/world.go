package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/obs"
	"vsgm/internal/rsm"
	"vsgm/internal/sim"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// WorldConfig parameterizes a sharded deployment on the deterministic
// simulator.
type WorldConfig struct {
	// Shards is the number of shards (each its own group); default 2.
	Shards int
	// Replicas is the replica-group size per shard; default 3.
	Replicas int
	// Spares is how many extra (initially idle) processes each shard's
	// cluster holds, available as MoveGroup destinations and crash-recovery
	// stand-ins; default 2.
	Spares int
	// Slots is the hash-slot space size; default DefaultSlots.
	Slots int
	// Seed drives every cluster's deterministic RNG.
	Seed int64
	// StateDir, when non-empty, backs every shard replica with a FileStore
	// under StateDir/s<shard>/<proc>; empty selects in-memory stores.
	StateDir string
}

// metaReplicas sizes the meta-group carrying the shard map.
const metaReplicas = 3

// shardGroup is one shard's deployment: a simulated cluster whose process
// universe is the replica group plus spares, with an rsm replica and a
// Machine per process.
type shardGroup struct {
	id       int
	c        *sim.Cluster
	suite    *spec.Suite
	procs    []types.ProcID
	replicas map[types.ProcID]*rsm.Replica
	machines map[types.ProcID]*Machine
	stores   map[types.ProcID]Store
	current  types.ProcSet  // membership of the group's latest reconfiguration
	members  []types.ProcID // current, in identifier order
	ops      *obs.Counter
}

// setCurrent records the group's latest configuration.
func (g *shardGroup) setCurrent(set types.ProcSet) {
	g.current = set
	g.members = set.Sorted()
}

// World is a complete sharded KV deployment on the simulator: one cluster
// per shard, one meta cluster carrying the shard-map RSM, an acknowledgment
// ledger for the no-lost-writes checker, and the vsgm_shard_* metrics. It
// implements Backend, so a Router can sit directly on top. Not safe for
// concurrent use (the simulator is single-threaded by design).
type World struct {
	cfg WorldConfig
	reg *obs.Registry

	meta         *sim.Cluster
	metaSuite    *spec.Suite
	metaProcs    []types.ProcID
	metaReplicas map[types.ProcID]*rsm.Replica
	metaMachines map[types.ProcID]*MetaMachine

	groups    map[int]*shardGroup
	committed Map
	migrating map[int]string // slot → reshard id currently moving it

	// acks keeps the last acknowledgment of each key, which is all the
	// no-lost-writes check reads; ackSeq counts every acknowledgment given.
	acks   map[string]spec.KVAck
	ackSeq int64

	mWrong   *obs.Counter
	mHandoff *obs.Counter
	mRounds  *obs.Counter
	mAborts  *obs.Counter
	mEpoch   *obs.Gauge

	errs   []error
	closed bool
}

// ShardProcs returns the process identifiers of shard id's cluster
// (replicas first, then spares): s<id>-p00, s<id>-p01, ...
func ShardProcs(id, n int) []types.ProcID {
	out := make([]types.ProcID, n)
	for i := range out {
		out[i] = types.ProcID(fmt.Sprintf("s%d-p%02d", id, i))
	}
	return out
}

// metaProcIDs returns the meta-group process identifiers m00, m01, ...
func metaProcIDs(n int) []types.ProcID {
	out := make([]types.ProcID, n)
	for i := range out {
		out[i] = types.ProcID(fmt.Sprintf("m%02d", i))
	}
	return out
}

func (cfg *WorldConfig) defaults() {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Spares < 0 {
		cfg.Spares = 0
	} else if cfg.Spares == 0 {
		cfg.Spares = 2
	}
	if cfg.Slots <= 0 {
		cfg.Slots = DefaultSlots
	}
}

// NewWorld builds and boots the deployment: every shard group and the
// meta-group are reconfigured into their initial memberships and run to
// quiescence.
func NewWorld(cfg WorldConfig) (*World, error) {
	cfg.defaults()
	w := &World{
		cfg:       cfg,
		reg:       obs.NewRegistry(),
		groups:    make(map[int]*shardGroup, cfg.Shards),
		migrating: make(map[int]string),
		acks:      make(map[string]spec.KVAck),
	}
	w.mWrong = w.reg.Counter("vsgm_shard_wrong_shard_redirects_total",
		"Requests bounced with ErrWrongShard because the key's slot lives elsewhere.")
	w.mHandoff = w.reg.Counter("vsgm_shard_handoff_bytes_total",
		"Bytes of key-range state moved through install commands during slot reshards.")
	w.mRounds = w.reg.Counter("vsgm_shard_reshard_rounds_total",
		"Reshard proposals that ran to commit.")
	w.mAborts = w.reg.Counter("vsgm_shard_reshard_aborts_total",
		"Reshard proposals that were aborted after acceptance.")
	w.mEpoch = w.reg.Gauge("vsgm_shard_map_epoch",
		"Epoch of the committed shard map.")

	// Initial map: shard id → the first Replicas procs of its cluster.
	initGroups := make(map[int][]types.ProcID, cfg.Shards)
	for id := 0; id < cfg.Shards; id++ {
		initGroups[id] = ShardProcs(id, cfg.Replicas)
	}
	initial, err := NewUniformMap(cfg.Slots, initGroups)
	if err != nil {
		return nil, err
	}

	// Meta-group.
	w.metaProcs = metaProcIDs(metaReplicas)
	w.metaReplicas = make(map[types.ProcID]*rsm.Replica, metaReplicas)
	w.metaMachines = make(map[types.ProcID]*MetaMachine, metaReplicas)
	w.metaSuite = spec.FullSuite()
	metaCluster, err := sim.NewCluster(sim.Config{
		Procs:           w.metaProcs,
		Latency:         sim.UniformLatency{Base: 10 * time.Millisecond, Jitter: 5 * time.Millisecond},
		MembershipRound: 10 * time.Millisecond,
		Seed:            cfg.Seed,
		Suite:           w.metaSuite,
		OnAppEvent: func(p types.ProcID, ev core.Event) {
			if r := w.metaReplicas[p]; r != nil {
				if err := r.HandleEvent(ev); err != nil {
					w.errs = append(w.errs, fmt.Errorf("meta %s: %w", p, err))
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	w.meta = metaCluster
	for i, p := range w.metaProcs {
		p := p
		m := NewMetaMachine(initial)
		if i == 0 {
			// The watcher: the server side learns committed maps from the
			// first meta replica's applies.
			m.OnCommit = w.onMapCommit
		}
		w.metaMachines[p] = m
		r, err := rsm.NewReplica(rsm.Config{
			ID:        p,
			Machine:   m,
			Bootstrap: true,
			Quorum:    metaReplicas/2 + 1,
			Send: func(payload []byte) error {
				_, err := metaCluster.Send(p, payload)
				return err
			},
		})
		if err != nil {
			return nil, err
		}
		w.metaReplicas[p] = r
	}
	if _, _, err := w.meta.ReconfigureTo(types.NewProcSet(w.metaProcs...)); err != nil {
		return nil, fmt.Errorf("shard: boot meta-group: %w", err)
	}

	// Shard groups.
	for id := 0; id < cfg.Shards; id++ {
		g, err := w.newShardGroup(id, initial.Groups[id])
		if err != nil {
			return nil, err
		}
		w.groups[id] = g
	}
	w.committed = initial.Clone()
	w.mEpoch.Set(initial.Epoch)
	return w, nil
}

// groupAckInterval is the core.Config.AckInterval of every shard replica:
// replicas acknowledge every 64 deliveries (commands of ~150 B never reach
// the end-point's 1 MiB byte trigger first) and drop the command slots their whole group has delivered, so a shard group
// retains O(interval × replicas) commands instead of every command since its
// last view change. On bench/ kv_mixed (8 s, 4 shards × 3 replicas) that is
// 46 MB peak RSS against 77 MB without acks, at the same 40 k ops/s: the
// message buffers were over half the heap.
const groupAckInterval = 64

func (w *World) newShardGroup(id int, members []types.ProcID) (*shardGroup, error) {
	cfg := w.cfg
	g := &shardGroup{
		id:       id,
		procs:    ShardProcs(id, cfg.Replicas+cfg.Spares),
		replicas: make(map[types.ProcID]*rsm.Replica),
		machines: make(map[types.ProcID]*Machine),
		stores:   make(map[types.ProcID]Store),
		suite:    spec.FullSuite(),
		ops: w.reg.Counter("vsgm_shard_ops_total",
			"Acknowledged KV operations served, per shard.", obs.L("shard", strconv.Itoa(id))),
	}
	c, err := sim.NewCluster(sim.Config{
		Procs:           g.procs,
		Latency:         sim.UniformLatency{Base: 10 * time.Millisecond, Jitter: 5 * time.Millisecond},
		MembershipRound: 10 * time.Millisecond,
		Seed:            cfg.Seed + int64(id) + 1,
		AckInterval:     groupAckInterval,
		Suite:           g.suite,
		OnAppEvent: func(p types.ProcID, ev core.Event) {
			if r := g.replicas[p]; r != nil {
				if err := r.HandleEvent(ev); err != nil {
					w.errs = append(w.errs, fmt.Errorf("shard %d %s: %w", id, p, err))
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	g.c = c
	initialSet := types.NewProcSet(members...)
	for _, p := range g.procs {
		if err := w.attachReplica(g, p, initialSet.Contains(p), false); err != nil {
			return nil, err
		}
	}
	if _, _, err := c.ReconfigureTo(initialSet); err != nil {
		return nil, fmt.Errorf("shard: boot shard %d: %w", id, err)
	}
	g.setCurrent(initialSet)
	return g, nil
}

// attachReplica builds the store, machine, and rsm replica for one shard
// process. fromDisk reloads the machine from the durable store (the
// crash-recovery path); otherwise the machine starts empty.
func (w *World) attachReplica(g *shardGroup, p types.ProcID, bootstrap, fromDisk bool) error {
	store := g.stores[p]
	if store == nil {
		if w.cfg.StateDir != "" {
			fs, err := NewFileStore(filepath.Join(w.cfg.StateDir, fmt.Sprintf("s%d", g.id), string(p)))
			if err != nil {
				return err
			}
			fs.RepairReport().Publish(w.reg, obs.L("shard", strconv.Itoa(g.id)), obs.L("replica", string(p)))
			store = fs
		} else {
			store = NewMemStore()
		}
		g.stores[p] = store
	}
	var m *Machine
	var err error
	if fromDisk {
		if m, err = LoadMachine(store); err != nil {
			return fmt.Errorf("shard: reload %s: %w", p, err)
		}
	} else {
		m = NewMachine(store)
	}
	g.machines[p] = m
	r, err := rsm.NewReplica(rsm.Config{
		ID:        p,
		Machine:   m,
		Bootstrap: bootstrap,
		Quorum:    w.quorum(),
		Send: func(payload []byte) error {
			_, err := g.c.Send(p, payload)
			return err
		},
	})
	if err != nil {
		return err
	}
	g.replicas[p] = r
	return nil
}

// onMapCommit is the watcher hook: the first meta replica applied a commit,
// so the committed map (the one servers validate requests against) moves.
func (w *World) onMapCommit(m Map) {
	w.committed = m
	w.mEpoch.Set(m.Epoch)
}

// ---- accessors ----

// quorum is the primary-component threshold for shard replicas: a majority
// of Replicas. The meta-group runs at a majority of its own.
func (w *World) quorum() int { return w.cfg.Replicas/2 + 1 }

// Registry returns the metrics registry.
func (w *World) Registry() *obs.Registry { return w.reg }

// CommittedMap returns the committed shard map as the servers see it.
func (w *World) CommittedMap() Map { return w.committed.Clone() }

// Group returns shard id's current membership.
func (w *World) Group(id int) types.ProcSet { return w.groups[id].current.Clone() }

// GroupProcs returns the full process universe of shard id's cluster
// (members and spares).
func (w *World) GroupProcs(id int) []types.ProcID {
	return append([]types.ProcID(nil), w.groups[id].procs...)
}

// ShardIDs returns the shard ids.
func (w *World) ShardIDs() []int { return w.committed.ShardIDs() }

// Acks returns the acknowledgment ledger: for every key ever written, the
// last acknowledgment it was given, in the order they were given.
func (w *World) Acks() []spec.KVAck {
	out := make([]spec.KVAck, 0, len(w.acks))
	for _, a := range w.acks {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// AckedWrites returns how many writes have been acknowledged.
func (w *World) AckedWrites() int64 { return w.ackSeq }

// MetaMachineView returns the watcher meta machine (for outcome queries and
// tests). All meta machines hold identical state.
func (w *World) MetaMachineView() *MetaMachine { return w.metaMachines[w.metaProcs[0]] }

// Machine returns the state machine of one shard process (tests).
func (w *World) Machine(shard int, p types.ProcID) *Machine { return w.groups[shard].machines[p] }

// Replica returns the rsm replica of one shard process (tests).
func (w *World) Replica(shard int, p types.ProcID) *rsm.Replica { return w.groups[shard].replicas[p] }

// Now returns the maximum virtual time across all clusters.
func (w *World) Now() time.Duration {
	t := w.meta.Now()
	for _, g := range w.groups {
		if g.c.Now() > t {
			t = g.c.Now()
		}
	}
	return t
}

// RunAll runs the meta cluster and every shard cluster to quiescence.
func (w *World) RunAll() error {
	if err := w.meta.Run(); err != nil {
		return err
	}
	for _, id := range w.ShardIDs() {
		if err := w.groups[id].c.Run(); err != nil {
			return err
		}
	}
	return nil
}

// Check surfaces accumulated replica errors, spec-suite violations, and
// durable-store write failures.
func (w *World) Check() error {
	if len(w.errs) > 0 {
		return w.errs[0]
	}
	if err := w.metaSuite.Err(); err != nil {
		return fmt.Errorf("meta suite: %w", err)
	}
	for id, g := range w.groups {
		if err := g.suite.Err(); err != nil {
			return fmt.Errorf("shard %d suite: %w", id, err)
		}
		for p, m := range g.machines {
			if err := m.StoreErr(); err != nil {
				return fmt.Errorf("shard %d %s store: %w", id, p, err)
			}
		}
	}
	return nil
}

// Close closes every replica's durable store, shard by shard and replica by
// replica in identifier order, and returns Check's verdict joined with every
// store's close error: a world cannot be closed without its checkers being
// read. The meta-group keeps no store. A second Close does nothing; the
// world is unusable after the first.
func (w *World) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	errs := []error{w.Check()}
	ids := make([]int, 0, len(w.groups))
	for id := range w.groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		g := w.groups[id]
		for _, p := range g.procs {
			if st := g.stores[p]; st != nil {
				if err := st.Close(); err != nil {
					errs = append(errs, fmt.Errorf("shard %d %s store: %w", id, p, err))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// ---- serving (Backend) ----

// authoritative returns an authoritative replica of the group, preferring
// members of the current configuration in identifier order.
func (g *shardGroup) authoritative() (types.ProcID, *rsm.Replica, bool) {
	for _, p := range g.members {
		if r := g.replicas[p]; r != nil && r.Authoritative() {
			return p, r, true
		}
	}
	return "", nil, false
}

// FetchMap implements Backend.
func (w *World) FetchMap() (Map, error) { return w.CommittedMap(), nil }

// Do implements Backend: the server front door of one shard. The request is
// validated against the committed map (wrong-shard requests bounce), writes
// to a migrating slot bounce as retryable, and a write is acknowledged only
// after an authoritative replica applied it and the group ran to
// quiescence — an acknowledgment therefore implies the write survived into
// the primary component's state.
func (w *World) Do(shardID int, epoch int64, op KVOp) (Result, error) {
	g, ok := w.groups[shardID]
	if !ok {
		return Result{}, fmt.Errorf("shard: unknown shard %d", shardID)
	}
	if op.Key == "" {
		return Result{}, fmt.Errorf("shard: operation without a key")
	}
	slot := w.committed.SlotOf(op.Key)
	if owner := w.committed.Slots[slot]; owner != shardID {
		w.mWrong.Inc()
		return Result{}, fmt.Errorf("%w: key %q belongs to shard %d (map epoch %d, request epoch %d)",
			ErrWrongShard, op.Key, owner, w.committed.Epoch, epoch)
	}
	switch op.Op {
	case "get":
		p, _, ok := g.authoritative()
		if !ok {
			return Result{}, w.unavailable(g)
		}
		v, found := g.machines[p].Get(op.Key)
		g.ops.Inc()
		return Result{Value: v, Found: found}, nil
	case "set", "del":
		if id, busy := w.migrating[slot]; busy {
			return Result{}, fmt.Errorf("%w (proposal %s)", ErrResharding, id)
		}
		p, r, ok := g.authoritative()
		if !ok {
			return Result{}, w.unavailable(g)
		}
		var cmd []byte
		if op.Op == "set" {
			cmd = EncodeSet(op.Key, op.Value)
		} else {
			cmd = EncodeDel(op.Key)
		}
		if err := r.Propose(cmd); err != nil {
			return Result{}, err
		}
		if err := g.c.Run(); err != nil {
			return Result{}, err
		}
		// Acknowledge only what demonstrably survived: the proposing replica
		// must still be authoritative and its machine must reflect the write.
		if !r.Authoritative() {
			return Result{}, w.unavailable(g)
		}
		v, found := g.machines[p].Get(op.Key)
		applied := (op.Op == "set" && found && v == op.Value) || (op.Op == "del" && !found)
		if !applied {
			return Result{}, fmt.Errorf("%w: write not applied before quiescence", ErrUnavailable)
		}
		w.ackSeq++
		w.acks[op.Key] = spec.KVAck{Key: op.Key, Value: op.Value, Seq: w.ackSeq, Deleted: op.Op == "del"}
		g.ops.Inc()
		return Result{Value: op.Value, Found: op.Op == "set"}, nil
	default:
		return Result{}, fmt.Errorf("shard: unknown op %q", op.Op)
	}
}

func (w *World) unavailable(g *shardGroup) error {
	return fmt.Errorf("%w (shard %d, group %s)", ErrUnavailable, g.id, g.current)
}

// ---- meta-group plumbing ----

// proposeMeta pushes one command through the meta-group's total order and
// runs the meta cluster to quiescence.
func (w *World) proposeMeta(cmd []byte) error {
	var rep *rsm.Replica
	for _, p := range w.metaProcs {
		if r := w.metaReplicas[p]; r.Authoritative() {
			rep = r
			break
		}
	}
	if rep == nil {
		return fmt.Errorf("%w (meta-group)", ErrUnavailable)
	}
	if err := rep.Propose(cmd); err != nil {
		return err
	}
	return w.meta.Run()
}

// ---- chaos controls ----

// ReconfigureShard moves shard id's group to the given membership and runs
// the cluster to quiescence.
func (w *World) ReconfigureShard(id int, set types.ProcSet) error {
	g := w.groups[id]
	if _, _, err := g.c.ReconfigureTo(set); err != nil {
		return err
	}
	g.setCurrent(set.Clone())
	return nil
}

// CrashReplica crashes one shard process. If it was a member of the current
// configuration, the group is reconfigured around it so the survivors keep
// serving.
func (w *World) CrashReplica(id int, p types.ProcID) error {
	g := w.groups[id]
	if err := g.c.Crash(p); err != nil {
		return err
	}
	if g.current.Contains(p) {
		rest := g.current.Clone()
		rest.Remove(p)
		return w.ReconfigureShard(id, rest)
	}
	return g.c.Run()
}

// RecoverReplica restarts a crashed shard process. The simulator restarts
// the end-point from its initial state; the replica is rebuilt cold from
// its durable store (LoadMachine) and rejoins unsynced — the next
// reconfiguration that includes it drives a state transfer.
func (w *World) RecoverReplica(id int, p types.ProcID) error {
	g := w.groups[id]
	if err := w.attachReplica(g, p, false, true); err != nil {
		return err
	}
	if err := g.c.Recover(p); err != nil {
		return err
	}
	return g.c.Run()
}

// PartitionShard splits shard id's cluster into the given groups (network
// and membership), running to quiescence. With quorum mode on, only a side
// holding a majority of Replicas stays authoritative.
func (w *World) PartitionShard(id int, sides ...types.ProcSet) error {
	g := w.groups[id]
	if _, err := g.c.Partition(sides...); err != nil {
		return err
	}
	for _, s := range sides {
		if s.Len() >= w.quorum() {
			g.setCurrent(s.Clone())
		}
	}
	return nil
}

// HealShard heals shard id's connectivity and reconfigures to the given
// membership (typically the pre-partition group).
func (w *World) HealShard(id int, set types.ProcSet) error {
	g := w.groups[id]
	g.c.HealConnectivity()
	return w.ReconfigureShard(id, set)
}

// ---- verification ----

// Lookup routes a key by the committed map and reads it from an
// authoritative replica of the owning shard.
func (w *World) Lookup(key string) (string, bool) {
	g := w.groups[w.committed.ShardForKey(key)]
	if g == nil {
		return "", false
	}
	p, _, ok := g.authoritative()
	if !ok {
		return "", false
	}
	return g.machines[p].Get(key)
}

// VerifyAcked checks the no-lost-acknowledged-writes invariant against the
// current committed map and authoritative replica states. Call it with every
// shard quiesced and at least one authoritative replica per shard (heal
// partitions first — a shard with no authoritative replica reads as data
// loss, which is exactly what an operator would see).
func (w *World) VerifyAcked() error {
	return spec.CheckNoLostAckedWrites(w.Acks(), w.Lookup)
}

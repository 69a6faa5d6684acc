package soak

import (
	"errors"
	"fmt"
	"time"

	"vsgm/internal/shard"
	"vsgm/internal/types"
)

// ShardConfig parameterizes the sharded-KV soak: a multi-shard World
// (internal/shard) under randomized chaos — client traffic through the
// epoch-cached router, both reshard kinds with traffic and failures
// interleaved between their steps, partitions, and crash/recovery — with
// the no-lost-acknowledged-writes checker as the run's verdict.
type ShardConfig struct {
	// Duration is the virtual-time budget; default 800ms.
	Duration time.Duration
	// Seed drives the entire schedule.
	Seed int64
	// Shards is the shard count; default 2.
	Shards int
	// Scenario is the phase mix; default ShardScenario().
	Scenario *Scenario
	// ForceViolation injects a fabricated violation at a meta-group process
	// at the end of the run.
	ForceViolation bool
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

type shardRun struct {
	chaos
	w       *shard.World
	router  *shard.Router
	nextKey int
	nextID  int

	acked   int64
	bounced int64 // retryable rejections (resharding / unavailable)
}

// RunShard executes the sharded-KV soak and returns its report. The error
// is non-nil only for harness failures; invariant violations (a lost
// acknowledged write, a spec-suite violation, a durable-store failure) land
// in the Report.
func RunShard(cfg ShardConfig) (*Report, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	s := settings{mode: "shard", duration: cfg.Duration, seed: cfg.Seed, scenario: cfg.Scenario,
		force: cfg.ForceViolation, log: cfg.Log}
	return drive(s, func(ch chaos) (*world, error) {
		w, err := shard.NewWorld(shard.WorldConfig{Shards: cfg.Shards, Seed: cfg.Seed*13 + 5})
		if err != nil {
			return nil, err
		}
		r := &shardRun{chaos: ch, w: w, router: shard.NewRouter(w, 0)}
		return &world{
			phases: map[PhaseKind]func(time.Duration) error{
				PhaseTraffic:       r.ops,
				PhaseReshardGroup:  r.reshardGroup,
				PhaseReshardSlots:  r.reshardSlots,
				PhaseReshardChurn:  r.reshardChurn,
				PhasePartitionHeal: func(time.Duration) error { return r.partitionHealOnce(r.randomShard()) },
				PhaseCrashRestart:  func(time.Duration) error { return r.crashRecoverOnce(r.randomShard()) },
			},
			now:       w.Now,
			stabilize: r.stabilize,
			verdict:   r.verdict,
			victim:    func() types.ProcID { return shard.MetaProcs(1)[0] },
			record:    w.Record,
		}, nil
	})
}

// stabilize returns every shard to its (possibly re-homed) group, fully
// connected.
func (r *shardRun) stabilize() error {
	var unstable []error
	for _, id := range r.w.ShardIDs() {
		if err := r.w.HealShard(id, r.w.Group(id)); err != nil {
			unstable = append(unstable, fmt.Errorf("shard %d did not stabilize: %w", id, err))
		}
	}
	if err := r.w.RunAll(); err != nil {
		return err
	}
	return violation(errors.Join(unstable...))
}

// verdict is the world's spec suites and durable stores, then the
// acknowledgment ledger: every acknowledged write still readable.
func (r *shardRun) verdict(rep *Report) error {
	for _, id := range r.w.ShardIDs() {
		rep.Population += len(r.w.GroupProcs(id))
	}
	rep.EventsSeen = r.acked + r.bounced
	rep.EventsChecked = r.acked
	return errors.Join(r.w.Check(), r.w.VerifyAcked())
}

// doOp issues one random client op through the router. Retryable rejections
// (a migrating slot, a shard briefly below quorum, a mid-reconfiguration
// redirect storm) are counted and tolerated; anything else is a harness
// error.
func (r *shardRun) doOp() error {
	var key string
	if r.nextKey > 0 && r.rng.Intn(3) == 0 {
		key = fmt.Sprintf("soak-%04d", r.rng.Intn(r.nextKey)) // rewrite an old key
	} else {
		key = fmt.Sprintf("soak-%04d", r.nextKey)
		r.nextKey++
	}
	err := r.router.Set(key, fmt.Sprintf("v%d", r.rng.Int31()))
	switch {
	case err == nil:
		r.acked++
		return nil
	case errors.Is(err, shard.ErrResharding),
		errors.Is(err, shard.ErrUnavailable),
		errors.Is(err, shard.ErrRedirectLoop):
		// All retryable: the client was never told the write took. A
		// redirect loop can only happen transiently here, while reshards
		// move the map underneath this very router.
		r.bounced++
		return nil
	default:
		return fmt.Errorf("soak: shard traffic: %w", err)
	}
}

func (r *shardRun) traffic(n int) error {
	for i := 0; i < n; i++ {
		if err := r.doOp(); err != nil {
			return err
		}
	}
	return nil
}

// randomShard picks a shard id.
func (r *shardRun) randomShard() int {
	ids := r.w.ShardIDs()
	return ids[r.rng.Intn(len(ids))]
}

// reshardID mints a schedule-unique proposal id.
func (r *shardRun) reshardID(prefix string) string {
	r.nextID++
	return fmt.Sprintf("%s-%d", prefix, r.nextID)
}

// buildGroupMove draws a MoveGroup proposal: a new group of the same size
// from the shard's process universe, different from the current one.
func (r *shardRun) buildGroupMove(id int) (shard.Reshard, bool) {
	universe := r.w.GroupProcs(id)
	size := r.w.Group(id).Len()
	if size <= 0 || size > len(universe) {
		return shard.Reshard{}, false
	}
	r.rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	next := types.NewProcSet(universe[:size]...)
	if next.Equal(r.w.Group(id)) {
		return shard.Reshard{}, false
	}
	return shard.Reshard{
		ID: r.reshardID("mg"), Kind: shard.MoveGroup, Shard: id, NewGroup: next.Sorted(),
	}, true
}

// buildSlotMove draws a MoveSlots proposal between two distinct shards.
func (r *shardRun) buildSlotMove() (shard.Reshard, bool) {
	ids := r.w.ShardIDs()
	if len(ids) < 2 {
		return shard.Reshard{}, false
	}
	src := ids[r.rng.Intn(len(ids))]
	dst := ids[r.rng.Intn(len(ids))]
	for dst == src {
		dst = ids[r.rng.Intn(len(ids))]
	}
	m := r.w.CommittedMap()
	owned := m.SlotsOwned(src)
	if len(owned) <= 1 { // never strip a shard of its last slot
		return shard.Reshard{}, false
	}
	lo := owned[r.rng.Intn(len(owned)-1)]
	hi := lo + r.rng.Intn(3)
	if hi >= len(m.Slots) {
		hi = len(m.Slots) - 1
	}
	return shard.Reshard{
		ID: r.reshardID("ms"), Kind: shard.MoveSlots, Shard: src, Dst: dst, SlotLo: lo, SlotHi: hi,
	}, true
}

// runReshard steps one reshard to completion, calling between after every
// step (traffic, or chaos for the churn phase). A rejected proposal or a
// step failure under chaos ends in a clean abort — legal, counted, and
// noted; the acknowledgment ledger still must verify at the end of the run.
func (r *shardRun) runReshard(rs *shard.Resharder, between func() error) error {
	for {
		done, err := rs.Step()
		if err != nil {
			r.sched.Note(r.w.Now(), PhaseKind("reshard-abort"), "%v", err)
			return nil
		}
		if done {
			return nil
		}
		if between != nil {
			if err := between(); err != nil {
				return err
			}
		}
	}
}

// churnBetween is the mid-reshard chaos hook: traffic always, plus an
// occasional crash/recover or partition/heal of a random shard while the
// handoff is in flight.
func (r *shardRun) churnBetween() func() error {
	return func() error {
		if err := r.traffic(1 + r.rng.Intn(3)); err != nil {
			return err
		}
		switch r.rng.Intn(4) {
		case 0:
			return r.crashRecoverOnce(r.randomShard())
		case 1:
			return r.partitionHealOnce(r.randomShard())
		default:
			return nil
		}
	}
}

// crashRecoverOnce crashes one member of the shard's current group (only
// when the survivors still hold quorum), serves traffic around the hole,
// then recovers and rejoins it.
func (r *shardRun) crashRecoverOnce(id int) error {
	group := r.w.Group(id)
	quorum := group.Len()/2 + 1
	if group.Len()-1 < quorum {
		return r.traffic(2)
	}
	members := group.Sorted()
	p := members[r.rng.Intn(len(members))]
	r.sched.Note(r.w.Now(), PhaseCrashRestart, "shard %d: crash %s, recover, rejoin", id, p)
	if err := r.w.CrashReplica(id, p); err != nil {
		return err
	}
	if err := r.traffic(2); err != nil {
		return err
	}
	if err := r.w.RecoverReplica(id, p); err != nil {
		return err
	}
	return r.w.ReconfigureShard(id, group)
}

// partitionHealOnce splits one shard majority/minority, serves traffic
// through the majority, then heals.
func (r *shardRun) partitionHealOnce(id int) error {
	group := r.w.Group(id)
	if group.Len() < 3 {
		return r.traffic(2)
	}
	members := group.Sorted()
	r.rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	quorum := group.Len()/2 + 1
	maj := types.NewProcSet(members[:quorum]...)
	min := types.NewProcSet(members[quorum:]...)
	r.sched.Note(r.w.Now(), PhasePartitionHeal, "shard %d: split %s | %s, heal", id, maj, min)
	if err := r.w.PartitionShard(id, maj, min); err != nil {
		return err
	}
	if err := r.traffic(3); err != nil {
		return err
	}
	return r.w.HealShard(id, group)
}

// ops issues a burst of client ops.
func (r *shardRun) ops(at time.Duration) error {
	n := 4 + r.rng.Intn(8)
	r.sched.Note(at, PhaseTraffic, "%d client ops", n)
	return r.traffic(n)
}

func (r *shardRun) reshardGroup(at time.Duration) error {
	id := r.randomShard()
	prop, ok := r.buildGroupMove(id)
	if !ok {
		return r.ops(at)
	}
	r.sched.Note(at, PhaseReshardGroup, "shard %d → group %v, traffic between steps", id, prop.NewGroup)
	return r.runReshard(shard.NewResharder(r.w, prop), func() error {
		return r.traffic(1 + r.rng.Intn(3))
	})
}

func (r *shardRun) reshardSlots(at time.Duration) error {
	prop, ok := r.buildSlotMove()
	if !ok {
		return r.ops(at)
	}
	r.sched.Note(at, PhaseReshardSlots, "slots [%d,%d] shard %d → %d, traffic between steps",
		prop.SlotLo, prop.SlotHi, prop.Shard, prop.Dst)
	return r.runReshard(shard.NewResharder(r.w, prop), func() error {
		return r.traffic(1 + r.rng.Intn(3))
	})
}

func (r *shardRun) reshardChurn(at time.Duration) error {
	var prop shard.Reshard
	var ok bool
	if r.rng.Intn(2) == 0 {
		prop, ok = r.buildGroupMove(r.randomShard())
	} else {
		prop, ok = r.buildSlotMove()
	}
	if !ok {
		return r.ops(at)
	}
	r.sched.Note(at, PhaseReshardChurn, "%s reshard %s with chaos between steps", prop.Kind, prop.ID)
	return r.runReshard(shard.NewResharder(r.w, prop), r.churnBetween())
}

package soak

import (
	"fmt"
	"math/rand"
	"time"

	"vsgm/internal/membership"
	"vsgm/internal/sim"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// WorldConfig parameterizes the large-population client-server soak: a
// simulated deployment of dedicated membership servers carrying tens of
// thousands of clients, checked by the specification suite in sampled
// mode (every k-th endpoint) so the checkers scale with the sample, not
// the population.
type WorldConfig struct {
	// Duration is the wall-clock budget for the phase loop; default 10s.
	Duration time.Duration
	// Seed drives the entire schedule.
	Seed int64
	// Servers is the number of membership servers; default 3.
	Servers int
	// Clients is the initial total client population; default 10000.
	Clients int
	// SampleEvery checks every k-th endpoint (1 = all); default 100.
	SampleEvery int
	// Scenario is the phase mix; default WorldScenario().
	Scenario *Scenario
	// ForceViolation injects a fabricated violation at a sampled client.
	ForceViolation bool
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

var worldSupported = map[PhaseKind]bool{
	PhaseFlashCrowd:     true,
	PhaseChurn:          true,
	PhasePartitionHeal:  true,
	PhaseOscillate:      true,
	PhaseFlappingLink:   true,
	PhaseCorruptCounter: true,
	PhaseStateScramble:  true,
}

// worldConvergeBudget bounds how many misaligned membership views one
// sampled client may install after the final heal: the simulated world
// stabilizes within a couple of reconfiguration rounds, so a modest budget
// asserts bounded (not merely eventual) convergence.
const worldConvergeBudget = 8

type worldRun struct {
	cfg     WorldConfig
	w       *sim.ServerWorld
	rng     *rand.Rand
	sched   *Schedule
	start   time.Time
	joinSeq int
}

// RunWorld executes the large-population soak and returns its report.
func RunWorld(cfg WorldConfig) (*Report, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 3
	}
	if cfg.Servers < 2 {
		return nil, fmt.Errorf("soak: world needs at least 2 servers, got %d", cfg.Servers)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 10000
	}
	if cfg.Clients < cfg.Servers {
		return nil, fmt.Errorf("soak: world needs at least one client per server")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 100
	}
	if cfg.Scenario == nil {
		cfg.Scenario = WorldScenario()
	}
	if err := cfg.Scenario.validate(worldSupported); err != nil {
		return nil, err
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	keep := spec.SampleEveryKth(cfg.SampleEvery)
	// Membership safety only: liveness checking is unsound on a sampled
	// trace, and per-message checkers would see sender-projected deliveries
	// anyway — the world runner sends no application traffic.
	suite := spec.FullSuite(spec.WithTrace(), spec.WithSample(keep))

	w, err := sim.NewServerWorld(sim.ServerWorldConfig{
		Servers:          cfg.Servers,
		ClientsPerServer: cfg.Clients / cfg.Servers,
		Seed:             cfg.Seed*7 + 1,
		Suite:            suite,
	})
	if err != nil {
		return nil, err
	}
	if err := w.Boot(); err != nil {
		return nil, err
	}

	r := &worldRun{
		cfg:   cfg,
		w:     w,
		rng:   rng,
		sched: &Schedule{Scenario: cfg.Scenario.Name, Seed: cfg.Seed},
		start: time.Now(),
	}
	report := &Report{Mode: "world", Seed: cfg.Seed, Schedule: r.sched, SampleEvery: cfg.SampleEvery}

	for time.Since(r.start) < cfg.Duration {
		if err := r.phase(cfg.Scenario.pick(rng)); err != nil {
			return nil, err
		}
		cfg.Log("world soak: step %d done, population %d, %v elapsed",
			len(r.sched.Steps), len(w.Clients()), time.Since(r.start).Round(time.Millisecond))
	}

	// Stabilize: heal everything and drive one final view over the whole
	// population. The trace index at the heal is the convergence mark —
	// every injection has ceased, so alignment must follow within budget.
	mark := len(suite.Trace())
	if err := w.HealServers(); err != nil {
		return nil, err
	}
	if err := w.TriggerChange(); err != nil {
		return nil, err
	}

	if cfg.ForceViolation {
		victim := r.sampledClient(keep)
		r.sched.Note(time.Since(r.start), PhaseKind("forced-violation"), "injected regressing membership view at %s", victim)
		suite.OnEvent(forcedViolation(victim))
	}

	report.violate(suite.Err())
	if report.OK() {
		report.violate(r.checkConvergence(suite, keep, mark))
	}
	report.Population = len(w.Clients())
	report.EventsSeen, report.EventsChecked = suite.SampleStats()
	report.Elapsed = time.Since(r.start)
	return report, nil
}

// sampledClient returns an attached client the sampling predicate keeps
// (falling back to the first client if the sample is empty).
func (r *worldRun) sampledClient(keep func(types.ProcID) bool) types.ProcID {
	clients := r.w.Clients()
	for _, c := range clients {
		if keep(c) {
			return c
		}
	}
	return clients[0]
}

// checkConvergence hands the sampled trace to the spec-level convergence
// checker: every sampled attached client must reach the same view over the
// full population within worldConvergeBudget reconfiguration rounds of the
// final heal — the flash crowds, churn storms, scrambles, and resurrections
// all merged back into one agreed view, boundedly.
func (r *worldRun) checkConvergence(suite *spec.Suite, keep func(types.ProcID) bool, mark int) error {
	want := types.NewProcSet(r.w.Clients()...)
	sampled := types.NewProcSet()
	for _, c := range r.w.Clients() {
		if keep(c) {
			sampled.Add(c)
		}
	}
	if sampled.Len() == 0 {
		return fmt.Errorf("soak: sampling stride %d kept no clients out of %d", r.cfg.SampleEvery, want.Len())
	}
	return spec.CheckConvergence(suite.Trace(), mark, sampled, want, worldConvergeBudget)
}

// freshJoiners mints n never-used client identifiers.
func (r *worldRun) freshJoiners(n int) []types.ProcID {
	ids := make([]types.ProcID, n)
	for i := range ids {
		ids[i] = types.ProcID(fmt.Sprintf("j%06d", r.joinSeq))
		r.joinSeq++
	}
	return ids
}

// attachSpread attaches ids round-robin across the servers.
func (r *worldRun) attachSpread(ids []types.ProcID) error {
	servers := r.w.Servers()
	for i, sid := range servers {
		var batch []types.ProcID
		for j := i; j < len(ids); j += len(servers) {
			batch = append(batch, ids[j])
		}
		if len(batch) == 0 {
			continue
		}
		if err := r.w.AttachClients(sid, batch); err != nil {
			return err
		}
	}
	return nil
}

// serverSplit draws a random 2-way split of the server set.
func (r *worldRun) serverSplit() (types.ProcSet, types.ProcSet) {
	servers := r.w.Servers()
	r.rng.Shuffle(len(servers), func(i, j int) { servers[i], servers[j] = servers[j], servers[i] })
	mid := 1 + r.rng.Intn(len(servers)-1)
	return types.NewProcSet(servers[:mid]...), types.NewProcSet(servers[mid:]...)
}

func (r *worldRun) phase(kind PhaseKind) error {
	at := time.Since(r.start)
	switch kind {
	case PhaseFlashCrowd:
		n := 1000 + r.rng.Intn(2000)
		ids := r.freshJoiners(n)
		r.sched.Note(at, kind, "%d clients join in one instant (%s..%s)", n, ids[0], ids[n-1])
		if err := r.attachSpread(ids); err != nil {
			return err
		}
		return r.w.TriggerChange()

	case PhaseChurn:
		clients := r.w.Clients()
		depart := len(clients) * (10 + r.rng.Intn(21)) / 100
		if max := len(clients) - r.cfg.Servers; depart > max {
			depart = max
		}
		if depart <= 0 {
			return nil
		}
		r.rng.Shuffle(len(clients), func(i, j int) { clients[i], clients[j] = clients[j], clients[i] })
		arrive := 1 + r.rng.Intn(depart)
		r.sched.Note(at, kind, "%d clients leave, %d fresh clients join", depart, arrive)
		if err := r.w.DetachClients(clients[:depart]...); err != nil {
			return err
		}
		if err := r.attachSpread(r.freshJoiners(arrive)); err != nil {
			return err
		}
		return r.w.TriggerChange()

	case PhasePartitionHeal:
		left, right := r.serverSplit()
		r.sched.Note(at, kind, "server split %s | %s, stabilize both sides, heal", left, right)
		if err := r.w.PartitionServers(left, right); err != nil {
			return err
		}
		return r.w.HealServers()

	case PhaseOscillate:
		left, right := r.serverSplit()
		flips := 2 + r.rng.Intn(2)
		r.sched.Note(at, kind, "%d rapid flips of server split %s | %s", flips, left, right)
		for i := 0; i < flips; i++ {
			if err := r.w.PartitionServers(left, right); err != nil {
				return err
			}
			if err := r.w.HealServers(); err != nil {
				return err
			}
		}
		return nil

	case PhaseFlappingLink:
		// The world's detectors are driven directly (no heartbeats to score),
		// so this phase exercises the membership protocol under a flapping
		// verdict rather than the damping itself: one server's reachability
		// flips several times faster than a full stabilization, and every
		// flip must still converge to agreed views.
		servers := r.w.Servers()
		victim := servers[r.rng.Intn(len(servers))]
		rest := types.NewProcSet(servers...).Minus(types.NewProcSet(victim))
		flips := 3 + r.rng.Intn(3)
		r.sched.Note(at, kind, "%d rapid reachability flips of %s against %s", flips, victim, rest)
		for i := 0; i < flips; i++ {
			if err := r.w.PartitionServers(types.NewProcSet(victim), rest); err != nil {
				return err
			}
			if err := r.w.HealServers(); err != nil {
				return err
			}
		}
		return nil

	case PhaseCorruptCounter:
		clients := r.w.Clients()
		victim := clients[r.rng.Intn(len(clients))]
		oldHome := r.w.HomeOf(victim)
		servers := r.w.Servers()
		newHome := servers[r.rng.Intn(len(servers))]
		for newHome == oldHome {
			newHome = servers[r.rng.Intn(len(servers))]
		}
		// Two corruption flavours: a huge (but overflow-safe) identifier
		// triple, and a wrapped attach epoch whose cid floor (epoch<<32)
		// overflows int64 back to zero.
		rec := membership.ClientRecord{CID: 1 << 40, Vid: 1 << 40, Epoch: 1 << 7}
		flavour := "huge counters"
		if r.rng.Intn(2) == 0 {
			rec = membership.ClientRecord{CID: 7, Vid: 3, Epoch: 1 << 33}
			flavour = "wrapped epoch"
		}
		r.sched.Note(at, kind, "resurrect %s at %s with %s (cid=%d vid=%d epoch=%d)",
			victim, newHome, flavour, rec.CID, rec.Vid, rec.Epoch)
		if err := r.w.DetachClients(victim); err != nil {
			return err
		}
		r.w.Server(newHome).RestoreRecords(map[types.ProcID]membership.ClientRecord{victim: rec})
		if err := r.w.AttachClients(newHome, []types.ProcID{victim}); err != nil {
			return err
		}
		return r.w.TriggerChange()

	case PhaseStateScramble:
		clients := r.w.Clients()
		servers := r.w.Servers()
		sid := servers[r.rng.Intn(len(servers))]
		n := 1 + r.rng.Intn(4)
		recs := make(map[types.ProcID]membership.ClientRecord, n)
		for i := 0; i < n; i++ {
			victim := clients[r.rng.Intn(len(clients))]
			// Fully arbitrary 64-bit patterns: mostly impossible (negative,
			// above the ceilings — the sanitizer must clamp them), sometimes
			// huge-but-legal (the protocol must absorb them monotonically).
			recs[victim] = membership.ClientRecord{
				CID:   types.StartChangeID(r.rng.Uint64()),
				Vid:   types.ViewID(r.rng.Uint64()),
				Epoch: int64(r.rng.Uint64()),
			}
		}
		r.sched.Note(at, kind, "scramble %d retained records at %s with arbitrary identifiers", n, sid)
		r.w.Server(sid).RestoreRecords(recs)
		return r.w.TriggerChange()

	default:
		return fmt.Errorf("soak: world runner cannot execute phase %q", kind)
	}
}

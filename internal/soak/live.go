package soak

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vsgm/internal/live"
	"vsgm/internal/membership"
	"vsgm/internal/obs"
	"vsgm/internal/spec"
	"vsgm/internal/types"
	"vsgm/internal/wal"
	"vsgm/internal/wire"
)

// LiveConfig parameterizes the live-cluster soak: membership servers and
// client nodes on real TCP loopback sockets, file-backed server state, and
// scripted kill/restart/partition orchestration under the full spec suite.
type LiveConfig struct {
	// Duration is the wall-clock budget for the phase loop; default 20s.
	Duration time.Duration
	// Seed drives the entire schedule.
	Seed int64
	// StateRoot is where per-server file stores live; default a temp dir
	// (removed on success, kept on violation for post-mortems).
	StateRoot string
	// Scenario is the phase mix; default LiveScenario().
	Scenario *Scenario
	// ChurnBudget bounds how many membership views one client may install
	// per chaos transition over the whole run (spec.CheckChurn; every block,
	// heal, kill, restart, or injection is one transition). 0 selects
	// liveChurnBudget.
	ChurnBudget int
	// ForceViolation injects a fabricated violation at the end of the run.
	ForceViolation bool
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

// liveConvergeBudget bounds how many misaligned membership views one client
// may install after the final heal before the run is a convergence
// violation. Live re-homing storms legitimately deliver a handful of
// partial views while the detectors re-admit everyone; the budget asserts
// boundedness, not a tight constant.
const liveConvergeBudget = 32

// liveChurnBudget is the default CheckChurn allowance: membership views one
// client may install per chaos transition across the whole run. Live
// re-homing legitimately installs a handful of views per transition; an
// undamped detector on a flapping link installs them without bound.
const liveChurnBudget = 16

const (
	// liveServers and liveClients size the deployment.
	liveServers = 3
	liveClients = 6
	// liveConvergeTimeout bounds every stabilization wait; a wait that
	// times out is a (liveness) violation.
	liveConvergeTimeout = 15 * time.Second
	// liveAttachLease is 25 keepalive intervals: far past any chaos-induced
	// keepalive gap, yet well inside the converge timeout, so a crowd
	// straggler whose attach landed after its node closed is evicted before
	// the next phase's full-view wait gives up.
	liveAttachLease = time.Second
	liveHBInterval  = 20 * time.Millisecond
	liveHBTimeout   = 150 * time.Millisecond
)

type liveRun struct {
	chaos
	cfg       LiveConfig
	start     time.Time
	d         *live.Deployment
	serverIDs []types.ProcID
	serverSet types.ProcSet
	reg       *obs.Registry // every node's numbers, and the tracer's
	tracer    *obs.Tracer
	crowdSeq  int

	// transitions counts the adversary's reachability/state flips (each
	// block, heal, kill, restart, and injection is one) — the denominator
	// of the bounded-churn check.
	transitions int
	// retired accumulates the detector counters of servers that were
	// killed, so end-of-run totals survive restarts replacing the nodes.
	retired [3]float64
}

// RunLive executes the live-cluster soak and returns its report.
func RunLive(cfg LiveConfig) (*Report, error) {
	if cfg.ChurnBudget <= 0 {
		cfg.ChurnBudget = liveChurnBudget
	}
	removeState := false
	if cfg.StateRoot == "" {
		dir, err := os.MkdirTemp("", "vsgm-soak-live-*")
		if err != nil {
			return nil, err
		}
		cfg.StateRoot = dir
		removeState = true
	}
	r := &liveRun{cfg: cfg, reg: obs.NewRegistry()}
	r.tracer = obs.NewTracer(r.reg)
	defer func() {
		if r.d != nil {
			r.d.Close()
		}
	}()
	s := settings{duration: cfg.Duration, seed: cfg.Seed, scenario: cfg.Scenario,
		force: cfg.ForceViolation, log: cfg.Log}
	rep, err := drive(s, func(ch chaos) (*world, error) {
		r.chaos = ch
		if err := r.boot(); err != nil {
			return nil, err
		}
		r.start = time.Now()
		if err := r.waitFullView("initial full view", 0); err != nil {
			return nil, fmt.Errorf("soak: live cluster never booted: %w", err)
		}
		return r.world(), nil
	})
	if rep != nil && rep.OK() && removeState {
		os.RemoveAll(cfg.StateRoot)
	}
	return rep, err
}

// world is the live deployment as the loop drives it. Every phase ends with
// the spec suite's verdict so far: a violation stops the run at the phase
// that caused it.
func (r *liveRun) world() *world {
	phases := map[PhaseKind]func(time.Duration) error{
		PhaseTraffic:        r.traffic,
		PhasePartitionHeal:  r.partitionHeal,
		PhaseOscillate:      r.oscillate,
		PhaseFlappingLink:   r.flappingLink,
		PhaseGrayFailure:    r.grayFailure,
		PhaseCrashRestart:   r.crashRestart,
		PhaseFlashCrowd:     r.flashCrowd,
		PhaseStaleResurrect: r.staleResurrect,
		PhaseCorruptCounter: r.corruptCounter,
		PhaseWALScramble:    r.walScramble,
		PhaseStateScramble:  r.stateScramble,
		PhaseClientScramble: r.clientScramble,
	}
	for kind, body := range phases {
		phases[kind] = func(at time.Duration) error {
			if err := body(at); err != nil {
				return err
			}
			if verr := r.d.SpecErr(); verr != nil {
				return violationf("spec violation after %s phase: %v", kind, verr)
			}
			return nil
		}
	}
	return &world{
		phases:    phases,
		now:       func() time.Duration { return time.Since(r.start) },
		stabilize: r.stabilize,
		verdict:   r.verdict,
		victim:    func() types.ProcID { return r.d.ClientIDs()[0] },
		record:    func(ev spec.Event) { r.d.Record(ev) },
		tracer:    r.tracer,
	}
}

// stabilize heals everything and runs one more round, then holds the run to
// the bounded-convergence property from the heal mark and the bounded-churn
// property over the whole run.
func (r *liveRun) stabilize() error {
	r.d.Heal()
	r.transitions++
	mark := len(r.d.Trace())
	if err := r.settle("final full view"); err != nil {
		return err
	}
	if err := r.trafficRound("final"); err != nil {
		return err
	}
	all, trace := r.d.ClientSet(), r.d.Trace()
	if err := spec.CheckConvergence(trace, mark, all, all, liveConvergeBudget); err != nil {
		return violation(err)
	}
	return violation(spec.CheckChurn(trace, 0, r.transitions, r.cfg.ChurnBudget, all))
}

// verdict is the deployment's: the spec suite and the pooled-buffer audit
// of every node the run ever started.
func (r *liveRun) verdict(rep *Report) error {
	rep.Population = len(r.d.ClientIDs())
	rep.ChaosTransitions = r.transitions
	det := r.detectorCounts("")
	rep.DetectorFlaps = int64(r.retired[0] + det[0])
	rep.DetectorQuarantines = int64(r.retired[1] + det[1])
	rep.DetectorGrayDrops = int64(r.retired[2] + det[2])
	return r.d.Close()
}

// boot builds the deployment — file-backed servers, attach-protocol clients
// with rotated home lists, every node on the run's registry — and turns the
// heartbeats on.
func (r *liveRun) boot() error {
	d, err := live.NewDeployment(live.DeploymentConfig{
		Servers: liveServers,
		Clients: liveClients,
		Attach:  true,
		Server:  r.configureServer,
		Node:    func(_ int, cfg *live.NodeConfig) { cfg.Obs, cfg.Tracer = r.reg, r.tracer },
	})
	if err != nil {
		return err
	}
	r.d = d
	r.serverIDs = d.ServerIDs()
	r.serverSet = types.NewProcSet(r.serverIDs...)
	d.SetReachable()
	d.StartHeartbeats(liveHBInterval, liveHBTimeout)
	return nil
}

// configureServer is the deployment's server hook: every start of sid,
// restarts included, runs on whatever sid's state directory now holds.
func (r *liveRun) configureServer(sid types.ProcID, cfg *live.ServerConfig) error {
	cfg.AttachLease, cfg.Obs = liveAttachLease, r.reg
	store, err := live.NewFileStore(r.stateDir(sid))
	if err != nil {
		return err
	}
	cfg.Store = store
	return nil
}

func (r *liveRun) stateDir(sid types.ProcID) string {
	return filepath.Join(r.cfg.StateRoot, string(sid))
}

// revive rebuilds a killed server on its old address from whatever its
// state directory now holds, and waits for every client to re-home and the
// cluster to converge past what the phase did to the server.
func (r *liveRun) revive(sid types.ProcID, what string) error {
	if err := r.d.RestartServer(sid); err != nil {
		return err
	}
	if err := r.waitFor("all clients re-homed after "+what, func() bool {
		for _, node := range r.d.Clients() {
			if node.Home() == "" {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	return r.waitFullView("cluster converged past "+what, 0)
}

// waitFor polls cond until it holds or the converge timeout passes; a
// timeout is a liveness violation of the deployment.
func (r *liveRun) waitFor(what string, cond func() bool) error {
	return violation(r.d.WaitFor(what, liveConvergeTimeout, cond))
}

func (r *liveRun) waitFullView(what string, floor types.ViewID) error {
	return violation(r.d.WaitFullView(what, floor, liveConvergeTimeout))
}

// trafficRound retries the deployment's round, each attempt in a bounded
// window, until the converge timeout: a reconfiguration still draining from
// an earlier phase can legally erase a round (virtual synchrony delivers a
// message only in the view it was sent in), so one lost attempt is no
// violation.
func (r *liveRun) trafficRound(tag string) error {
	deadline := time.Now().Add(liveConvergeTimeout)
	for {
		err := r.d.TrafficRound(tag, min(2*time.Second, time.Until(deadline)))
		if err == nil || time.Until(deadline) <= 0 {
			return violation(err)
		}
	}
}

// detectorCounts reads the flap, quarantine and gray-downgrade counters
// from the registry for server sid, or summed over every server when sid is
// empty.
func (r *liveRun) detectorCounts(sid types.ProcID) [3]float64 {
	var out [3]float64
	names := []string{"vsgm_detector_flaps_total", "vsgm_detector_quarantines_total", "vsgm_detector_gray_downgrades_total"}
	for _, s := range r.reg.Snapshot().Samples {
		i := slices.Index(names, s.Name)
		for _, l := range s.Labels {
			if i >= 0 && l.Key == "server" && (sid == "" || l.Value == string(sid)) {
				out[i] += s.Value
			}
		}
	}
	return out
}

// serverPair draws a random ordered pair of distinct servers.
func (r *liveRun) serverPair() (types.ProcID, types.ProcID) {
	i := r.rng.Intn(len(r.serverIDs))
	j := r.rng.Intn(len(r.serverIDs) - 1)
	if j >= i {
		j++
	}
	return r.serverIDs[i], r.serverIDs[j]
}

// serverSplit draws a random 2-way split of the server set.
func (r *liveRun) serverSplit() (types.ProcSet, types.ProcSet) {
	ids := append([]types.ProcID(nil), r.serverIDs...)
	r.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	mid := 1 + r.rng.Intn(len(ids)-1)
	return types.NewProcSet(ids[:mid]...), types.NewProcSet(ids[mid:]...)
}

// waitServersIntegrated waits until every server's failure detector has
// re-admitted every other server. Kill phases must start from this state:
// killing a server the survivors never re-admitted (because the previous
// phase restarted it milliseconds ago) causes no reachability transition,
// so no new view is owed and a floor-based expectation would wedge.
func (r *liveRun) waitServersIntegrated() error {
	return r.waitFor("all servers mutually re-admitted", func() bool {
		for _, sn := range r.d.Servers() {
			if !sn.Reachable().Equal(r.serverSet) {
				return false
			}
		}
		return true
	})
}

// settle waits for a cluster with nothing left in flight: servers mutually
// re-admitted, and every client in a full view newer than any installed so
// far, which a forced reconfiguration owes them. Only a client attached to a
// live home takes part in that view, so one still homed at a server a phase
// killed and restarted under it — its dead link not yet noticed — holds the
// wait until it has failed over and re-attached; a floor-0 wait passes on its
// stale view. The forced reconfiguration counts as a transition.
func (r *liveRun) settle(what string) error {
	if err := r.waitServersIntegrated(); err != nil {
		return err
	}
	r.transitions++
	floor := r.d.MaxViewID()
	r.d.Server(r.serverIDs[0]).Reconfigure()
	return r.waitFullView(what, floor)
}

// retire banks a server's detector counters and closes it: its restart
// replaces the collector that holds them, and end-of-run totals must survive
// that.
func (r *liveRun) retire(sid types.ProcID) {
	det := r.detectorCounts(sid)
	for i := range r.retired {
		r.retired[i] += det[i]
	}
	r.d.Server(sid).Close()
}

func (r *liveRun) traffic(at time.Duration) error {
	r.sched.Note(at, PhaseTraffic, "full multicast round from all %d clients", len(r.d.ClientIDs()))
	return r.trafficRound(fmt.Sprintf("t%d", len(r.sched.Steps)))
}

func (r *liveRun) partitionHeal(at time.Duration) error {
	left, right := r.serverSplit()
	r.sched.Note(at, PhasePartitionHeal, "split %s | %s, stabilize both sides, heal", left, right)
	r.transitions += 2 // the split and the heal
	comps := r.d.Partition(left, right)
	// Each side settles on a view over exactly its own clients.
	if err := r.waitFor("both sides of the partition stabilize", func() bool {
		for _, comp := range comps {
			side := comp.Minus(r.serverSet)
			for p := range side {
				if !r.d.Client(p).CurrentView().Members.Equal(side) {
					return false
				}
			}
		}
		return true
	}); err != nil {
		return err
	}
	r.d.Heal()
	// Floor 0, not the pre-partition view id: if every client happened to
	// be homed on one side, the split was vacuous — no view ever shrank,
	// detectors may not even fire before the heal — and no new view is
	// owed. A full-membership view at every client IS the merge.
	return r.waitFullView("merged view after heal", 0)
}

func (r *liveRun) oscillate(at time.Duration) error {
	left, right := r.serverSplit()
	flips := 2 + r.rng.Intn(3)
	r.sched.Note(at, PhaseOscillate, "%d rapid flips of %s | %s", flips, left, right)
	r.transitions += 2 * flips
	for i := 0; i < flips; i++ {
		r.d.Partition(left, right)
		time.Sleep(time.Duration(50+r.rng.Intn(150)) * time.Millisecond)
		r.d.Heal()
		time.Sleep(time.Duration(50+r.rng.Intn(100)) * time.Millisecond)
	}
	return r.waitFullView("full view after oscillation", 0)
}

func (r *liveRun) crashRestart(at time.Duration) error {
	sid := r.serverIDs[r.rng.Intn(len(r.serverIDs))]
	// The kill only owes the survivors a new view if the victim was
	// integrated when it died.
	if err := r.waitServersIntegrated(); err != nil {
		return err
	}
	floor := r.d.MaxViewID()
	r.sched.Note(at, PhaseCrashRestart, "kill %s, converge on survivors, restart it from its store", sid)
	r.transitions += 2 // the kill and the restart
	r.retire(sid)
	if err := r.waitFor("orphans of "+string(sid)+" re-home at survivors", func() bool {
		for _, node := range r.d.Clients() {
			if h := node.Home(); h == "" || h == sid {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	if err := r.waitFullView("survivors reinstall the full view", floor); err != nil {
		return err
	}
	return r.revive(sid, "the restart")
}

func (r *liveRun) flashCrowd(at time.Duration) error {
	n := 3 + r.rng.Intn(3)
	fresh := make([]types.ProcID, n)
	for i := range fresh {
		fresh[i] = types.ProcID(fmt.Sprintf("flash%d", r.crowdSeq))
		r.crowdSeq++
	}
	r.sched.Note(at, PhaseFlashCrowd, "%d clients join in one burst, one round of traffic, then leave", n)
	r.transitions += 2 // the burst admission and the departure
	// The whole phase leans on floor-based waits, and its reconfigurations
	// (burst admission, departure shrink) may be triggered at any one
	// server: they reach clients homed elsewhere only if the servers are
	// mutually re-admitted after whatever restarts preceded this phase.
	// Nothing below kills a server, so integration holds throughout.
	if err := r.waitServersIntegrated(); err != nil {
		return err
	}
	floor := r.d.MaxViewID()
	if err := r.d.AddClients(fresh...); err != nil {
		return err
	}
	if err := r.waitFullView("burst admitted into one view", floor); err != nil {
		return err
	}
	if err := r.trafficRound("flash"); err != nil {
		return err
	}
	// Departure: close each crowd node and deregister it at whichever
	// server still holds it (closing sends no detach of its own). The
	// removal must be retried until it sticks: an attach request that
	// timed out during the burst can land at a server after a one-shot
	// scan, resurrecting the registration of a closed client — whose
	// membership views would then never complete their sync round.
	floor = r.d.MaxViewID()
	for _, cid := range fresh {
		r.d.CloseClient(cid)
	}
	if err := r.waitFor("crowd deregistered at every server", func() bool {
		clean := true
		for _, sn := range r.d.Servers() {
			for _, cid := range fresh {
				if sn.Clients().Contains(cid) {
					sn.RemoveClient(cid)
					sn.Reconfigure()
					clean = false
				}
			}
		}
		return clean
	}); err != nil {
		return err
	}
	return r.waitFullView("view shrinks after the crowd departs", floor)
}

func (r *liveRun) staleResurrect(at time.Duration) error {
	sid := r.serverIDs[r.rng.Intn(len(r.serverIDs))]
	sn := r.d.Server(sid)
	backup := filepath.Join(r.cfg.StateRoot, string(sid)+".stale")
	r.sched.Note(at, PhaseStaleResurrect, "snapshot %s's store, advance identifiers, resurrect it from the stale generation", sid)
	r.transitions += 3 // the advance, the kill, the resurrection
	// Point-in-time backup of the current (soon to be stale) generation.
	if err := wal.CloneDir(r.stateDir(sid), backup); err != nil {
		return err
	}
	// Advance identifier state past the backup. The reconfiguring server
	// must be integrated first: an attempt run by a server its peers have
	// not re-admitted cannot install views at clients homed elsewhere.
	if err := r.waitServersIntegrated(); err != nil {
		return err
	}
	floor := r.d.MaxViewID()
	sn.Reconfigure()
	if err := r.waitFullView("identifiers advanced past the backup", floor); err != nil {
		return err
	}
	// Kill, roll the store back to the stale generation, restart.
	r.retire(sid)
	if err := wal.CloneDir(backup, r.stateDir(sid)); err != nil {
		return err
	}
	// Epoch gossip and client-side stale-notification filtering must
	// absorb the resurrected identifiers without regressing anyone.
	return r.revive(sid, "the stale generation")
}

func (r *liveRun) corruptCounter(at time.Duration) error {
	sid := r.serverIDs[r.rng.Intn(len(r.serverIDs))]
	locals := r.d.Server(sid).Clients()
	ids := r.d.ClientIDs()
	victim := ids[r.rng.Intn(len(ids))]
	if locals.Len() > 0 {
		victim = locals.Sorted()[r.rng.Intn(locals.Len())]
	}
	rec := wire.WALRecord{Client: victim, CID: 1 << 40, Vid: 1 << 40, Epoch: 1 << 7}
	flavour := "huge counters"
	if r.rng.Intn(2) == 0 {
		rec = wire.WALRecord{Client: victim, CID: 7, Vid: 3, Epoch: 1 << 33}
		flavour = "wrapped epoch"
	}
	r.sched.Note(at, PhaseCorruptCounter, "kill %s, append %s for %s (cid=%d vid=%d epoch=%d) to its WAL, restart",
		sid, flavour, victim, rec.CID, rec.Vid, rec.Epoch)
	r.transitions += 2 // the kill and the restart
	r.retire(sid)
	store, err := live.NewFileStore(r.stateDir(sid))
	if err != nil {
		return err
	}
	if err := store.Append(rec); err != nil {
		store.Close()
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	// The corrupted record must be absorbed monotonically: if the victim
	// re-registers here its identifiers jump above the bogus values; if
	// it settled elsewhere the record stays inert. Either way the view
	// must reconverge and the suite stay green.
	return r.revive(sid, "the corrupted record")
}

func (r *liveRun) walScramble(at time.Duration) error {
	sid := r.serverIDs[r.rng.Intn(len(r.serverIDs))]
	// The restart only re-integrates cleanly if the victim was integrated
	// when it died (same reasoning as the crash-restart phase).
	if err := r.waitServersIntegrated(); err != nil {
		return err
	}
	r.retire(sid)
	detail, err := r.scrambleStateDir(r.stateDir(sid))
	if err != nil {
		return err
	}
	r.sched.Note(at, PhaseWALScramble, "kill %s, %s, restart through fsck/repair", sid, detail)
	r.transitions += 2 // the kill and the restart
	// The fsck pass quarantined whatever the scramble destroyed; any
	// identifier state it lost must be re-floated by attach claims, and
	// the whole cluster must reconverge on one full view.
	return r.revive(sid, "the scrambled store")
}

func (r *liveRun) stateScramble(at time.Duration) error {
	sid := r.serverIDs[r.rng.Intn(len(r.serverIDs))]
	sn := r.d.Server(sid)
	// The injection forces a reconfiguration at sid; it reaches clients
	// homed elsewhere only once the servers are mutually re-admitted.
	if err := r.waitServersIntegrated(); err != nil {
		return err
	}
	ids := r.d.ClientIDs()
	n := 1 + r.rng.Intn(3)
	recs := make(map[types.ProcID]membership.ClientRecord, n)
	for i := 0; i < n; i++ {
		victim := ids[r.rng.Intn(len(ids))]
		recs[victim] = membership.ClientRecord{
			CID:   types.StartChangeID(r.rng.Uint64()),
			Vid:   types.ViewID(r.rng.Uint64()),
			Epoch: int64(r.rng.Uint64()),
		}
	}
	r.sched.Note(at, PhaseStateScramble, "inject %d adversarially random records into %s's retained state", len(recs), sid)
	r.transitions++
	sn.InjectRecords(recs)
	return r.waitFullView("cluster converged past the scrambled records", 0)
}

func (r *liveRun) clientScramble(at time.Duration) error {
	ids := r.d.ClientIDs()
	victim := ids[r.rng.Intn(len(ids))]
	node := r.d.Client(victim)
	// Two flavours, mirroring the server-side scramble: impossible
	// values (above the plausibility ceilings, negative) that the node
	// must self-clamp, and huge-but-possible values that must re-float
	// through the attach claim so the servers mint above them.
	var cid, sc types.StartChangeID
	var vid types.ViewID
	flavour := "impossible"
	if r.rng.Intn(2) == 0 {
		flavour = "huge-but-possible"
		cid = types.StartChangeID(int64(1+r.rng.Intn(1000)) << 32)
		vid = types.ViewID(1) << (40 + r.rng.Intn(8))
		sc = cid - types.StartChangeID(r.rng.Intn(5))
	} else {
		cid = types.StartChangeID(r.rng.Uint64())
		vid = types.ViewID(r.rng.Uint64())
		sc = types.StartChangeID(r.rng.Uint64())
	}
	r.sched.Note(at, PhaseClientScramble, "scramble %s's in-memory identifiers with %s values (cid=%d vid=%d sc=%d)",
		victim, flavour, cid, vid, sc)
	r.transitions += 2 // the scramble and the forced reconfiguration
	// The scramble lands on a settled cluster (servers mutually
	// re-admitted, so the reconfiguration observing the poisoned
	// watermarks reaches every client) with the victim attached to a live
	// home that holds the watermark the scramble erases. A victim caught
	// mid-failover carries its watermark only in the claim of its next
	// attach; erasing it there, before a home whose records an earlier
	// phase destroyed, loses the client's history outright — no protocol
	// can mint above identifiers that nobody remembers.
	if err := r.settle("cluster settled before the client scramble"); err != nil {
		return err
	}
	node.ScrambleIdentifiers(cid, vid, sc)
	// The sleep gives the victim's next attach ticks (40ms apart on a
	// loopback deployment) time to self-clamp (impossible flavour) or
	// land the scrambled claim (huge flavour) before the attempt that
	// must out-bid it.
	time.Sleep(160 * time.Millisecond)
	sn := r.d.Server(node.Home())
	if sn == nil {
		sn = r.d.Server(r.serverIDs[0])
	}
	floor := r.d.MaxViewID()
	sn.Reconfigure()
	return r.waitFullView("cluster converged past the scrambled client", floor)
}

func (r *liveRun) flappingLink(at time.Duration) error {
	a, b := r.serverPair()
	flips := 3 + r.rng.Intn(3)
	r.sched.Note(at, PhaseFlappingLink, "flap the %s<->%s link %d times (block past detection, briefly heal)", a, b, flips)
	r.transitions += 2 * flips
	// Start integrated so the first flip is a genuine verdict crossing.
	if err := r.waitServersIntegrated(); err != nil {
		return err
	}
	ca, cb := r.d.Server(a).Chaos(), r.d.Server(b).Chaos()
	for i := 0; i < flips; i++ {
		ca.BlockOutbound(b)
		cb.BlockOutbound(a)
		// Long enough for accrual suspicion to fire (phi crosses the
		// suspect threshold a few hundred ms into the silence at the
		// soak's 20ms heartbeat interval)...
		time.Sleep(time.Duration(600+r.rng.Intn(250)) * time.Millisecond)
		ca.Unblock(b)
		cb.Unblock(a)
		// ...and short enough that the restore is a flap, not a heal.
		time.Sleep(time.Duration(100+r.rng.Intn(150)) * time.Millisecond)
	}
	// Damping is allowed to hold the verdict down well past the last
	// flip (that is the point); the converge wait absorbs the final
	// quarantine before the full view is owed.
	if err := r.waitServersIntegrated(); err != nil {
		return err
	}
	return r.waitFullView("full view after link flapping", 0)
}

func (r *liveRun) grayFailure(at time.Duration) error {
	a, b := r.serverPair()
	// Break exactly one direction: b stops hearing a, while a still
	// hears b and every third party hears both.
	r.sched.Note(at, PhaseGrayFailure, "gray failure: block %s's outbound to %s, converge symmetrically, heal", a, b)
	r.transitions += 2 // the break and the heal
	if err := r.waitServersIntegrated(); err != nil {
		return err
	}
	r.d.Server(a).Chaos().BlockOutbound(b)
	// Reconciliation must converge every server on a verdict that
	// excludes the broken pairing: b suspects a outright; a downgrades b
	// on b's bitmap (the direct rule); third parties drop the
	// lexicographically larger of the pair (the pair rule). The one
	// observable all of them share: nobody keeps both a and b.
	if err := r.waitFor("gray failure reconciled symmetrically", func() bool {
		for _, sn := range r.d.Servers() {
			reach := sn.Reachable()
			if reach.Contains(a) && reach.Contains(b) {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	// Hold the broken link briefly: verdicts must not oscillate once
	// reconciled (each side would livelock the one-round protocol if
	// they disagreed, and flap if they alternated).
	time.Sleep(500 * time.Millisecond)
	for _, sn := range r.d.Servers() {
		reach := sn.Reachable()
		if reach.Contains(a) && reach.Contains(b) {
			return violationf("gray-failure verdict oscillated: %s re-admitted both %s and %s over a broken link",
				sn.ID(), a, b)
		}
	}
	r.d.Server(a).Chaos().Unblock(b)
	if err := r.waitServersIntegrated(); err != nil {
		return err
	}
	return r.waitFullView("full view after the gray failure heals", 0)
}

// scrambleStateDir corrupts one of the victim's durable state files with
// adversarially random bytes drawn from the run's PRNG. Half the damage
// modes are record-boundary-aware (randomize exactly one scanned record),
// half are blind (splice, torn tail, garbage prefix) — together they cover
// both the damage a crash plausibly leaves and damage no crash would. The
// returned description goes on the chaos schedule.
func (r *liveRun) scrambleStateDir(dir string) (string, error) {
	var targets []string
	for _, name := range []string{wal.LogName, wal.SnapshotName} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil && fi.Size() > 0 {
			targets = append(targets, name)
		}
	}
	if len(targets) == 0 {
		return "found no non-empty state files (nothing to scramble)", nil
	}
	name := targets[r.rng.Intn(len(targets))]
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	mode := r.rng.Intn(4)
	if mode == 0 {
		if scan := wal.ScanRecords(b); len(scan.Offsets) > 0 {
			i := r.rng.Intn(len(scan.Offsets))
			start := scan.Offsets[i]
			end := len(b)
			if i+1 < len(scan.Offsets) {
				end = scan.Offsets[i+1]
			}
			for j := start; j < end; j++ {
				b[j] = byte(r.rng.Intn(256))
			}
			return fmt.Sprintf("randomize record %d (bytes [%d,%d)) of %s", i, start, end, name),
				os.WriteFile(path, b, 0o644)
		}
		mode = 1 // nothing decodes: degrade to a blind splice
	}
	switch mode {
	case 1:
		off := r.rng.Intn(len(b))
		span := 1 + r.rng.Intn(len(b)-off)
		for j := off; j < off+span; j++ {
			b[j] = byte(r.rng.Intn(256))
		}
		return fmt.Sprintf("splice %d random bytes at offset %d of %s", span, off, name),
			os.WriteFile(path, b, 0o644)
	case 2:
		cut := r.rng.Intn(len(b))
		return fmt.Sprintf("tear %s to %d of %d bytes", name, cut, len(b)),
			os.WriteFile(path, b[:cut], 0o644)
	default:
		pre := make([]byte, 1+r.rng.Intn(32))
		r.rng.Read(pre)
		return fmt.Sprintf("prepend %d garbage bytes to %s", len(pre), name),
			os.WriteFile(path, append(pre, b...), 0o644)
	}
}

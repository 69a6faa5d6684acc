package soak

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"vsgm/internal/core"
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
	// Servers is the number of membership servers; default 3 (min 2).
	Servers int
	// Clients is the number of client nodes; default 6.
	Clients int
	// StateRoot is where per-server file stores live; default a temp dir
	// (removed on success, kept on violation for post-mortems).
	StateRoot string
	// ConvergeTimeout bounds every stabilization wait; default 15s. A wait
	// that times out is reported as a (liveness) violation.
	ConvergeTimeout time.Duration
	// Scenario is the phase mix; default LiveScenario().
	Scenario *Scenario
	// ChurnBudget bounds how many membership views one client may install
	// per chaos transition over the whole run (spec.CheckChurn; every block,
	// heal, kill, restart, or injection is one transition). 0 selects
	// liveChurnBudget; negative disables the check.
	ChurnBudget int
	// ForceViolation injects a fabricated violation at the end of the run.
	ForceViolation bool
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

var liveSupported = map[PhaseKind]bool{
	PhaseTraffic:        true,
	PhasePartitionHeal:  true,
	PhaseOscillate:      true,
	PhaseFlappingLink:   true,
	PhaseGrayFailure:    true,
	PhaseCrashRestart:   true,
	PhaseFlashCrowd:     true,
	PhaseStaleResurrect: true,
	PhaseCorruptCounter: true,
	PhaseWALScramble:    true,
	PhaseStateScramble:  true,
	PhaseClientScramble: true,
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

// violationError marks a phase failure that is a property of the system
// under test (a stabilization that never converged, a send that never
// unblocked) rather than of the harness.
type violationError struct{ msg string }

func (e violationError) Error() string { return e.msg }

func violationf(format string, args ...any) error {
	return violationError{msg: fmt.Sprintf(format, args...)}
}

// soakTransport mirrors the live package's test transport: timeouts shrunk
// so fault injection reconnects in soak time, not production time.
func soakTransport() live.TransportConfig {
	return live.TransportConfig{
		DialTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		BackoffBase:  10 * time.Millisecond,
		BackoffMax:   250 * time.Millisecond,
	}
}

const (
	liveWatchdog       = 25 * time.Millisecond
	liveAttachInterval = 40 * time.Millisecond
	liveAttachTimeout  = 250 * time.Millisecond
	// liveAttachLease is 25 keepalive intervals: far past any chaos-induced
	// keepalive gap, yet well inside the converge timeout, so a crowd
	// straggler whose attach landed after its node closed is evicted before
	// the next phase's full-view wait gives up.
	liveAttachLease = time.Second
	liveHBInterval  = 20 * time.Millisecond
	liveHBTimeout   = 150 * time.Millisecond
)

type liveRun struct {
	cfg       LiveConfig
	rng       *rand.Rand
	sched     *Schedule
	start     time.Time
	serverIDs []types.ProcID
	serverSet types.ProcSet
	servers   map[types.ProcID]*live.ServerNode
	clients   map[types.ProcID]*live.Node
	stateDirs map[types.ProcID]string
	reg       *obs.Registry // every node's numbers, and the tracer's
	tracer    *obs.Tracer
	crowdSeq  int
	clientSeq int // distinct MsgIDBase per node ever created, survivors and crowds alike

	// transitions counts the adversary's reachability/state flips (each
	// block, heal, kill, restart, and injection is one) — the denominator
	// of the bounded-churn check.
	transitions int
	// detStats accumulates detector counters of servers that were killed,
	// so end-of-run totals survive restarts replacing the nodes.
	detStats membership.DetectorStats

	// Collector state: the synchronous Observe/ObserveNotify/OnSend hooks of
	// every node funnel here, serialized by mu (as in the live test world).
	mu    sync.Mutex
	suite *spec.Suite
	dlvrs map[types.ProcID]int
}

// RunLive executes the live-cluster soak and returns its report.
func RunLive(cfg LiveConfig) (*Report, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 20 * time.Second
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 3
	}
	if cfg.Servers < 2 {
		return nil, fmt.Errorf("soak: live needs at least 2 servers, got %d", cfg.Servers)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 6
	}
	if cfg.ConvergeTimeout <= 0 {
		cfg.ConvergeTimeout = 15 * time.Second
	}
	if cfg.Scenario == nil {
		cfg.Scenario = LiveScenario()
	}
	if cfg.ChurnBudget == 0 {
		cfg.ChurnBudget = liveChurnBudget
	}
	if err := cfg.Scenario.validate(liveSupported); err != nil {
		return nil, err
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
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

	r := &liveRun{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		sched:     &Schedule{Scenario: cfg.Scenario.Name, Seed: cfg.Seed},
		servers:   make(map[types.ProcID]*live.ServerNode),
		clients:   make(map[types.ProcID]*live.Node),
		stateDirs: make(map[types.ProcID]string),
		suite:     spec.FullSuite(spec.WithTrace()),
		dlvrs:     make(map[types.ProcID]int),
	}
	r.reg = obs.NewRegistry()
	r.tracer = obs.NewTracer(r.reg)
	report := &Report{Mode: "live", Seed: cfg.Seed, Schedule: r.sched, SampleEvery: 1}
	defer r.closeAll()

	if err := r.boot(); err != nil {
		return nil, err
	}
	r.start = time.Now()
	if err := r.waitFullView("initial full view", 0); err != nil {
		return nil, fmt.Errorf("soak: live cluster never booted: %w", err)
	}

	var phaseErr error
	for time.Since(r.start) < cfg.Duration {
		kind := cfg.Scenario.pick(r.rng)
		if phaseErr = r.phase(kind); phaseErr != nil {
			break
		}
		if verr := r.specErr(); verr != nil {
			phaseErr = violationf("spec violation after %s phase: %v", kind, verr)
			break
		}
		cfg.Log("live soak: step %d (%s) done, %v elapsed",
			len(r.sched.Steps), kind, time.Since(r.start).Round(time.Millisecond))
	}
	var verr violationError
	if phaseErr != nil && !errors.As(phaseErr, &verr) {
		return nil, phaseErr
	}
	if phaseErr == nil {
		// Final stabilization: heal everything and run one more round, then
		// hold the run to the bounded-convergence property from the heal mark
		// and the bounded-churn property over the whole run.
		r.healAll()
		r.transitions++
		r.mu.Lock()
		mark := len(r.suite.Trace())
		r.mu.Unlock()
		if err := r.settle("final full view"); err != nil {
			phaseErr = err
		} else if err := r.trafficRound("final"); err != nil {
			phaseErr = err
		} else {
			all := r.clientSet()
			r.mu.Lock()
			cerr := spec.CheckConvergence(r.suite.Trace(), mark, all, all, liveConvergeBudget)
			if cerr == nil && cfg.ChurnBudget > 0 {
				cerr = spec.CheckChurn(r.suite.Trace(), 0, r.transitions, cfg.ChurnBudget, all)
			}
			r.mu.Unlock()
			if cerr != nil {
				phaseErr = violationf("%v", cerr)
			}
		}
	}

	if cfg.ForceViolation {
		victim := r.clientIDs()[0]
		r.sched.Note(time.Since(r.start), PhaseKind("forced-violation"), "injected regressing membership view at %s", victim)
		r.mu.Lock()
		injectForcedViolation(r.suite, victim)
		r.mu.Unlock()
	}

	if phaseErr != nil {
		report.violate(phaseErr)
	}
	report.violate(r.specErr())
	report.Population = len(r.clients)
	report.ChaosTransitions = r.transitions
	det := r.detStats
	for _, sn := range r.servers {
		st := sn.DetectorStats()
		det.Flaps += st.Flaps
		det.Quarantines += st.Quarantines
		det.GrayDowngrades += st.GrayDowngrades
	}
	report.DetectorFlaps = det.Flaps
	report.DetectorQuarantines = det.Quarantines
	report.DetectorGrayDrops = det.GrayDowngrades
	r.mu.Lock()
	report.EventsSeen, report.EventsChecked = r.suite.SampleStats()
	r.mu.Unlock()
	report.Elapsed = time.Since(r.start)
	if !report.OK() {
		report.Timeline = r.tracer.TimelineString()
	} else if removeState {
		defer os.RemoveAll(cfg.StateRoot)
	}
	return report, nil
}

// boot builds the deployment: file-backed servers, attach-protocol clients
// with rotated home lists, spec collection on every node, heartbeats on.
func (r *liveRun) boot() error {
	r.serverIDs = make([]types.ProcID, r.cfg.Servers)
	for i := range r.serverIDs {
		r.serverIDs[i] = types.ProcID(fmt.Sprintf("srv%d", i))
	}
	r.serverSet = types.NewProcSet(r.serverIDs...)

	for _, sid := range r.serverIDs {
		dir := filepath.Join(r.cfg.StateRoot, string(sid))
		r.stateDirs[sid] = dir
		sn, err := r.newServer(sid, "127.0.0.1:0", dir)
		if err != nil {
			return err
		}
		r.servers[sid] = sn
	}
	for i := 0; i < r.cfg.Clients; i++ {
		cid := types.ProcID(fmt.Sprintf("cli%d", i))
		node, err := r.newClient(cid, i)
		if err != nil {
			return err
		}
		r.clients[cid] = node
	}
	r.setPeersEverywhere()
	for _, sn := range r.servers {
		sn.SetReachable(r.serverSet)
		sn.StartHeartbeats(r.serverSet, liveHBInterval, liveHBTimeout)
	}
	return nil
}

func (r *liveRun) newServer(sid types.ProcID, addr, stateDir string) (*live.ServerNode, error) {
	store, err := live.NewFileStore(stateDir)
	if err != nil {
		return nil, err
	}
	sn, err := live.NewServerNode(live.ServerConfig{
		ID:          sid,
		Addr:        addr,
		Servers:     r.serverSet,
		Store:       store,
		Watchdog:    liveWatchdog,
		AttachLease: liveAttachLease,
		Transport:   soakTransport(),
		Obs:         r.reg,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	return sn, nil
}

func (r *liveRun) newClient(cid types.ProcID, rotate int) (*live.Node, error) {
	homeList := make([]types.ProcID, len(r.serverIDs))
	for j := range homeList {
		homeList[j] = r.serverIDs[(rotate+j)%len(r.serverIDs)]
	}
	r.clientSeq++
	return live.NewNode(live.NodeConfig{
		ID:             cid,
		Addr:           "127.0.0.1:0",
		AutoBlock:      true,
		MsgIDBase:      int64(r.clientSeq) * 1_000_000,
		HomeServers:    homeList,
		AttachInterval: liveAttachInterval,
		AttachTimeout:  liveAttachTimeout,
		Transport:      soakTransport(),
		Obs:            r.reg,
		Tracer:         r.tracer,
		Observe:        func(ev core.Event) { r.onEvent(cid, ev) },
		OnSend:         func(m types.AppMsg) { r.onSend(cid, m.ID) },
		ObserveNotify:  func(n membership.Notification) { r.onNotify(cid, n) },
	})
}

func (r *liveRun) onEvent(p types.ProcID, ev core.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e := ev.(type) {
	case core.DeliverEvent:
		r.dlvrs[p]++
		r.suite.OnEvent(spec.EDeliver{P: p, From: e.Sender, MsgID: e.Msg.ID})
	case core.ViewEvent:
		r.suite.OnEvent(spec.EView{P: p, View: e.View, Trans: e.TransitionalSet, HasTrans: true})
	case core.BlockEvent:
		r.suite.OnEvent(spec.EBlock{P: p})
		r.suite.OnEvent(spec.EBlockOK{P: p})
	}
}

func (r *liveRun) onNotify(p types.ProcID, n membership.Notification) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch n.Kind {
	case membership.NotifyStartChange:
		r.suite.OnEvent(spec.EMStartChange{P: p, SC: n.StartChange})
	case membership.NotifyView:
		r.suite.OnEvent(spec.EMView{P: p, View: n.View})
	}
}

func (r *liveRun) onSend(p types.ProcID, id int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.suite.OnEvent(spec.ESend{P: p, MsgID: id})
}

func (r *liveRun) specErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suite.Err()
}

func (r *liveRun) deliveredSnapshot() map[types.ProcID]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[types.ProcID]int, len(r.dlvrs))
	for k, v := range r.dlvrs {
		out[k] = v
	}
	return out
}

func (r *liveRun) clientIDs() []types.ProcID {
	out := make([]types.ProcID, 0, len(r.clients))
	for cid := range r.clients {
		out = append(out, cid)
	}
	set := types.NewProcSet(out...)
	return set.Sorted()
}

func (r *liveRun) clientSet() types.ProcSet {
	s := types.NewProcSet()
	for cid := range r.clients {
		s.Add(cid)
	}
	return s
}

func (r *liveRun) setPeersEverywhere() {
	dir := make(map[types.ProcID]string)
	for sid, sn := range r.servers {
		dir[sid] = sn.Addr()
	}
	for cid, node := range r.clients {
		dir[cid] = node.Addr()
	}
	for _, sn := range r.servers {
		sn.SetPeers(dir)
	}
	for _, node := range r.clients {
		node.SetPeers(dir)
	}
}

func (r *liveRun) maxViewID() types.ViewID {
	var max types.ViewID
	for _, node := range r.clients {
		if v := node.CurrentView().ID; v > max {
			max = v
		}
	}
	return max
}

// waitFor polls cond until it holds or the converge timeout passes; a
// timeout is a liveness violation of the deployment.
func (r *liveRun) waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(r.cfg.ConvergeTimeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return violationf("timed out after %v waiting for %s", r.cfg.ConvergeTimeout, what)
}

// waitFullView waits until every client is attached and has installed a
// view over the full client population with an id above floor. On timeout
// the violation carries each client's home and view so the report shows
// who was stuck, not just that someone was.
func (r *liveRun) waitFullView(what string, floor types.ViewID) error {
	all := r.clientSet()
	err := r.waitFor(what, func() bool {
		for _, node := range r.clients {
			if node.Home() == "" {
				return false
			}
			v := node.CurrentView()
			if v.ID <= floor || !v.Members.Equal(all) {
				return false
			}
		}
		return true
	})
	if err != nil {
		var b strings.Builder
		for _, cid := range r.clientIDs() {
			node := r.clients[cid]
			v := node.CurrentView()
			fmt.Fprintf(&b, " %s[home=%s vid=%d members=%d]", cid, node.Home(), v.ID, v.Members.Len())
		}
		scraped := make(map[string]float64) // "<server> <metric>"
		for _, s := range r.reg.Snapshot().Samples {
			for _, l := range s.Labels {
				if l.Key == "server" {
					scraped[l.Value+" "+s.Name] = s.Value
				}
			}
		}
		for _, sid := range r.serverIDs {
			sn := r.servers[sid]
			count := func(name string) float64 { return scraped[string(sid)+" vsgm_server_"+name+"_total"] }
			fmt.Fprintf(&b, " %s[reach=%s clients=%d attempts=%v views=%v repro=%v evict=%v]",
				sid, sn.Reachable(), sn.Clients().Len(), count("attempts"), count("views_delivered"), count("reproposals"), count("evictions"))
		}
		return violationf("%v (floor %d, want %d members);%s", err, floor, all.Len(), b.String())
	}
	return nil
}

// sendRetry multicasts from cid, retrying through transient block windows.
func (r *liveRun) sendRetry(cid types.ProcID, payload string) error {
	node := r.clients[cid]
	deadline := time.Now().Add(r.cfg.ConvergeTimeout)
	for time.Now().Before(deadline) {
		_, err := node.Send([]byte(payload))
		if err == nil {
			return nil
		}
		if err != core.ErrBlocked {
			return violationf("send from %s failed: %v", cid, err)
		}
		time.Sleep(3 * time.Millisecond)
	}
	return violationf("send from %s still blocked after %v", cid, r.cfg.ConvergeTimeout)
}

// commonView waits until every client has installed the same view over the
// full population — the precondition for a within-view traffic round.
func (r *liveRun) commonView(deadline time.Time) error {
	all := r.clientSet()
	for time.Now().Before(deadline) {
		key := ""
		agree := len(r.clients) > 0
		for _, node := range r.clients {
			v := node.CurrentView()
			if !v.Members.Equal(all) {
				agree = false
				break
			}
			if key == "" {
				key = v.Key()
			} else if v.Key() != key {
				agree = false
				break
			}
		}
		if agree {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return violationf("clients never agreed on one full view")
}

// trafficRound has every client multicast once and waits until everyone has
// delivered the whole round. Messages are delivered within the view they
// were sent in, so a reconfiguration still draining from the previous chaos
// phase can legally erase a round for a client that did not move directly
// between views — that is correct virtual synchrony, not a violation. Each
// attempt therefore first waits for all clients to agree on one full view,
// sends, and gives the deliveries a bounded window; the round is retried
// until the converge timeout expires.
func (r *liveRun) trafficRound(tag string) error {
	deadline := time.Now().Add(r.cfg.ConvergeTimeout)
	for {
		if err := r.commonView(deadline); err != nil {
			return violationf("%s traffic round: %v", tag, err)
		}
		base := r.deliveredSnapshot()
		ids := r.clientIDs()
		for _, cid := range ids {
			if err := r.sendRetry(cid, tag+"-"+string(cid)); err != nil {
				return err
			}
		}
		n := len(ids)
		window := time.Now().Add(2 * time.Second)
		if window.After(deadline) {
			window = deadline
		}
		for time.Now().Before(window) {
			snap := r.deliveredSnapshot()
			done := true
			for _, cid := range ids {
				if snap[cid]-base[cid] < n {
					done = false
					break
				}
			}
			if done {
				return nil
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !time.Now().Before(deadline) {
			return violationf("%s traffic not delivered everywhere within %v", tag, r.cfg.ConvergeTimeout)
		}
	}
}

// chaosOf returns every node's chaos controller.
func (r *liveRun) chaosOf() map[types.ProcID]*live.Chaos {
	out := make(map[types.ProcID]*live.Chaos)
	for sid, sn := range r.servers {
		out[sid] = sn.Chaos()
	}
	for cid, node := range r.clients {
		out[cid] = node.Chaos()
	}
	return out
}

// partitionComponents blocks outbound traffic between components, where
// each component is a server group plus the clients currently homed at it
// (unattached clients ride with the first group).
func (r *liveRun) partitionComponents(groups ...types.ProcSet) []types.ProcSet {
	comps := make([]types.ProcSet, len(groups))
	for i, g := range groups {
		comps[i] = g.Clone()
	}
	for cid, node := range r.clients {
		placed := false
		for i, g := range groups {
			if g.Contains(node.Home()) {
				comps[i].Add(cid)
				placed = true
				break
			}
		}
		if !placed {
			comps[0].Add(cid)
		}
	}
	all := types.NewProcSet()
	for _, comp := range comps {
		for p := range comp {
			all.Add(p)
		}
	}
	chaos := r.chaosOf()
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

// healAll lifts every chaos block on every node.
func (r *liveRun) healAll() {
	for _, c := range r.chaosOf() {
		c.Heal()
	}
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
		for _, sn := range r.servers {
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
	floor := r.maxViewID()
	r.servers[r.serverIDs[0]].Reconfigure()
	return r.waitFullView(what, floor)
}

// retire banks a server's detector counters and closes it, so end-of-run
// detector totals survive the restart replacing the node.
func (r *liveRun) retire(sn *live.ServerNode) {
	st := sn.DetectorStats()
	r.detStats.Flaps += st.Flaps
	r.detStats.Quarantines += st.Quarantines
	r.detStats.GrayDowngrades += st.GrayDowngrades
	sn.Close()
}

// restartServer rebuilds a killed server on its old address from whatever
// its state directory now holds, rejoining heartbeats and the peer
// directory.
func (r *liveRun) restartServer(sid types.ProcID, addr string) error {
	sn, err := r.newServer(sid, addr, r.stateDirs[sid])
	if err != nil {
		return err
	}
	r.servers[sid] = sn
	r.setPeersEverywhere()
	sn.SetReachable(r.serverSet)
	sn.StartHeartbeats(r.serverSet, liveHBInterval, liveHBTimeout)
	return nil
}

func (r *liveRun) closeAll() {
	for _, node := range r.clients {
		node.Close()
	}
	for _, sn := range r.servers {
		sn.Close()
	}
}

func (r *liveRun) phase(kind PhaseKind) error {
	at := time.Since(r.start)
	switch kind {
	case PhaseTraffic:
		r.sched.Note(at, kind, "full multicast round from all %d clients", len(r.clients))
		return r.trafficRound(fmt.Sprintf("t%d", len(r.sched.Steps)))

	case PhasePartitionHeal:
		left, right := r.serverSplit()
		r.sched.Note(at, kind, "split %s | %s, stabilize both sides, heal", left, right)
		r.transitions += 2 // the split and the heal
		comps := r.partitionComponents(left, right)
		// Each side settles on a view over exactly its own clients.
		if err := r.waitFor("both sides of the partition stabilize", func() bool {
			for i := range comps {
				side := types.NewProcSet()
				for p := range comps[i] {
					if _, isClient := r.clients[p]; isClient {
						side.Add(p)
					}
				}
				for p := range side {
					if !r.clients[p].CurrentView().Members.Equal(side) {
						return false
					}
				}
			}
			return true
		}); err != nil {
			return err
		}
		r.healAll()
		// Floor 0, not the pre-partition view id: if every client happened to
		// be homed on one side, the split was vacuous — no view ever shrank,
		// detectors may not even fire before the heal — and no new view is
		// owed. A full-membership view at every client IS the merge.
		return r.waitFullView("merged view after heal", 0)

	case PhaseOscillate:
		left, right := r.serverSplit()
		flips := 2 + r.rng.Intn(3)
		r.sched.Note(at, kind, "%d rapid flips of %s | %s", flips, left, right)
		r.transitions += 2 * flips
		for i := 0; i < flips; i++ {
			r.partitionComponents(left, right)
			time.Sleep(time.Duration(50+r.rng.Intn(150)) * time.Millisecond)
			r.healAll()
			time.Sleep(time.Duration(50+r.rng.Intn(100)) * time.Millisecond)
		}
		return r.waitFullView("full view after oscillation", 0)

	case PhaseCrashRestart:
		sid := r.serverIDs[r.rng.Intn(len(r.serverIDs))]
		sn := r.servers[sid]
		addr := sn.Addr()
		// The kill only owes the survivors a new view if the victim was
		// integrated when it died.
		if err := r.waitServersIntegrated(); err != nil {
			return err
		}
		floor := r.maxViewID()
		r.sched.Note(at, kind, "kill %s, converge on survivors, restart it from its store", sid)
		r.transitions += 2 // the kill and the restart
		r.retire(sn)
		if err := r.waitFor("orphans of "+string(sid)+" re-home at survivors", func() bool {
			for _, node := range r.clients {
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
		if err := r.restartServer(sid, addr); err != nil {
			return err
		}
		return r.waitFullView("cluster stable after restart", 0)

	case PhaseFlashCrowd:
		n := 3 + r.rng.Intn(3)
		fresh := make([]types.ProcID, n)
		for i := range fresh {
			fresh[i] = types.ProcID(fmt.Sprintf("flash%d", r.crowdSeq))
			r.crowdSeq++
		}
		r.sched.Note(at, kind, "%d clients join in one burst, one round of traffic, then leave", n)
		r.transitions += 2 // the burst admission and the departure
		// The whole phase leans on floor-based waits, and its reconfigurations
		// (burst admission, departure shrink) may be triggered at any one
		// server: they reach clients homed elsewhere only if the servers are
		// mutually re-admitted after whatever restarts preceded this phase.
		// Nothing below kills a server, so integration holds throughout.
		if err := r.waitServersIntegrated(); err != nil {
			return err
		}
		floor := r.maxViewID()
		for i, cid := range fresh {
			node, err := r.newClient(cid, r.rng.Intn(len(r.serverIDs))+i)
			if err != nil {
				return err
			}
			r.clients[cid] = node
		}
		r.setPeersEverywhere()
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
		floor = r.maxViewID()
		for _, cid := range fresh {
			r.clients[cid].Close()
			delete(r.clients, cid)
		}
		if err := r.waitFor("crowd deregistered at every server", func() bool {
			clean := true
			for _, sn := range r.servers {
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

	case PhaseStaleResurrect:
		sid := r.serverIDs[r.rng.Intn(len(r.serverIDs))]
		sn := r.servers[sid]
		addr := sn.Addr()
		backup := filepath.Join(r.cfg.StateRoot, string(sid)+".stale")
		r.sched.Note(at, kind, "snapshot %s's store, advance identifiers, resurrect it from the stale generation", sid)
		r.transitions += 3 // the advance, the kill, the resurrection
		// Point-in-time backup of the current (soon to be stale) generation.
		if err := wal.CloneDir(r.stateDirs[sid], backup); err != nil {
			return err
		}
		// Advance identifier state past the backup. The reconfiguring server
		// must be integrated first: an attempt run by a server its peers have
		// not re-admitted cannot install views at clients homed elsewhere.
		if err := r.waitServersIntegrated(); err != nil {
			return err
		}
		floor := r.maxViewID()
		sn.Reconfigure()
		if err := r.waitFullView("identifiers advanced past the backup", floor); err != nil {
			return err
		}
		// Kill, roll the store back to the stale generation, restart.
		r.retire(sn)
		if err := wal.CloneDir(backup, r.stateDirs[sid]); err != nil {
			return err
		}
		if err := r.restartServer(sid, addr); err != nil {
			return err
		}
		// Epoch gossip and client-side stale-notification filtering must
		// absorb the resurrected identifiers without regressing anyone.
		if err := r.waitFor("all clients re-homed after resurrection", func() bool {
			for _, node := range r.clients {
				if node.Home() == "" {
					return false
				}
			}
			return true
		}); err != nil {
			return err
		}
		return r.waitFullView("cluster converged past the stale generation", 0)

	case PhaseCorruptCounter:
		sid := r.serverIDs[r.rng.Intn(len(r.serverIDs))]
		sn := r.servers[sid]
		addr := sn.Addr()
		locals := sn.Clients()
		victim := r.clientIDs()[r.rng.Intn(len(r.clients))]
		if locals.Len() > 0 {
			victim = locals.Sorted()[r.rng.Intn(locals.Len())]
		}
		rec := wire.WALRecord{Client: victim, CID: 1 << 40, Vid: 1 << 40, Epoch: 1 << 7}
		flavour := "huge counters"
		if r.rng.Intn(2) == 0 {
			rec = wire.WALRecord{Client: victim, CID: 7, Vid: 3, Epoch: 1 << 33}
			flavour = "wrapped epoch"
		}
		r.sched.Note(at, kind, "kill %s, append %s for %s (cid=%d vid=%d epoch=%d) to its WAL, restart",
			sid, flavour, victim, rec.CID, rec.Vid, rec.Epoch)
		r.transitions += 2 // the kill and the restart
		r.retire(sn)
		store, err := live.NewFileStore(r.stateDirs[sid])
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
		if err := r.restartServer(sid, addr); err != nil {
			return err
		}
		// The corrupted record must be absorbed monotonically: if the victim
		// re-registers here its identifiers jump above the bogus values; if
		// it settled elsewhere the record stays inert. Either way the view
		// must reconverge and the suite stay green.
		if err := r.waitFor("all clients re-homed after corruption", func() bool {
			for _, node := range r.clients {
				if node.Home() == "" {
					return false
				}
			}
			return true
		}); err != nil {
			return err
		}
		return r.waitFullView("cluster converged past the corrupted record", 0)

	case PhaseWALScramble:
		sid := r.serverIDs[r.rng.Intn(len(r.serverIDs))]
		sn := r.servers[sid]
		addr := sn.Addr()
		// The restart only re-integrates cleanly if the victim was integrated
		// when it died (same reasoning as the crash-restart phase).
		if err := r.waitServersIntegrated(); err != nil {
			return err
		}
		r.retire(sn)
		detail, err := r.scrambleStateDir(r.stateDirs[sid])
		if err != nil {
			return err
		}
		r.sched.Note(at, kind, "kill %s, %s, restart through fsck/repair", sid, detail)
		r.transitions += 2 // the kill and the restart
		if err := r.restartServer(sid, addr); err != nil {
			return err
		}
		// The fsck pass quarantined whatever the scramble destroyed; any
		// identifier state it lost must be re-floated by attach claims, and
		// the whole cluster must reconverge on one full view.
		if err := r.waitFor("all clients re-homed after WAL scramble", func() bool {
			for _, node := range r.clients {
				if node.Home() == "" {
					return false
				}
			}
			return true
		}); err != nil {
			return err
		}
		return r.waitFullView("cluster converged past the scrambled store", 0)

	case PhaseStateScramble:
		sid := r.serverIDs[r.rng.Intn(len(r.serverIDs))]
		sn := r.servers[sid]
		// The injection forces a reconfiguration at sid; it reaches clients
		// homed elsewhere only once the servers are mutually re-admitted.
		if err := r.waitServersIntegrated(); err != nil {
			return err
		}
		ids := r.clientIDs()
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
		r.sched.Note(at, kind, "inject %d adversarially random records into %s's retained state", len(recs), sid)
		r.transitions++
		sn.InjectRecords(recs)
		return r.waitFullView("cluster converged past the scrambled records", 0)

	case PhaseClientScramble:
		ids := r.clientIDs()
		victim := ids[r.rng.Intn(len(ids))]
		node := r.clients[victim]
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
		r.sched.Note(at, kind, "scramble %s's in-memory identifiers with %s values (cid=%d vid=%d sc=%d)",
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
		// The sleep gives the victim's next attach ticks time to self-clamp
		// (impossible flavour) or land the scrambled claim (huge flavour)
		// before the attempt that must out-bid it.
		time.Sleep(4 * liveAttachInterval)
		home := node.Home()
		sn, ok := r.servers[home]
		if !ok {
			sn = r.servers[r.serverIDs[0]]
		}
		floor := r.maxViewID()
		sn.Reconfigure()
		return r.waitFullView("cluster converged past the scrambled client", floor)

	case PhaseFlappingLink:
		a, b := r.serverPair()
		flips := 3 + r.rng.Intn(3)
		r.sched.Note(at, kind, "flap the %s<->%s link %d times (block past detection, briefly heal)", a, b, flips)
		r.transitions += 2 * flips
		// Start integrated so the first flip is a genuine verdict crossing.
		if err := r.waitServersIntegrated(); err != nil {
			return err
		}
		chaos := r.chaosOf()
		for i := 0; i < flips; i++ {
			chaos[a].BlockOutbound(b)
			chaos[b].BlockOutbound(a)
			// Long enough for accrual suspicion to fire (phi crosses the
			// suspect threshold a few hundred ms into the silence at the
			// soak's 20ms heartbeat interval)...
			time.Sleep(time.Duration(600+r.rng.Intn(250)) * time.Millisecond)
			chaos[a].Unblock(b)
			chaos[b].Unblock(a)
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

	case PhaseGrayFailure:
		a, b := r.serverPair()
		// Break exactly one direction: b stops hearing a, while a still
		// hears b and every third party hears both.
		r.sched.Note(at, kind, "gray failure: block %s's inbound from %s, converge symmetrically, heal", b, a)
		r.transitions += 2 // the break and the heal
		if err := r.waitServersIntegrated(); err != nil {
			return err
		}
		r.servers[b].Chaos().BlockInbound(a)
		// Reconciliation must converge every server on a verdict that
		// excludes the broken pairing: b suspects a outright; a downgrades b
		// on b's bitmap (the direct rule); third parties drop the
		// lexicographically larger of the pair (the pair rule). The one
		// observable all of them share: nobody keeps both a and b.
		if err := r.waitFor("gray failure reconciled symmetrically", func() bool {
			for _, sn := range r.servers {
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
		for _, sn := range r.servers {
			reach := sn.Reachable()
			if reach.Contains(a) && reach.Contains(b) {
				return violationf("gray-failure verdict oscillated: %s re-admitted both %s and %s over a broken link",
					sn.ID(), a, b)
			}
		}
		r.servers[b].Chaos().Unblock(a)
		if err := r.waitServersIntegrated(); err != nil {
			return err
		}
		return r.waitFullView("full view after the gray failure heals", 0)

	default:
		return fmt.Errorf("soak: live runner cannot execute phase %q", kind)
	}
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

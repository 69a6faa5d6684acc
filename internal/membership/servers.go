package membership

import (
	"fmt"
	"slices"
	"time"

	"vsgm/internal/types"
)

// ServerTransport is the sender side of the channel the membership servers
// use among themselves (corfifo.Handle satisfies it).
type ServerTransport interface {
	Send(dests []types.ProcID, m types.WireMsg)
}

// Server is one dedicated membership server of the client-server
// architecture (Section 1; after Keidar-Sussman-Marzullo-Dolev). A small,
// static group of servers runs a one-round membership algorithm among
// themselves and serves many clients: each client has a home server, which
// issues its start_change notifications (with per-client locally unique
// identifiers) and delivers its views.
//
// The algorithm per attempt: a server announces the estimated next
// membership to its local clients via start_change, then multicasts a
// proposal — its reachable-server set, a view-identifier floor, and its
// local clients with their latest start-change identifiers — to the servers
// it can reach. When a server holds proposals for the current attempt from
// exactly its reachable set, all agreeing on that server set, it assembles
// the view deterministically (member set = union of proposed clients, id =
// max of the floors, startId = union of the proposed identifier maps) and
// delivers it to its local clients. If the assembled membership exceeds
// what a local client was told in its last start_change (cold caches), the
// server re-announces and runs one more attempt, so a stable system
// converges in at most two attempts and steady state takes one round.
//
// Server-side per-client state (identifiers, last view id) survives client
// crashes, which is what lets recovered clients rejoin under their original
// identity without stable storage (Section 8).
type Server struct {
	id        types.ProcID
	transport ServerTransport
	out       Output
	servers   types.ProcSet

	clients map[types.ProcID]*serverClient
	cache   map[types.ProcID]map[types.ProcID]types.StartChangeID

	// records retains identifier state for clients that are no longer
	// registered locally — crashed, departed, evicted to another server, or
	// restored from a WAL replay. It is what AttachClient consults so a
	// returning client never regresses below an identifier this server ever
	// issued (Section 8, extended to server restarts).
	records map[types.ProcID]ClientRecord

	// recorder, when set, observes every mutation of a client's durable
	// identifier state (cid, vid, epoch). The live layer points it at a
	// write-ahead log; the membership core itself stays storage-free.
	recorder func(types.ProcID, ClientRecord)

	// The attach policy (attach.go), set up by ServeAttach: the lease
	// length, the time of each attached client's last request, the ban
	// expiries of evicted laggards, and where replies go.
	lease      time.Duration
	leases     map[types.ProcID]time.Time
	banned     map[types.ProcID]time.Time
	sendAttach func(types.ProcID, Attach)

	// What Tick runs (clock.go): the failure detector (nil until
	// StartDetector), the peer servers it heartbeats, sorted, and the
	// watchdog's period and the stall it times, since first seen or last
	// re-proposed.
	detector     *Detector
	peers        []types.ProcID
	watchdog     time.Duration
	stallAttempt int64
	stallSince   time.Time

	reachable types.ProcSet
	attempt   int64
	proposals map[int64]map[types.ProcID]*types.MembProposal
	maxVid    types.ViewID

	// lastProp is this server's proposal for the current attempt, kept so
	// the watchdog can re-send it and so a peer stuck on an attempt we
	// already completed can be answered directly.
	lastProp      *types.MembProposal
	lastCompleted int64

	// trace is the reconfiguration trace identifier for traceAttempt: a
	// deterministic function of the initiating server and attempt number,
	// gossiped in proposals so every server stamps the same identifier on
	// one reconfiguration's notifications. Servers adopting a peer's higher
	// attempt adopt its trace; concurrent initiators of the same attempt
	// converge on the numerically largest.
	trace        uint64
	traceAttempt int64

	attemptsRun    int64
	viewsDelivered int64
	reproposals    int64
	evictions      int64

	// sanitize accumulates the clamps applied to impossible identifier
	// state arriving through RestoreRecords or attach claims
	// — the self-stabilization counters surfaced as vsgm_sanitize_*.
	sanitize SanitizeStats
}

type serverClient struct {
	cid       types.StartChangeID
	vid       types.ViewID
	epoch     int64
	announced types.ProcSet
	mode      clientMode
	crashed   bool
}

// ClientRecord is the durable per-client identifier state a home server
// maintains on behalf of a client: the last start-change identifier it
// issued, the last view identifier it delivered, and the attach epoch the
// registration is held under. It is what must survive server restarts for
// Local Monotonicity to hold across a crash.
type ClientRecord struct {
	CID   types.StartChangeID
	Vid   types.ViewID
	Epoch int64
}

// merge folds other into r field-wise, keeping the maxima.
func (r ClientRecord) merge(other ClientRecord) ClientRecord {
	if other.CID > r.CID {
		r.CID = other.CID
	}
	if other.Vid > r.Vid {
		r.Vid = other.Vid
	}
	if other.Epoch > r.Epoch {
		r.Epoch = other.Epoch
	}
	return r
}

// cidEpochShift partitions the start-change identifier space by attach
// epoch: cid = epoch<<cidEpochShift + counter. Each failover increments the
// client's epoch, so the adopting server's identifiers are strictly above
// everything any previous home ever issued — even identifiers whose gossip
// was lost with the crashed server. Epoch 0 (out-of-band registration)
// degenerates to plain counters, leaving legacy deployments untouched.
const cidEpochShift = 32

// nextCID returns the successor of last within epoch's identifier range.
func nextCID(epoch int64, last types.StartChangeID) types.StartChangeID {
	if floor := types.StartChangeID(epoch << cidEpochShift); last < floor {
		last = floor
	}
	return last + 1
}

// NewServer constructs a membership server. servers is the static set of
// all server identifiers (including id); out receives client notifications.
func NewServer(id types.ProcID, servers types.ProcSet, tr ServerTransport, out Output) (*Server, error) {
	if !servers.Contains(id) {
		return nil, fmt.Errorf("membership: server set %s does not contain %s", servers, id)
	}
	return &Server{
		id:        id,
		transport: tr,
		out:       out,
		servers:   servers.Clone(),
		peers:     servers.Minus(types.NewProcSet(id)).Sorted(),
		watchdog:  DefaultWatchdog,
		clients:   make(map[types.ProcID]*serverClient),
		cache:     make(map[types.ProcID]map[types.ProcID]types.StartChangeID),
		records:   make(map[types.ProcID]ClientRecord),
		reachable: types.NewProcSet(id),
		proposals: make(map[int64]map[types.ProcID]*types.MembProposal),
	}, nil
}

// SetRecorder installs the observer for durable identifier-state mutations.
// Pass nil to disable. The recorder is invoked synchronously from whatever
// call mutates the state, before any resulting notification is emitted, so
// a write-ahead log is always at least as fresh as what clients have seen.
func (s *Server) SetRecorder(f func(types.ProcID, ClientRecord)) { s.recorder = f }

// record reports c's current durable state to the recorder.
func (s *Server) record(p types.ProcID, c *serverClient) {
	if s.recorder != nil {
		s.recorder(p, ClientRecord{CID: c.cid, Vid: c.vid, Epoch: c.epoch})
	}
}

// RestoreRecords merges previously persisted identifier state (a WAL
// replay) into the retained-record map. Field-wise maxima are kept, so
// replay order and duplicate records do not matter. Every record is passed
// through the sanitizer first: restart recovery must converge from
// arbitrary state, so impossible values (wrapped epochs, identifiers above
// the attach-claim ceiling, views with no start-change behind them) are
// clamped here rather than replayed into proposals.
func (s *Server) RestoreRecords(recs map[types.ProcID]ClientRecord) {
	for p, rec := range recs {
		clean, st := SanitizeRecord(rec)
		s.sanitize.add(st)
		s.records[p] = s.records[p].merge(clean)
	}
}

// Sanitized returns the accumulated sanitization statistics: how many
// impossible identifier values this server clamped out of restored state
// and attach claims since construction.
func (s *Server) Sanitized() SanitizeStats { return s.sanitize }

// ID returns the server's identifier.
func (s *Server) ID() types.ProcID { return s.id }

// AttemptsRun counts the membership attempts this server initiated or
// adopted.
func (s *Server) AttemptsRun() int64 { return s.attemptsRun }

// ViewsDelivered counts the views this server delivered to local clients.
func (s *Server) ViewsDelivered() int64 { return s.viewsDelivered }

// AddClient registers a local client. The caller triggers a reconfiguration
// (SetReachable or Reconfigure) to admit it into a view. A retained record
// for p (an earlier registration, or a WAL replay) seeds its identifier
// state, so re-adding a client never regresses its identifiers.
func (s *Server) AddClient(p types.ProcID) {
	s.register(p, 0)
}

// AttachClientClaim registers (or refreshes) local client p under an attach
// epoch. It returns the client's record, merged from every identifier
// source this server knows, and whether this call created the registration
// (which then needs a Reconfigure to enter a view). The claim — the largest
// cid and view id the client has seen — is merged too, so every identifier
// minted next is above anything the client observed: the only defense when
// the other sources are cold, as on a server resurrected from a stale
// store. The claim is sanitized first, so an impossible one cannot burn the
// identifier space to the brink of wraparound.
func (s *Server) AttachClientClaim(p types.ProcID, epoch int64, claim ClientRecord) (ClientRecord, bool) {
	var st SanitizeStats
	claim, st = SanitizeClaim(claim)
	s.sanitize.add(st)
	if epoch < 0 || epoch > MaxAttachEpoch {
		epoch = 0
		s.sanitize.WrappedEpoch++
	}
	c, added := s.register(p, epoch)
	if epoch > c.epoch {
		c.epoch = epoch
	}
	if claim.CID > c.cid {
		c.cid = claim.CID
	}
	if claim.Vid > c.vid {
		c.vid = claim.Vid
	}
	if claim.Epoch > c.epoch {
		c.epoch = claim.Epoch
	}
	if added || epoch > 0 || claim != (ClientRecord{}) {
		s.record(p, c)
	}
	return ClientRecord{CID: c.cid, Vid: c.vid, Epoch: c.epoch}, added
}

// register inserts p if absent, seeding from retained records and gossip.
func (s *Server) register(p types.ProcID, epoch int64) (*serverClient, bool) {
	if c, ok := s.clients[p]; ok {
		return c, false
	}
	c := &serverClient{mode: modeNormal, epoch: epoch}
	if rec, ok := s.records[p]; ok {
		c.cid, c.vid, c.epoch = rec.CID, rec.Vid, rec.Epoch
		if epoch > c.epoch {
			c.epoch = epoch
		}
		delete(s.records, p)
	}
	if cid := s.gossipCID(p); cid > c.cid {
		c.cid = cid
	}
	s.clients[p] = c
	return c, true
}

// gossipCID returns the highest start-change identifier any peer's cached
// proposal claims for p — the adoption path's defense against issuing an
// identifier the client has already seen from its previous home.
func (s *Server) gossipCID(p types.ProcID) types.StartChangeID {
	var max types.StartChangeID
	for _, clients := range s.cache {
		if cid, ok := clients[p]; ok && cid > max {
			max = cid
		}
	}
	return max
}

// RemoveClient deregisters a local client (it has left the group). Its
// identifier state is retained so a later re-registration resumes above it.
func (s *Server) RemoveClient(p types.ProcID) {
	if c, ok := s.clients[p]; ok {
		s.records[p] = s.records[p].merge(ClientRecord{CID: c.cid, Vid: c.vid, Epoch: c.epoch})
		delete(s.clients, p)
	}
}

// RecordOf returns the durable record this server holds for p — from the
// live registration if present, else the retained records.
func (s *Server) RecordOf(p types.ProcID) (ClientRecord, bool) {
	if c, ok := s.clients[p]; ok {
		return ClientRecord{CID: c.cid, Vid: c.vid, Epoch: c.epoch}, true
	}
	rec, ok := s.records[p]
	return rec, ok
}

// HasClient reports whether p is currently registered locally.
func (s *Server) HasClient(p types.ProcID) bool {
	_, ok := s.clients[p]
	return ok
}

// clientIDs returns the local clients sorted. Fan-outs walk them so: a
// simulator draws each notification's latency from a seeded stream, so map
// order would make one seed's execution vary from run to run.
func (s *Server) clientIDs() []types.ProcID {
	ids := make([]types.ProcID, 0, len(s.clients))
	for p := range s.clients {
		ids = append(ids, p)
	}
	slices.Sort(ids)
	return ids
}

// LocalClients returns the currently registered local clients.
func (s *Server) LocalClients() types.ProcSet { return types.NewProcSet(s.clientIDs()...) }

// ClientRecords snapshots the durable identifier state of every client this
// server knows — live registrations and retained records — for snapshots
// and diagnostics.
func (s *Server) ClientRecords() map[types.ProcID]ClientRecord {
	out := make(map[types.ProcID]ClientRecord, len(s.clients)+len(s.records))
	for p, rec := range s.records {
		out[p] = rec
	}
	for p, c := range s.clients {
		out[p] = out[p].merge(ClientRecord{CID: c.cid, Vid: c.vid, Epoch: c.epoch})
	}
	return out
}

// CrashClient marks a local client crashed: notifications stop but its
// identifier state is retained (Section 8).
func (s *Server) CrashClient(p types.ProcID) {
	if c, ok := s.clients[p]; ok {
		c.crashed = true
	}
}

// RecoverClient marks a local client recovered.
func (s *Server) RecoverClient(p types.ProcID) {
	if c, ok := s.clients[p]; ok {
		c.crashed = false
		c.mode = modeNormal
	}
}

// SetReachable is the failure-detector input: the set of servers (including
// this one) currently believed reachable. A change starts a new attempt.
func (s *Server) SetReachable(set types.ProcSet) {
	if !set.Contains(s.id) {
		set = set.Clone()
		set.Add(s.id)
	}
	// The very first report always starts an attempt — a single-server
	// deployment's reachable set ({self}) never differs from the initial
	// state, yet its clients still need a first view.
	if s.reachable.Equal(set) && s.attempt > 0 {
		return
	}
	s.reachable = set.Clone()
	s.startAttempt(s.attempt + 1)
}

// Reachable returns the servers this one currently believes reachable —
// the failure detector's last report. Observability surface: harnesses use
// it to tell an integrated peer (whose death owes the survivors a
// reconfiguration) from one still being re-admitted after a restart.
func (s *Server) Reachable() types.ProcSet {
	return s.reachable.Clone()
}

// Reconfigure starts a new attempt without a failure-detector change (used
// after client joins/leaves).
func (s *Server) Reconfigure() {
	s.startAttempt(s.attempt + 1)
}

// HandleMessage processes a server-to-server message that arrived at now:
// a proposal, or a heartbeat for the failure detector (ignored until
// StartDetector).
func (s *Server) HandleMessage(from types.ProcID, m types.WireMsg, now time.Time) {
	if m.Kind == types.KindHeartbeat {
		if s.detector != nil {
			s.detector.OnHeartbeatInfo(from, now, m.Reach)
		}
		return
	}
	if m.Kind != types.KindMembProposal || m.MembProp == nil {
		return
	}
	prop := m.MembProp.Clone()
	s.adoptTrace(prop.Attempt, prop.Trace)
	s.cache[from] = prop.Clients
	s.evictClaimed(prop)
	row := s.proposals[prop.Attempt]
	if row == nil {
		row = make(map[types.ProcID]*types.MembProposal)
		s.proposals[prop.Attempt] = row
	}
	row[from] = prop
	if prop.MinVid > s.maxVid {
		s.maxVid = prop.MinVid - 1
	}
	if prop.Attempt > s.attempt {
		s.startAttempt(prop.Attempt)
		return // startAttempt calls tryComplete
	}
	if prop.Attempt <= s.lastCompleted && s.lastProp != nil {
		// The sender is still working an attempt we already completed — our
		// proposal to it was evidently lost. Answer with our latest proposal
		// directly so its watchdog retries converge instead of spinning.
		s.transport.Send([]types.ProcID{from}, types.WireMsg{Kind: types.KindMembProposal, MembProp: s.lastProp.Clone()})
	}
	s.tryComplete()
}

// evictClaimed detaches any local client that a peer's proposal claims
// under a strictly higher attach epoch: the client has failed over, and a
// stale registration here would double-serve it. The identifier state moves
// to the retained records.
func (s *Server) evictClaimed(prop *types.MembProposal) {
	for p, epoch := range prop.Epochs {
		if c, ok := s.clients[p]; ok && epoch > c.epoch {
			s.evictions++
			s.RemoveClient(p)
			s.records[p] = s.records[p].merge(ClientRecord{Epoch: epoch})
		}
	}
}

// attemptTrace mints the reconfiguration trace identifier an initiating
// server stamps on attempt a: FNV-1a over the server identifier, the attempt
// folded in, and a final avalanche so consecutive attempts share no prefix.
// Deterministic (no randomness) so simulator runs stay reproducible; never
// zero, because zero means "untraced".
func attemptTrace(id types.ProcID, a int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	h ^= uint64(a)
	h *= prime64
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	if h == 0 {
		h = 1
	}
	return h
}

// adoptTrace folds a peer proposal's trace into this server's: a newer
// attempt replaces ours outright; the same attempt max-merges so concurrent
// initiators converge on one identifier.
func (s *Server) adoptTrace(attempt int64, trace uint64) {
	if trace == 0 {
		return
	}
	switch {
	case attempt > s.traceAttempt:
		s.trace = trace
		s.traceAttempt = attempt
	case attempt == s.traceAttempt && trace > s.trace:
		s.trace = trace
	}
}

// estimate returns the membership estimate: this server's clients plus the
// cached clients of every reachable server.
func (s *Server) estimate() types.ProcSet {
	est := types.NewProcSet()
	for p := range s.clients {
		est.Add(p)
	}
	for srv := range s.reachable {
		for p := range s.cache[srv] {
			est.Add(p)
		}
	}
	return est
}

// startAttempt announces the estimate to local clients and proposes.
func (s *Server) startAttempt(a int64) {
	s.attempt = a
	s.attemptsRun++
	if s.traceAttempt != a {
		// No adopted trace for this attempt: we are initiating it.
		s.trace = attemptTrace(s.id, a)
		s.traceAttempt = a
	}
	// One estimate snapshot is shared across every per-client announcement
	// and notification of this attempt. estimate() builds a fresh set, the
	// server never mutates it afterwards, and notification receivers treat
	// sets as immutable (the end-point and the spec checkers clone on
	// receipt; the live fabric encodes the frame immediately). Per-client
	// clones would cost O(clients²) per attempt, which is what caps
	// large-population simulations.
	est := s.estimate()

	clients := make(map[types.ProcID]types.StartChangeID, len(s.clients))
	var epochs map[types.ProcID]int64
	for _, p := range s.clientIDs() {
		c := s.clients[p]
		// Never issue an identifier at or below one a peer has proposed for
		// this client: a healed partition may reveal that its previous home
		// kept counting while we could not hear it.
		if cid := s.gossipCID(p); cid > c.cid {
			c.cid = cid
		}
		c.cid = nextCID(c.epoch, c.cid)
		c.announced = est
		c.mode = modeChangeStarted
		clients[p] = c.cid
		if c.epoch > 0 {
			if epochs == nil {
				epochs = make(map[types.ProcID]int64)
			}
			epochs[p] = c.epoch
		}
		s.record(p, c)
		if !c.crashed {
			s.out(p, Notification{
				Kind:        NotifyStartChange,
				StartChange: types.StartChange{ID: c.cid, Set: est, Trace: s.trace},
				Trace:       s.trace,
			})
		}
	}

	minVid := s.maxVid + 1
	for _, c := range s.clients {
		if c.vid >= minVid {
			minVid = c.vid + 1
		}
	}
	prop := &types.MembProposal{
		Attempt: a,
		Servers: s.reachable.Clone(),
		MinVid:  minVid,
		Clients: clients,
		Epochs:  epochs,
		Trace:   s.trace,
	}
	s.lastProp = prop
	row := s.proposals[a]
	if row == nil {
		row = make(map[types.ProcID]*types.MembProposal)
		s.proposals[a] = row
	}
	row[s.id] = prop
	if others := s.reachable.Minus(types.NewProcSet(s.id)); others.Len() > 0 {
		s.transport.Send(others.Sorted(), types.WireMsg{Kind: types.KindMembProposal, MembProp: prop.Clone()})
	}
	s.tryComplete()
}

// tryComplete assembles and delivers the view once the current attempt has
// agreeing proposals from the whole reachable set.
func (s *Server) tryComplete() {
	row := s.proposals[s.attempt]
	if row == nil {
		return
	}
	for srv := range s.reachable {
		prop, ok := row[srv]
		if !ok {
			return
		}
		if !prop.Servers.Equal(s.reachable) {
			// Failure detectors disagree; wait for them to converge (a new
			// SetReachable will start a fresh attempt).
			return
		}
	}

	members := types.NewProcSet()
	startID := make(map[types.ProcID]types.StartChangeID)
	vid := types.ViewID(0)
	for srv := range s.reachable {
		prop := row[srv]
		for p, cid := range prop.Clients {
			members.Add(p)
			// A client can appear in two proposals during a migration
			// window; take the maximum so every server assembles the same
			// startID regardless of map iteration order.
			if cid > startID[p] {
				startID[p] = cid
			}
		}
		if prop.MinVid > vid {
			vid = prop.MinVid
		}
	}
	if members.Len() == 0 {
		return
	}

	// The MBRSHP spec requires v.set ⊆ start_change[p].set. If the
	// assembled membership exceeds what a local client was last told, run
	// another attempt: the caches are now warm, so it will complete.
	//
	// Every client in change_started mode was (re)announced by the latest
	// startAttempt — registrations created since then are in normal mode,
	// and RecoverClient resets mode to normal — so all announced sets are
	// one shared estimate snapshot and the subset check runs once, not per
	// client.
	subsetChecked, subsetOK := false, true
	for p, c := range s.clients {
		if !members.Contains(p) {
			continue
		}
		if c.mode != modeChangeStarted {
			s.startAttempt(s.attempt + 1)
			return
		}
		if !subsetChecked {
			subsetChecked, subsetOK = true, members.SubsetOf(c.announced)
		}
		if !subsetOK {
			s.startAttempt(s.attempt + 1)
			return
		}
	}

	v := types.NewView(vid, members, startID)
	if vid > s.maxVid {
		s.maxVid = vid
	}
	delete(s.proposals, s.attempt)
	s.lastCompleted = s.attempt
	s.viewsDelivered++
	for _, p := range s.clientIDs() {
		if !members.Contains(p) {
			continue
		}
		c := s.clients[p]
		c.vid = vid
		c.mode = modeNormal
		s.record(p, c)
		if !c.crashed {
			// v is shared across the fan-out (receivers clone on receipt, as
			// with the start_change estimate above): cloning a view per
			// client is O(clients²) per delivered view.
			s.out(p, Notification{Kind: NotifyView, View: v, Trace: s.trace})
		}
	}
}

// Reproposals counts watchdog-triggered proposal re-sends.
func (s *Server) Reproposals() int64 { return s.reproposals }

// Evictions counts local registrations dropped because a peer claimed the
// client under a higher attach epoch.
func (s *Server) Evictions() int64 { return s.evictions }

package core

import (
	"errors"
	"testing"

	"vsgm/internal/types"
)

// fakeTransport records everything an end-point sends.
type fakeTransport struct {
	sent     []sentMsg
	reliable types.ProcSet
}

type sentMsg struct {
	dests []types.ProcID
	msg   types.WireMsg
}

func (f *fakeTransport) Send(dests []types.ProcID, m types.WireMsg) {
	f.sent = append(f.sent, sentMsg{dests: append([]types.ProcID(nil), dests...), msg: m})
}

func (f *fakeTransport) SetReliable(set types.ProcSet) { f.reliable = set.Clone() }

func (f *fakeTransport) byKind(kind types.MsgKind) []sentMsg {
	var out []sentMsg
	for _, s := range f.sent {
		if s.msg.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

func newTestEndpoint(t *testing.T, id types.ProcID, mutate func(*Config)) (*Endpoint, *fakeTransport) {
	t.Helper()
	tr := &fakeTransport{}
	cfg := Config{ID: id, Transport: tr, AutoBlock: true}
	if mutate != nil {
		mutate(&cfg)
	}
	ep, err := NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ep, tr
}

// twoMemberView builds a view {p, q} with the given start-change ids.
func twoMemberView(id types.ViewID, p, q types.ProcID, pc, qc types.StartChangeID) types.View {
	return types.NewView(id, types.NewProcSet(p, q),
		map[types.ProcID]types.StartChangeID{p: pc, q: qc})
}

func TestNewEndpointValidation(t *testing.T) {
	if _, err := NewEndpoint(Config{Transport: &fakeTransport{}}); err == nil {
		t.Error("missing ID accepted")
	}
	if _, err := NewEndpoint(Config{ID: "p"}); err == nil {
		t.Error("missing transport accepted")
	}
}

func TestInitialStateIsSingletonView(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", nil)
	if !ep.CurrentView().Equal(types.InitialView("p")) {
		t.Errorf("current view = %s", ep.CurrentView())
	}
	if ep.BlockStatus() != Unblocked {
		t.Errorf("block status = %s", ep.BlockStatus())
	}
	if _, pending := ep.PendingStartChange(); pending {
		t.Error("fresh end-point has a pending start change")
	}
}

func TestSelfDeliveryInSingletonView(t *testing.T) {
	ep, tr := newTestEndpoint(t, "p", nil)
	m, err := ep.Send([]byte("solo"))
	if err != nil {
		t.Fatal(err)
	}
	evs := ep.TakeEvents()
	if len(evs) != 1 {
		t.Fatalf("events = %v", evs)
	}
	d, ok := evs[0].(DeliverEvent)
	if !ok || d.Sender != "p" || d.Msg.ID != m.ID {
		t.Fatalf("event = %v", evs[0])
	}
	// No peers: nothing on the wire.
	if len(tr.sent) != 0 {
		t.Fatalf("sent %v to an empty destination set", tr.sent)
	}
}

func TestStartChangeTriggersBlockSyncAndReliable(t *testing.T) {
	ep, tr := newTestEndpoint(t, "p", nil)
	set := types.NewProcSet("p", "q")
	ep.HandleStartChange(types.StartChange{ID: 1, Set: set})

	if !tr.reliable.Equal(set) {
		t.Errorf("reliable set = %s, want %s", tr.reliable, set)
	}
	if ep.BlockStatus() != Blocked {
		t.Errorf("block status = %s, want blocked (auto)", ep.BlockStatus())
	}
	syncs := tr.byKind(types.KindSync)
	if len(syncs) != 1 {
		t.Fatalf("sent %d sync messages, want 1", len(syncs))
	}
	s := syncs[0]
	if len(s.dests) != 1 || s.dests[0] != "q" {
		t.Errorf("sync dests = %v, want [q]", s.dests)
	}
	if s.msg.CID != 1 || !s.msg.View.Equal(types.InitialView("p")) {
		t.Errorf("sync msg = %v", s.msg)
	}
	var blocked bool
	for _, ev := range ep.TakeEvents() {
		if _, ok := ev.(BlockEvent); ok {
			blocked = true
		}
	}
	if !blocked {
		t.Error("no block event emitted")
	}
}

func TestManualBlockGatesSyncMessage(t *testing.T) {
	ep, tr := newTestEndpoint(t, "p", func(c *Config) { c.AutoBlock = false })
	ep.HandleStartChange(types.StartChange{ID: 1, Set: types.NewProcSet("p", "q")})

	if got := len(tr.byKind(types.KindSync)); got != 0 {
		t.Fatalf("sync sent before block_ok (%d messages)", got)
	}
	if ep.BlockStatus() != Requested {
		t.Fatalf("block status = %s, want requested", ep.BlockStatus())
	}
	if _, err := ep.Send([]byte("ok: not yet blocked")); err != nil {
		t.Fatalf("send while merely requested should succeed: %v", err)
	}

	ep.BlockOK()
	if got := len(tr.byKind(types.KindSync)); got != 1 {
		t.Fatalf("sync messages after block_ok = %d, want 1", got)
	}
	if _, err := ep.Send([]byte("no")); !errors.Is(err, ErrBlocked) {
		t.Fatalf("send while blocked: err = %v, want ErrBlocked", err)
	}
}

// joinShared brings p into a shared view {p, q} (view id 1, cids 1). From a
// singleton view the sync-round intersection is {p} alone, so this first
// transition installs as soon as the membership view arrives; q arrives from
// its own singleton view, hence T = {p}.
func joinShared(t *testing.T, ep *Endpoint) types.View {
	t.Helper()
	ep.HandleStartChange(types.StartChange{ID: 1, Set: types.NewProcSet("p", "q")})
	v1 := twoMemberView(1, "p", "q", 1, 1)
	ep.HandleView(v1)
	ep.HandleMessage("q", types.WireMsg{
		Kind: types.KindSync, CID: 1, View: types.InitialView("q"), Cut: types.Cut{"q": 0},
	})
	if !ep.CurrentView().Equal(v1) {
		t.Fatalf("setup: shared view not installed, current = %s", ep.CurrentView())
	}
	ep.TakeEvents()
	return v1
}

func TestFirstTransitionFromSingletonNeedsOnlyOwnSync(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", nil)
	ep.HandleStartChange(types.StartChange{ID: 1, Set: types.NewProcSet("p", "q")})

	v := twoMemberView(1, "p", "q", 1, 1)
	ep.HandleView(v)
	// v.set ∩ current_view.set = {p}: only p's own sync is required, so the
	// view installs immediately and q (coming from another view) is outside
	// the transitional set.
	if got := ep.CurrentView(); !got.Equal(v) {
		t.Fatalf("view not installed: current = %s", got)
	}
	var installed *ViewEvent
	for _, ev := range ep.TakeEvents() {
		if ve, ok := ev.(ViewEvent); ok {
			installed = &ve
		}
	}
	if installed == nil {
		t.Fatal("no view event")
	}
	if !installed.TransitionalSet.Equal(types.NewProcSet("p")) {
		t.Errorf("transitional set = %s, want {p}", installed.TransitionalSet)
	}
	if ep.BlockStatus() != Unblocked {
		t.Error("client still blocked after view delivery")
	}
}

func TestViewInstallationWaitsForPeerSync(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", nil)
	v1 := joinShared(t, ep)

	// From the shared view, the next change genuinely needs q's sync.
	ep.HandleStartChange(types.StartChange{ID: 2, Set: types.NewProcSet("p", "q")})
	v2 := twoMemberView(2, "p", "q", 2, 2)
	ep.HandleView(v2)
	if ep.CurrentView().Equal(v2) {
		t.Fatal("view installed without q's synchronization message")
	}

	ep.HandleMessage("q", types.WireMsg{
		Kind: types.KindSync, CID: 2, View: v1, Cut: types.Cut{"p": 0, "q": 0},
	})
	if !ep.CurrentView().Equal(v2) {
		t.Fatalf("view not installed after sync round: current = %s", ep.CurrentView())
	}
	var installed *ViewEvent
	for _, ev := range ep.TakeEvents() {
		if ve, ok := ev.(ViewEvent); ok {
			installed = &ve
		}
	}
	if installed == nil {
		t.Fatal("no view event")
	}
	if !installed.TransitionalSet.Equal(types.NewProcSet("p", "q")) {
		t.Errorf("transitional set = %s, want {p, q} (moved together)", installed.TransitionalSet)
	}
}

func TestObsoleteViewIsSkipped(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", nil)
	v1 := joinShared(t, ep)
	installedBefore := ep.ViewsInstalled()

	// A change begins; before its view can complete (q's sync is pending),
	// a newer start_change arrives: the view for cid 2 is now known to be
	// out of date and must never install, even when q's sync shows up.
	ep.HandleStartChange(types.StartChange{ID: 2, Set: types.NewProcSet("p", "q")})
	v2 := twoMemberView(2, "p", "q", 2, 2)
	ep.HandleView(v2)
	ep.HandleStartChange(types.StartChange{ID: 3, Set: types.NewProcSet("p", "q", "r")})
	ep.HandleMessage("q", types.WireMsg{
		Kind: types.KindSync, CID: 2, View: v1, Cut: types.Cut{"p": 0, "q": 0},
	})
	if ep.CurrentView().Equal(v2) {
		t.Fatal("obsolete view was installed")
	}

	// The replacement view (echoing cid 3) installs once its syncs arrive.
	v3 := types.NewView(3, types.NewProcSet("p", "q", "r"),
		map[types.ProcID]types.StartChangeID{"p": 3, "q": 3, "r": 1})
	ep.HandleView(v3)
	ep.HandleMessage("q", types.WireMsg{
		Kind: types.KindSync, CID: 3, View: v1, Cut: types.Cut{"p": 0, "q": 0},
	})
	if !ep.CurrentView().Equal(v3) {
		t.Fatalf("current view = %s, want %s", ep.CurrentView(), v3)
	}
	if got := ep.ViewsInstalled() - installedBefore; got != 1 {
		t.Errorf("views installed = %d, want exactly 1 (v2 skipped)", got)
	}
}

func TestWVLevelInstallsWithoutSyncRound(t *testing.T) {
	ep, tr := newTestEndpoint(t, "p", func(c *Config) { c.Level = LevelWV })
	ep.HandleStartChange(types.StartChange{ID: 1, Set: types.NewProcSet("p", "q")})
	if got := len(tr.byKind(types.KindSync)); got != 0 {
		t.Fatalf("WV level sent %d sync messages", got)
	}
	v := twoMemberView(1, "p", "q", 1, 1)
	ep.HandleView(v)
	if !ep.CurrentView().Equal(v) {
		t.Fatal("WV level must install the membership view directly")
	}
	var ve ViewEvent
	for _, ev := range ep.TakeEvents() {
		if e, ok := ev.(ViewEvent); ok {
			ve = e
		}
	}
	if ve.TransitionalSet != nil {
		t.Error("WV level must not fabricate transitional sets")
	}
}

func TestVSLevelDoesNotBlockClients(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", func(c *Config) { c.Level = LevelVS })
	ep.HandleStartChange(types.StartChange{ID: 1, Set: types.NewProcSet("p", "q")})
	if ep.BlockStatus() != Unblocked {
		t.Fatal("VS level blocked the client")
	}
	if _, err := ep.Send([]byte("free")); err != nil {
		t.Fatalf("VS-level send during change: %v", err)
	}
}

func TestSmallSyncOptimization(t *testing.T) {
	ep, tr := newTestEndpoint(t, "p", func(c *Config) { c.SmallSync = true })
	// p's current view is {p}; q is a joiner outside it.
	ep.HandleStartChange(types.StartChange{ID: 1, Set: types.NewProcSet("p", "q")})
	syncs := tr.byKind(types.KindSync)
	if len(syncs) != 1 {
		t.Fatalf("sync messages = %d, want 1", len(syncs))
	}
	if !syncs[0].msg.Small {
		t.Error("sync to a non-member of the current view should be small")
	}
	if syncs[0].msg.Cut != nil {
		t.Error("small sync must not carry a cut")
	}
}

func TestViewMessagePrecedesAppMessages(t *testing.T) {
	ep, tr := newTestEndpoint(t, "p", nil)
	tr.sent = nil
	joinShared(t, ep)

	// Installing the view announces it (view_msg) before any application
	// traffic flows in it.
	var kinds []types.MsgKind
	for _, s := range tr.sent {
		kinds = append(kinds, s.msg.Kind)
	}
	idxView := -1
	for i, k := range kinds {
		if k == types.KindView {
			idxView = i
		}
		if k == types.KindApp {
			t.Fatalf("app message on the wire before any send: %v", kinds)
		}
	}
	if idxView == -1 {
		t.Fatalf("no view_msg announced after installing the view: %v", kinds)
	}

	if _, err := ep.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	last := tr.sent[len(tr.sent)-1]
	if last.msg.Kind != types.KindApp {
		t.Fatalf("last wire message is %s, want app_msg", last.msg.Kind)
	}
	if last.msg.HistIndex != 1 {
		t.Errorf("history index = %d, want 1", last.msg.HistIndex)
	}
}

func TestPeerMessagesDeliverInFIFOOrderWithinView(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", nil)
	v := joinShared(t, ep)

	// q announces the view, then streams three messages.
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v})
	for i := int64(1); i <= 3; i++ {
		ep.HandleMessage("q", types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: i}})
	}
	var ids []int64
	for _, ev := range ep.TakeEvents() {
		if d, ok := ev.(DeliverEvent); ok {
			ids = append(ids, d.Msg.ID)
		}
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("delivered ids = %v, want [1 2 3]", ids)
	}
}

func TestMessagesFromOldViewAreNotDeliveredInNewView(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", nil)
	// q streams a message while p is still in its singleton view: the
	// message is buffered under q's announced view, which p never joins
	// under that key until the view installs.
	vOld := twoMemberView(1, "p", "q", 1, 1)
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: vOld})
	ep.HandleMessage("q", types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 42}})
	if evs := ep.TakeEvents(); len(evs) != 0 {
		t.Fatalf("delivered %v before installing the view", evs)
	}

	// Once p installs that view, the buffered message delivers.
	ep.HandleStartChange(types.StartChange{ID: 1, Set: types.NewProcSet("p", "q")})
	ep.HandleView(vOld)
	ep.HandleMessage("q", types.WireMsg{
		Kind: types.KindSync, CID: 1, View: types.InitialView("q"), Cut: types.Cut{"q": 0},
	})
	var delivered bool
	for _, ev := range ep.TakeEvents() {
		if d, ok := ev.(DeliverEvent); ok && d.Msg.ID == 42 {
			delivered = true
		}
	}
	if !delivered {
		t.Fatal("buffered message not delivered after view installation")
	}
}

func TestCrashFreezesAndRecoverResets(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", nil)
	if _, err := ep.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	ep.Crash()
	if !ep.Crashed() {
		t.Fatal("not crashed")
	}
	if _, err := ep.Send([]byte("y")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("send while crashed: %v", err)
	}
	ep.HandleStartChange(types.StartChange{ID: 9, Set: types.NewProcSet("p")})
	if _, pending := ep.PendingStartChange(); pending {
		t.Fatal("crashed end-point processed an input")
	}

	ep.Recover()
	if ep.Crashed() {
		t.Fatal("still crashed after recover")
	}
	if !ep.CurrentView().Equal(types.InitialView("p")) {
		t.Fatal("recovery must reset to the initial singleton view")
	}
	if ep.MessagesDelivered() != 1 {
		// The pre-crash delivery already happened; counters are not state
		// variables of the automaton and survive for diagnostics.
		t.Logf("delivered counter = %d", ep.MessagesDelivered())
	}
}

func TestGarbageCollectionOfOldViewBuffers(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", nil)
	if _, err := ep.Send([]byte("in-initial-view")); err != nil {
		t.Fatal(err)
	}
	ep.HandleStartChange(types.StartChange{ID: 1, Set: types.NewProcSet("p", "q")})
	ep.HandleView(twoMemberView(1, "p", "q", 1, 1))
	ep.HandleMessage("q", types.WireMsg{
		Kind: types.KindSync, CID: 1, View: types.InitialView("q"), Cut: types.Cut{"q": 0},
	})
	if buf := ep.msgs.peek("p", types.InitialView("p").Key()); buf != nil {
		t.Error("old-view buffer survived garbage collection")
	}
}

func TestLevelStrings(t *testing.T) {
	if LevelWV.String() != "WV_RFIFO" || LevelVS.String() != "VS_RFIFO+TS" || LevelGCS.String() != "GCS" {
		t.Error("level names wrong")
	}
	if Unblocked.String() != "unblocked" || Requested.String() != "requested" || Blocked.String() != "blocked" {
		t.Error("block status names wrong")
	}
}

func TestElidedSyncViewIsReconstructedFromViewMsg(t *testing.T) {
	// p (SmallSync on) is in a shared view with q; the sync it sends to q
	// elides the view.
	ep, tr := newTestEndpoint(t, "p", func(c *Config) { c.SmallSync = true })
	joinShared(t, ep)
	tr.sent = nil
	ep.HandleStartChange(types.StartChange{ID: 2, Set: types.NewProcSet("p", "q")})
	syncs := tr.byKind(types.KindSync)
	if len(syncs) != 1 {
		t.Fatalf("sync messages = %d, want 1", len(syncs))
	}
	if !syncs[0].msg.ElideView || syncs[0].msg.Small {
		t.Fatalf("sync to a current-view member = %+v, want full sync with elided view", syncs[0].msg)
	}
	if syncs[0].msg.Cut == nil {
		t.Fatal("elided sync lost its cut")
	}

	// Receiver side: an end-point that announced view v1 via view_msg and
	// then sends an elided sync must be treated as syncing from v1.
	rcv, _ := newTestEndpoint(t, "p", nil)
	v1 := joinShared(t, rcv)
	rcv.HandleStartChange(types.StartChange{ID: 2, Set: types.NewProcSet("p", "q")})
	v2 := twoMemberView(2, "p", "q", 2, 2)
	rcv.HandleView(v2)
	rcv.HandleMessage("q", types.WireMsg{Kind: types.KindView, View: v1})
	rcv.HandleMessage("q", types.WireMsg{
		Kind: types.KindSync, CID: 2, ElideView: true, Cut: types.Cut{"p": 0, "q": 0},
	})
	if !rcv.CurrentView().Equal(v2) {
		t.Fatalf("view not installed from elided sync: current = %s", rcv.CurrentView())
	}
	var installed *ViewEvent
	for _, ev := range rcv.TakeEvents() {
		if ve, ok := ev.(ViewEvent); ok {
			installed = &ve
		}
	}
	if installed == nil || !installed.TransitionalSet.Equal(types.NewProcSet("p", "q")) {
		t.Fatalf("transitional set from elided sync wrong: %v", installed)
	}
}

func TestElidedSyncIsSmallerOnTheWire(t *testing.T) {
	full := types.WireMsg{
		Kind: types.KindSync, CID: 1,
		View: twoMemberView(1, "p", "q", 1, 1),
		Cut:  types.Cut{"p": 3, "q": 4},
	}
	elided := full
	elided.View = types.View{}
	elided.ElideView = true
	small := types.WireMsg{Kind: types.KindSync, CID: 1, Small: true}
	if !(small.Size() < elided.Size() && elided.Size() < full.Size()) {
		t.Fatalf("sizes: small=%d elided=%d full=%d, want strictly increasing",
			small.Size(), elided.Size(), full.Size())
	}
}

func TestWVLevelIgnoresSyncAndBundleInput(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", func(c *Config) { c.Level = LevelWV })
	ep.HandleMessage("q", types.WireMsg{
		Kind: types.KindSync, CID: 1, View: types.InitialView("q"), Cut: types.Cut{"q": 0},
	})
	ep.HandleMessage("q", types.WireMsg{
		Kind:   types.KindSyncBundle,
		Bundle: []types.SyncEntry{{From: "r", CID: 1, View: types.InitialView("r")}},
	})
	if len(ep.syncMsgs) != 0 {
		t.Fatal("WV-level end-point stored synchronization state")
	}
}

func TestBundleEntriesForSelfAreSkipped(t *testing.T) {
	ep, _ := newTestEndpoint(t, "p", func(c *Config) { c.HierarchyGroupSize = 2 })
	ep.HandleMessage("q", types.WireMsg{
		Kind: types.KindSyncBundle,
		Bundle: []types.SyncEntry{
			{From: "p", CID: 99, View: types.InitialView("p")}, // echo of our own
			{From: "r", CID: 1, View: types.InitialView("r"), Cut: types.Cut{"r": 0}},
		},
	})
	if ep.syncMsgOf("p", 99) != nil {
		t.Fatal("a bundled echo of our own sync was stored")
	}
	if ep.syncMsgOf("r", 1) == nil {
		t.Fatal("a peer's bundled sync was dropped")
	}
}

func TestAppMsgFromUnknownSenderDefaultsToItsInitialView(t *testing.T) {
	// A stream that starts without a view_msg (possible after recovery
	// races) buffers under the sender's initial singleton view and is never
	// delivered here — but must not be misattributed or crash.
	ep, _ := newTestEndpoint(t, "p", nil)
	ep.HandleMessage("z", types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 1}})
	if evs := ep.TakeEvents(); len(evs) != 0 {
		t.Fatalf("delivered %v from an unannounced stream", evs)
	}
	if got := ep.msgs.peek("z", types.InitialView("z").Key()); got == nil {
		t.Fatal("message not buffered under the sender's initial view")
	}
}

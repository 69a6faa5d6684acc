package spec

import (
	"strings"
	"testing"

	"vsgm/internal/types"
)

// The checkers are only trustworthy if they reject bad traces; these tests
// feed hand-crafted violations of each property and expect a complaint.

func view(id types.ViewID, procs ...types.ProcID) types.View {
	sid := make(map[types.ProcID]types.StartChangeID, len(procs))
	for _, p := range procs {
		sid[p] = 1
	}
	return types.NewView(id, types.NewProcSet(procs...), sid)
}

func wantViolation(t *testing.T, c Checker, substr string) {
	t.Helper()
	c.Finalize()
	for _, v := range c.Violations() {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Fatalf("checker %s found %v, want a violation containing %q",
		c.Name(), c.Violations(), substr)
}

func wantClean(t *testing.T, c Checker) {
	t.Helper()
	c.Finalize()
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("checker %s rejected a legal trace: %v", c.Name(), v)
	}
}

func TestWVRFIFOAcceptsLegalTrace(t *testing.T) {
	c := NewWVRFIFO()
	v := view(1, "a", "b")
	c.OnEvent(EView{P: "a", View: v})
	c.OnEvent(EView{P: "b", View: v})
	c.OnEvent(ESend{P: "a", MsgID: 1})
	c.OnEvent(ESend{P: "a", MsgID: 2})
	c.OnEvent(EDeliver{P: "b", From: "a", MsgID: 1})
	c.OnEvent(EDeliver{P: "a", From: "a", MsgID: 1})
	c.OnEvent(EDeliver{P: "b", From: "a", MsgID: 2})
	c.OnEvent(EDeliver{P: "a", From: "a", MsgID: 2})
	wantClean(t, c)
}

func TestWVRFIFODetectsFIFOGap(t *testing.T) {
	c := NewWVRFIFO()
	v := view(1, "a", "b")
	c.OnEvent(EView{P: "a", View: v})
	c.OnEvent(EView{P: "b", View: v})
	c.OnEvent(ESend{P: "a", MsgID: 1})
	c.OnEvent(ESend{P: "a", MsgID: 2})
	c.OnEvent(EDeliver{P: "b", From: "a", MsgID: 2}) // skips #1
	wantViolation(t, c, "gap-free FIFO")
}

func TestWVRFIFODetectsCrossViewDelivery(t *testing.T) {
	c := NewWVRFIFO()
	v1 := view(1, "a", "b")
	v2 := view(2, "a", "b")
	c.OnEvent(EView{P: "a", View: v1})
	c.OnEvent(EView{P: "b", View: v1})
	c.OnEvent(ESend{P: "a", MsgID: 1}) // sent in v1
	c.OnEvent(EView{P: "b", View: v2})
	c.OnEvent(EDeliver{P: "b", From: "a", MsgID: 1}) // delivered in v2
	wantViolation(t, c, "within-view")
}

func TestWVRFIFODetectsNonMonotonicViews(t *testing.T) {
	c := NewWVRFIFO()
	c.OnEvent(EView{P: "a", View: view(2, "a")})
	c.OnEvent(EView{P: "a", View: view(1, "a")})
	wantViolation(t, c, "Local Monotonicity")
}

func TestWVRFIFODetectsMissingSelfInclusion(t *testing.T) {
	c := NewWVRFIFO()
	c.OnEvent(EView{P: "z", View: view(1, "a", "b")})
	wantViolation(t, c, "Self Inclusion")
}

func TestWVRFIFODetectsUnknownMessage(t *testing.T) {
	c := NewWVRFIFO()
	c.OnEvent(EDeliver{P: "a", From: "b", MsgID: 404})
	wantViolation(t, c, "never sent")
}

func TestWVRFIFOKeepsOnlyMessagesInFlight(t *testing.T) {
	c := NewWVRFIFO()
	v := view(1, "a", "b", "c")
	for _, p := range v.Members.Sorted() {
		c.OnEvent(EView{P: p, View: v})
	}
	const n = 1000
	for id := int64(1); id <= n; id++ {
		c.OnEvent(ESend{P: "a", MsgID: id})
		c.OnEvent(EDeliver{P: "a", From: "a", MsgID: id})
		c.OnEvent(EDeliver{P: "b", From: "a", MsgID: id})
	}
	if len(c.info) != n {
		t.Fatalf("%d records for %d messages one member has yet to deliver", len(c.info), n)
	}
	for id := int64(1); id <= n; id++ {
		c.OnEvent(EDeliver{P: "c", From: "a", MsgID: id})
	}
	wantClean(t, c)
	if len(c.info) != 0 {
		t.Fatalf("%d records kept after every member delivered every message", len(c.info))
	}
}

func TestWVRFIFODetectsDuplicateDelivery(t *testing.T) {
	// Once while the record is still held, once after every member has
	// delivered the message and the record is gone.
	for _, last := range []types.ProcID{"", "b"} {
		c := NewWVRFIFO()
		v := view(1, "a", "b")
		c.OnEvent(EView{P: "a", View: v})
		c.OnEvent(EView{P: "b", View: v})
		c.OnEvent(ESend{P: "a", MsgID: 1})
		c.OnEvent(EDeliver{P: "a", From: "a", MsgID: 1})
		if last != "" {
			c.OnEvent(EDeliver{P: last, From: "a", MsgID: 1})
		}
		wantClean(t, c)
		c.OnEvent(EDeliver{P: "a", From: "a", MsgID: 1})
		if last == "" {
			wantViolation(t, c, "gap-free FIFO")
		} else {
			wantViolation(t, c, "never sent")
		}
	}
}

func TestWVRFIFODetectsWrongAttribution(t *testing.T) {
	c := NewWVRFIFO()
	v := view(1, "a", "b")
	c.OnEvent(EView{P: "a", View: v})
	c.OnEvent(EView{P: "b", View: v})
	c.OnEvent(ESend{P: "a", MsgID: 1})
	c.OnEvent(EDeliver{P: "b", From: "b", MsgID: 1})
	wantViolation(t, c, "sent by")
}

func TestWVRFIFORecoveryEpochSeparatesStreams(t *testing.T) {
	c := NewWVRFIFO()
	// A process sends in its initial view, crashes, recovers, and sends
	// again; the new message re-uses index 1 in a fresh epoch.
	c.OnEvent(ESend{P: "a", MsgID: 1})
	c.OnEvent(EDeliver{P: "a", From: "a", MsgID: 1})
	c.OnEvent(ECrash{P: "a"})
	c.OnEvent(ERecover{P: "a"})
	c.OnEvent(ESend{P: "a", MsgID: 2})
	c.OnEvent(EDeliver{P: "a", From: "a", MsgID: 2})
	wantClean(t, c)
}

func TestVSRFIFODetectsCutMismatch(t *testing.T) {
	c := NewVSRFIFO()
	v1 := view(1, "a", "b", "x")
	v2 := view(2, "a", "b")
	for _, p := range []types.ProcID{"a", "b"} {
		c.OnEvent(EView{P: p, View: v1})
	}
	// a delivers one message from x before moving; b delivers none.
	c.OnEvent(EDeliver{P: "a", From: "x", MsgID: 9})
	c.OnEvent(EView{P: "a", View: v2, Trans: types.NewProcSet("a", "b"), HasTrans: true})
	c.OnEvent(EView{P: "b", View: v2, Trans: types.NewProcSet("a", "b"), HasTrans: true})
	wantViolation(t, c, "Virtual Synchrony")
}

func TestVSRFIFOAcceptsAgreedCuts(t *testing.T) {
	c := NewVSRFIFO()
	v1 := view(1, "a", "b")
	v2 := view(2, "a", "b")
	for _, p := range []types.ProcID{"a", "b"} {
		c.OnEvent(EView{P: p, View: v1})
	}
	for _, p := range []types.ProcID{"a", "b"} {
		c.OnEvent(EDeliver{P: p, From: "a", MsgID: 1})
		c.OnEvent(EView{P: p, View: v2, Trans: types.NewProcSet("a", "b"), HasTrans: true})
	}
	wantClean(t, c)
}

func TestTransSetDetectsMissingMover(t *testing.T) {
	c := NewTransSet()
	v1 := view(1, "a", "b")
	v2 := view(2, "a", "b")
	for _, p := range []types.ProcID{"a", "b"} {
		c.OnEvent(EView{P: p, View: v1, Trans: types.NewProcSet(p), HasTrans: true})
	}
	// Both move v1 → v2 together, but a's transitional set omits b.
	c.OnEvent(EView{P: "a", View: v2, Trans: types.NewProcSet("a"), HasTrans: true})
	c.OnEvent(EView{P: "b", View: v2, Trans: types.NewProcSet("a", "b"), HasTrans: true})
	wantViolation(t, c, "missing from T")
}

func TestTransSetDetectsForeignMember(t *testing.T) {
	c := NewTransSet()
	v1 := view(1, "a", "b")
	v2 := view(2, "a", "b")
	// a moves from v1; b never installed v1 (it moves from its initial
	// view) — yet a claims b moved with it.
	c.OnEvent(EView{P: "a", View: v1, Trans: types.NewProcSet("a"), HasTrans: true})
	c.OnEvent(EView{P: "a", View: v2, Trans: types.NewProcSet("a", "b"), HasTrans: true})
	c.OnEvent(EView{P: "b", View: v2, Trans: types.NewProcSet("b"), HasTrans: true})
	wantViolation(t, c, "appears in T")
}

func TestTransSetDetectsSelfExclusion(t *testing.T) {
	c := NewTransSet()
	c.OnEvent(EView{P: "a", View: view(1, "a", "b"), Trans: types.NewProcSet(), HasTrans: true})
	wantViolation(t, c, "does not include the process itself")
}

func TestSelfDeliveryDetectsMissingOwnMessage(t *testing.T) {
	c := NewSelfDelivery()
	c.OnEvent(ESend{P: "a", MsgID: 1})
	c.OnEvent(EView{P: "a", View: view(1, "a")})
	wantViolation(t, c, "Self Delivery")
}

func TestSelfDeliveryAcceptsCompleteSelfStream(t *testing.T) {
	c := NewSelfDelivery()
	c.OnEvent(ESend{P: "a", MsgID: 1})
	c.OnEvent(EDeliver{P: "a", From: "a", MsgID: 1})
	c.OnEvent(EView{P: "a", View: view(1, "a")})
	wantClean(t, c)
}

func TestBlockingClientDetectsSendWhileBlocked(t *testing.T) {
	c := NewBlockingClient()
	c.OnEvent(EBlock{P: "a"})
	c.OnEvent(EBlockOK{P: "a"})
	c.OnEvent(ESend{P: "a", MsgID: 1})
	wantViolation(t, c, "while blocked")
}

func TestBlockingClientDetectsSpuriousAck(t *testing.T) {
	c := NewBlockingClient()
	c.OnEvent(EBlockOK{P: "a"})
	wantViolation(t, c, "without an outstanding block request")
}

func TestBlockingClientUnblocksOnView(t *testing.T) {
	c := NewBlockingClient()
	c.OnEvent(EBlock{P: "a"})
	c.OnEvent(EBlockOK{P: "a"})
	c.OnEvent(EView{P: "a", View: view(1, "a")})
	c.OnEvent(ESend{P: "a", MsgID: 1})
	wantClean(t, c)
}

func TestMembershipDetectsViewWithoutStartChange(t *testing.T) {
	c := NewMembership()
	c.OnEvent(EMView{P: "a", View: view(1, "a")})
	wantViolation(t, c, "without a preceding start_change")
}

func TestMembershipDetectsNonIncreasingCid(t *testing.T) {
	c := NewMembership()
	c.OnEvent(EMStartChange{P: "a", SC: types.StartChange{ID: 2, Set: types.NewProcSet("a")}})
	c.OnEvent(EMStartChange{P: "a", SC: types.StartChange{ID: 2, Set: types.NewProcSet("a")}})
	wantViolation(t, c, "identifiers must increase")
}

func TestMembershipDetectsStartIdMismatch(t *testing.T) {
	c := NewMembership()
	c.OnEvent(EMStartChange{P: "a", SC: types.StartChange{ID: 5, Set: types.NewProcSet("a")}})
	v := types.NewView(1, types.NewProcSet("a"), map[types.ProcID]types.StartChangeID{"a": 4})
	c.OnEvent(EMView{P: "a", View: v})
	wantViolation(t, c, "want latest cid")
}

func TestMembershipDetectsSupersetView(t *testing.T) {
	c := NewMembership()
	c.OnEvent(EMStartChange{P: "a", SC: types.StartChange{ID: 1, Set: types.NewProcSet("a")}})
	v := types.NewView(1, types.NewProcSet("a", "b"),
		map[types.ProcID]types.StartChangeID{"a": 1, "b": 1})
	c.OnEvent(EMView{P: "a", View: v})
	wantViolation(t, c, "not a subset")
}

func TestSuiteAggregatesViolations(t *testing.T) {
	s := FullSuite(WithTrace())
	s.OnEvent(EMView{P: "a", View: view(1, "a")}) // no start_change
	if err := s.Err(); err == nil {
		t.Fatal("suite accepted a bad trace")
	} else if !strings.Contains(err.Error(), "MBRSHP") {
		t.Fatalf("error %v does not name the failing spec", err)
	}
	if len(s.Trace()) != 1 {
		t.Fatalf("trace length = %d", len(s.Trace()))
	}
}

func TestCheckLivenessDetectsMissingInstall(t *testing.T) {
	v := view(1, "a", "b")
	trace := []Event{
		EView{P: "a", View: v},
		// b never installs v.
	}
	if err := CheckLiveness(trace, v); err == nil ||
		!strings.Contains(err.Error(), "never delivered") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckLivenessDetectsUndeliveredMessage(t *testing.T) {
	v := view(1, "a", "b")
	trace := []Event{
		EView{P: "a", View: v},
		EView{P: "b", View: v},
		ESend{P: "a", MsgID: 1},
		EDeliver{P: "a", From: "a", MsgID: 1},
		// b never delivers #1.
	}
	if err := CheckLiveness(trace, v); err == nil ||
		!strings.Contains(err.Error(), "not delivered at") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckLivenessAcceptsCompleteRun(t *testing.T) {
	v := view(1, "a", "b")
	trace := []Event{
		EView{P: "a", View: v},
		EView{P: "b", View: v},
		ESend{P: "a", MsgID: 1},
		EDeliver{P: "a", From: "a", MsgID: 1},
		EDeliver{P: "b", From: "a", MsgID: 1},
	}
	if err := CheckLiveness(trace, v); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestEventStrings(t *testing.T) {
	evs := []Event{
		ESend{P: "a", MsgID: 1},
		EDeliver{P: "a", From: "b", MsgID: 1},
		EView{P: "a", View: view(1, "a"), Trans: types.NewProcSet("a"), HasTrans: true},
		EView{P: "a", View: view(1, "a")},
		EBlock{P: "a"},
		EBlockOK{P: "a"},
		EMStartChange{P: "a", SC: types.StartChange{ID: 1, Set: types.NewProcSet("a")}},
		EMView{P: "a", View: view(1, "a")},
		ECrash{P: "a"},
		ERecover{P: "a"},
	}
	for _, ev := range evs {
		if ev.Proc() != "a" {
			t.Errorf("%T proc = %s", ev, ev.Proc())
		}
		if ev.String() == "" {
			t.Errorf("%T has empty string", ev)
		}
	}
}

func TestCheckersRejectActivityAtCrashedProcesses(t *testing.T) {
	c := NewWVRFIFO()
	c.OnEvent(ECrash{P: "a"})
	c.OnEvent(ESend{P: "a", MsgID: 1})
	wantViolation(t, c, "crashed")

	c2 := NewWVRFIFO()
	c2.OnEvent(EView{P: "a", View: view(1, "a")})
	c2.OnEvent(ECrash{P: "a"})
	c2.OnEvent(EDeliver{P: "a", From: "a", MsgID: 1})
	wantViolation(t, c2, "crashed")

	c3 := NewWVRFIFO()
	c3.OnEvent(ECrash{P: "a"})
	c3.OnEvent(EView{P: "a", View: view(1, "a")})
	wantViolation(t, c3, "crashed")
}

func TestVSAndTransSetIgnoreCrashedProcesses(t *testing.T) {
	// The adapted specifications of Section 8 disable obligations while
	// crashed; events at crashed processes must not corrupt cross-process
	// state.
	vs := NewVSRFIFO()
	ts := NewTransSet()
	v1 := view(1, "a", "b")
	for _, c := range []Checker{vs, ts} {
		c.OnEvent(EView{P: "a", View: v1, Trans: types.NewProcSet("a"), HasTrans: true})
		c.OnEvent(ECrash{P: "a"})
		c.OnEvent(EDeliver{P: "a", From: "b", MsgID: 5})
		c.OnEvent(EView{P: "a", View: view(2, "a", "b"), Trans: types.NewProcSet("a"), HasTrans: true})
		c.OnEvent(ERecover{P: "a"})
		wantClean(t, c)
	}
}

func TestSuiteVariants(t *testing.T) {
	for name, s := range map[string]*Suite{
		"wv": WVSuite(),
		"vs": VSSuite(),
	} {
		s.OnEvent(EView{P: "a", View: view(1, "a", "b")})
		if err := s.Err(); err != nil {
			t.Errorf("%s suite rejected a legal view: %v", name, err)
		}
		if got := s.Trace(); got != nil {
			t.Errorf("%s suite retained a trace without WithTrace", name)
		}
	}
}

func TestRenderTrace(t *testing.T) {
	out := RenderTrace([]Event{
		ESend{P: "a", MsgID: 1},
		EDeliver{P: "b", From: "a", MsgID: 1},
	})
	if !strings.Contains(out, "0  a: send(#1)") || !strings.Contains(out, "1  b: deliver") {
		t.Errorf("rendered trace:\n%s", out)
	}
}

func TestSelfDeliveryCrashClearsCounters(t *testing.T) {
	c := NewSelfDelivery()
	c.OnEvent(ESend{P: "a", MsgID: 1})
	c.OnEvent(ECrash{P: "a"})
	c.OnEvent(ERecover{P: "a"})
	// The pre-crash send no longer obliges anything (no stable storage).
	c.OnEvent(EView{P: "a", View: view(1, "a")})
	wantClean(t, c)
}

func TestBlockingClientCrashResets(t *testing.T) {
	c := NewBlockingClient()
	c.OnEvent(EBlock{P: "a"})
	c.OnEvent(EBlockOK{P: "a"})
	c.OnEvent(ECrash{P: "a"})
	c.OnEvent(ERecover{P: "a"})
	c.OnEvent(ESend{P: "a", MsgID: 1}) // recovered clients start unblocked
	wantClean(t, c)
}

func TestMembershipCrashRecoverResetsMode(t *testing.T) {
	c := NewMembership()
	c.OnEvent(EMStartChange{P: "a", SC: types.StartChange{ID: 1, Set: types.NewProcSet("a")}})
	c.OnEvent(ECrash{P: "a"})
	c.OnEvent(ERecover{P: "a"})
	// After recovery the mode is normal again: a view without a fresh
	// start_change violates the spec.
	v := types.NewView(1, types.NewProcSet("a"), map[types.ProcID]types.StartChangeID{"a": 1})
	c.OnEvent(EMView{P: "a", View: v})
	wantViolation(t, c, "without a preceding start_change")
}

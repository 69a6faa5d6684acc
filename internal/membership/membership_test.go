package membership

import (
	"testing"
	"time"

	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// collectingOutput records notifications and feeds the MBRSHP spec checker.
type collectingOutput struct {
	checker *spec.Membership
	byProc  map[types.ProcID][]Notification
}

func newCollectingOutput() *collectingOutput {
	return &collectingOutput{
		checker: spec.NewMembership(),
		byProc:  make(map[types.ProcID][]Notification),
	}
}

func (o *collectingOutput) out(p types.ProcID, n Notification) {
	o.byProc[p] = append(o.byProc[p], n)
	switch n.Kind {
	case NotifyStartChange:
		o.checker.OnEvent(spec.EMStartChange{P: p, SC: n.StartChange})
	case NotifyView:
		o.checker.OnEvent(spec.EMView{P: p, View: n.View})
	}
}

func (o *collectingOutput) assertSpec(t *testing.T) {
	t.Helper()
	o.checker.Finalize()
	if v := o.checker.Violations(); len(v) != 0 {
		t.Fatalf("MBRSHP spec violations: %v", v)
	}
}

func TestOracleBasicChange(t *testing.T) {
	o := newCollectingOutput()
	orc := NewOracle(o.out)
	orc.Register("a")
	orc.Register("b")

	set := types.NewProcSet("a", "b")
	ids, err := orc.StartChange(set)
	if err != nil {
		t.Fatal(err)
	}
	if ids["a"] != 1 || ids["b"] != 1 {
		t.Fatalf("first cids = %v, want 1 each", ids)
	}
	v, err := orc.DeliverView(set)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Members.Equal(set) || v.StartID["a"] != 1 || v.StartID["b"] != 1 {
		t.Fatalf("view = %+v", v)
	}
	o.assertSpec(t)
}

func TestOracleStartChangeIdentifiersAreLocallyIncreasing(t *testing.T) {
	o := newCollectingOutput()
	orc := NewOracle(o.out)
	orc.Register("a")
	set := types.NewProcSet("a")
	for i := 1; i <= 3; i++ {
		ids, err := orc.StartChange(set)
		if err != nil {
			t.Fatal(err)
		}
		if ids["a"] != types.StartChangeID(i) {
			t.Fatalf("cid = %d, want %d", ids["a"], i)
		}
	}
	o.assertSpec(t)
}

func TestOracleViewRequiresStartChange(t *testing.T) {
	orc := NewOracle(func(types.ProcID, Notification) {})
	orc.Register("a")
	if _, err := orc.DeliverView(types.NewProcSet("a")); err == nil {
		t.Fatal("view without a preceding start_change must be rejected")
	}
}

func TestOracleViewMembersMustBeSubsetOfStartChange(t *testing.T) {
	orc := NewOracle(func(types.ProcID, Notification) {})
	orc.Register("a")
	orc.Register("b")
	if _, err := orc.StartChange(types.NewProcSet("a")); err != nil {
		t.Fatal(err)
	}
	// b never saw a start_change mentioning it together with a.
	if _, err := orc.DeliverView(types.NewProcSet("a", "b")); err == nil {
		t.Fatal("view exceeding the start_change set must be rejected")
	}
}

func TestOracleRejectsUnknownAndEmpty(t *testing.T) {
	orc := NewOracle(func(types.ProcID, Notification) {})
	if _, err := orc.StartChange(types.NewProcSet("ghost")); err == nil {
		t.Fatal("unknown client accepted")
	}
	if _, err := orc.DeliverView(types.NewProcSet()); err == nil {
		t.Fatal("empty view accepted")
	}
}

func TestOracleViewIDsIncreaseAcrossPartitions(t *testing.T) {
	o := newCollectingOutput()
	orc := NewOracle(o.out)
	for _, p := range []types.ProcID{"a", "b", "c", "d"} {
		orc.Register(p)
	}
	views, err := orc.Partition(types.NewProcSet("a", "b"), types.NewProcSet("c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].ID == views[1].ID {
		t.Fatalf("partition views = %v", views)
	}
	// Merge: the new id must exceed both.
	merged, err := orc.ProposeAndCommit(types.NewProcSet("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	if merged.ID <= views[0].ID || merged.ID <= views[1].ID {
		t.Fatalf("merged id %d not above partition ids", merged.ID)
	}
	o.assertSpec(t)
}

func TestOracleCrashSuppressesNotificationsButKeepsState(t *testing.T) {
	o := newCollectingOutput()
	orc := NewOracle(o.out)
	orc.Register("a")
	orc.Register("b")
	if _, err := orc.ProposeAndCommit(types.NewProcSet("a", "b")); err != nil {
		t.Fatal(err)
	}

	if err := orc.Crash("b"); err != nil {
		t.Fatal(err)
	}
	countB := len(o.byProc["b"])
	if _, err := orc.ProposeAndCommit(types.NewProcSet("a")); err != nil {
		t.Fatal(err)
	}
	if len(o.byProc["b"]) != countB {
		t.Fatal("crashed client received notifications")
	}

	// A view naming a crashed member is rejected.
	if _, err := orc.StartChange(types.NewProcSet("a", "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := orc.DeliverView(types.NewProcSet("a", "b")); err == nil {
		t.Fatal("view naming a crashed member accepted")
	}

	// After recovery, the client's identifier state continues: its next
	// view id and cid exceed all pre-crash values (Section 8).
	if err := orc.Recover("b"); err != nil {
		t.Fatal(err)
	}
	v, err := orc.ProposeAndCommit(types.NewProcSet("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if v.StartID["b"] <= 1 {
		t.Fatalf("recovered client's cid = %d, want > 1", v.StartID["b"])
	}
	o.assertSpec(t)
}

func TestOracleGetters(t *testing.T) {
	orc := NewOracle(func(types.ProcID, Notification) {})
	orc.Register("a")
	v, err := orc.CurrentView("a")
	if err != nil || !v.Equal(types.InitialView("a")) {
		t.Fatalf("initial current view = %v, err %v", v, err)
	}
	if _, err := orc.LastStartChange("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := orc.CurrentView("ghost"); err == nil {
		t.Fatal("unknown client accepted")
	}
}

func TestNotificationString(t *testing.T) {
	sc := Notification{Kind: NotifyStartChange, StartChange: types.StartChange{ID: 1, Set: types.NewProcSet("a")}}
	if sc.String() == "" {
		t.Fatal("empty string")
	}
	vn := Notification{Kind: NotifyView, View: types.InitialView("a")}
	if vn.String() == "" {
		t.Fatal("empty string")
	}
}

func TestDetectorSuspectsAndTrustsAgain(t *testing.T) {
	start := time.Unix(0, 0)
	peers := types.NewProcSet("A", "B", "C")
	d := NewDetectorWith("A", peers, 50*time.Millisecond, start, DetectorConfig{})

	// Bootstrap: the first tick reports full reachability as a change.
	reachable, changed := d.Tick(start)
	if !changed || !reachable.Equal(peers) {
		t.Fatalf("bootstrap tick = (%s, %v), want full set and changed", reachable, changed)
	}

	// B keeps beating, C goes silent.
	d.OnHeartbeatInfo("B", start.Add(40*time.Millisecond), nil)
	reachable, changed = d.Tick(start.Add(80 * time.Millisecond))
	if !changed {
		t.Fatal("C's silence went unnoticed")
	}
	if !reachable.Equal(types.NewProcSet("A", "B")) {
		t.Fatalf("reachable = %s, want {A, B}", reachable)
	}

	// A steady state reports no change.
	d.OnHeartbeatInfo("B", start.Add(90*time.Millisecond), nil)
	if _, changed := d.Tick(start.Add(100 * time.Millisecond)); changed {
		t.Fatal("spurious change in steady state")
	}

	// C comes back.
	d.OnHeartbeatInfo("C", start.Add(120*time.Millisecond), nil)
	d.OnHeartbeatInfo("B", start.Add(120*time.Millisecond), nil)
	reachable, changed = d.Tick(start.Add(130 * time.Millisecond))
	if !changed || !reachable.Equal(peers) {
		t.Fatalf("recovery tick = (%s, %v), want full set and changed", reachable, changed)
	}
	if !d.reachable.Equal(peers) {
		t.Fatalf("reachable = %s", d.reachable)
	}
}

func TestDetectorIgnoresStrangersAndStaleBeats(t *testing.T) {
	start := time.Unix(0, 0)
	d := NewDetectorWith("A", types.NewProcSet("A", "B"), 50*time.Millisecond, start, DetectorConfig{})
	d.Tick(start)

	d.OnHeartbeatInfo("ghost", start.Add(10*time.Millisecond), nil)
	if reachable, _ := d.Tick(start.Add(20 * time.Millisecond)); reachable.Contains("ghost") {
		t.Fatal("stranger admitted")
	}

	// A stale (reordered) heartbeat must not move lastSeen backwards.
	d.OnHeartbeatInfo("B", start.Add(40*time.Millisecond), nil)
	d.OnHeartbeatInfo("B", start.Add(10*time.Millisecond), nil)
	if reachable, _ := d.Tick(start.Add(80 * time.Millisecond)); !reachable.Contains("B") {
		t.Fatal("stale heartbeat regressed B's freshness")
	}
}

func TestDetectorSuspectIsImmediateAndRecoverable(t *testing.T) {
	start := time.Unix(0, 0)
	peers := types.NewProcSet("A", "B", "C")
	d := NewDetectorWith("A", peers, 50*time.Millisecond, start, DetectorConfig{})
	d.Tick(start)

	// External link-failure evidence removes B well before the heartbeat
	// timeout would have.
	at := start.Add(10 * time.Millisecond)
	d.Suspect("B", at)
	reachable, changed := d.Tick(at)
	if !changed || reachable.Contains("B") {
		t.Fatalf("after Suspect, Tick = (%s, %v), want B excluded and changed", reachable, changed)
	}
	if !reachable.Contains("C") {
		t.Fatal("Suspect(B) removed an unrelated peer")
	}

	// A fresh heartbeat restores trust.
	d.OnHeartbeatInfo("B", start.Add(20*time.Millisecond), nil)
	if reachable, _ := d.Tick(start.Add(25 * time.Millisecond)); !reachable.Contains("B") {
		t.Fatal("heartbeat after Suspect did not restore trust")
	}

	// Suspecting self or a stranger is a no-op.
	d.Suspect("A", at)
	d.Suspect("ghost", at)
	if reachable, _ := d.Tick(start.Add(30 * time.Millisecond)); !reachable.Contains("A") {
		t.Fatal("Suspect(self) removed self")
	}

	// A Suspect older than current freshness must not regress lastSeen.
	d.OnHeartbeatInfo("C", start.Add(100*time.Millisecond), nil)
	d.Suspect("C", start.Add(40*time.Millisecond))
	if reachable, _ := d.Tick(start.Add(110 * time.Millisecond)); !reachable.Contains("C") {
		t.Fatal("stale Suspect regressed C's freshness")
	}
}

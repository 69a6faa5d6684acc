package membership

// Unit tests for the crash-recovery surface of the membership server: the
// attach protocol's epoch-ranged identifiers, ownership arbitration through
// epoch gossip, record retention across deregistration, and the watchdog's
// proposal-repair path (Tick's re-proposal plus the reply-on-completed-attempt
// rule).

import (
	"testing"
	"time"
)

func TestAttachClientIssuesEpochRangedCids(t *testing.T) {
	rig := newServerRig(t, 1)
	srv := rig.servers["A"]
	rig.boot(t)

	if _, added := srv.AttachClientClaim("c", 1, ClientRecord{}); !added {
		t.Fatal("first attach did not register the client")
	}
	srv.Reconfigure()
	rig.pump(t)
	rec1, ok := srv.RecordOf("c")
	if !ok {
		t.Fatal("no record after first attempt")
	}
	if rec1.CID < 1<<cidEpochShift || rec1.CID >= 2<<cidEpochShift {
		t.Fatalf("epoch-1 cid %d outside its epoch range", rec1.CID)
	}
	if rec1.Vid <= 0 {
		t.Fatalf("no view recorded: %+v", rec1)
	}

	// A keepalive under the same epoch is idempotent: no new registration.
	if _, added := srv.AttachClientClaim("c", 1, ClientRecord{}); added {
		t.Fatal("keepalive reported a fresh registration")
	}

	// A re-attach under a higher epoch (post-failover identity) jumps the
	// cid into the new epoch's range, dominating everything issued before.
	srv.RemoveClient("c")
	if _, added := srv.AttachClientClaim("c", 2, ClientRecord{}); !added {
		t.Fatal("re-attach did not register the client")
	}
	srv.Reconfigure()
	rig.pump(t)
	rec2, ok := srv.RecordOf("c")
	if !ok {
		t.Fatal("no record after re-attach")
	}
	if rec2.CID < 2<<cidEpochShift {
		t.Fatalf("epoch-2 cid %d not in the new epoch's range", rec2.CID)
	}
	if rec2.CID <= rec1.CID || rec2.Vid <= rec1.Vid {
		t.Fatalf("identifiers regressed across re-attach: %+v -> %+v", rec1, rec2)
	}
}

func TestAttachClientClaimFloorsColdServer(t *testing.T) {
	rig := newServerRig(t, 1)
	srv := rig.servers["A"]
	rig.boot(t)

	// A server resurrected from a stale store has no retained record and no
	// peer gossip for this client (peers never gossip a client only this
	// server holds) — the claim carried by the attach request is the only
	// source that can floor the identifiers it mints next.
	claim := ClientRecord{CID: 3<<cidEpochShift + 7, Vid: 41, Epoch: 3}
	rec, added := srv.AttachClientClaim("c", 3, claim)
	if !added {
		t.Fatal("attach did not register the client")
	}
	if rec.CID < claim.CID || rec.Vid < claim.Vid || rec.Epoch < claim.Epoch {
		t.Fatalf("returned record %+v below the claim %+v", rec, claim)
	}

	srv.Reconfigure()
	rig.pump(t)
	got, ok := srv.RecordOf("c")
	if !ok {
		t.Fatal("no record after the attempt")
	}
	if got.CID <= claim.CID {
		t.Fatalf("minted cid %d does not dominate the claimed %d", got.CID, claim.CID)
	}
	if got.Vid <= claim.Vid {
		t.Fatalf("minted view id %d does not dominate the claimed %d", got.Vid, claim.Vid)
	}
	if v := lastView(t, rig.out, "c"); v.ID <= claim.Vid {
		t.Fatalf("delivered view %d does not dominate the claimed %d", v.ID, claim.Vid)
	}

	// A keepalive with a zero claim is idempotent and regresses nothing.
	rec2, added := srv.AttachClientClaim("c", 3, ClientRecord{})
	if added {
		t.Fatal("keepalive reported a fresh registration")
	}
	if rec2.CID < got.CID || rec2.Vid < got.Vid {
		t.Fatalf("zero claim regressed the record: %+v -> %+v", got, rec2)
	}
}

func TestRemoveClientRetainsRecord(t *testing.T) {
	rig := newServerRig(t, 1)
	srv := rig.servers["A"]
	rig.boot(t)

	srv.AttachClientClaim("c", 1, ClientRecord{})
	srv.Reconfigure()
	rig.pump(t)
	before, ok := srv.RecordOf("c")
	if !ok || before.CID == 0 {
		t.Fatalf("expected a populated record, got %+v (ok=%v)", before, ok)
	}

	srv.RemoveClient("c")
	if srv.HasClient("c") {
		t.Fatal("client still registered after removal")
	}
	after, ok := srv.RecordOf("c")
	if !ok || after.CID < before.CID || after.Vid < before.Vid {
		t.Fatalf("record lost or regressed on removal: %+v -> %+v (ok=%v)", before, after, ok)
	}
}

func TestEpochGossipEvictsStaleOwner(t *testing.T) {
	rig := newServerRig(t, 2)
	a, b := rig.servers["A"], rig.servers["B"]
	rig.boot(t)

	a.AttachClientClaim("c", 1, ClientRecord{})
	a.Reconfigure()
	rig.pump(t)
	if !a.HasClient("c") {
		t.Fatal("A lost its client before any failover")
	}

	// The client fails over to B under a fresh epoch while A still believes
	// it owns the registration. B's proposal gossips the higher epoch, and A
	// must cede rather than fight over ownership.
	b.AttachClientClaim("c", 2, ClientRecord{})
	b.Reconfigure()
	rig.pump(t)

	if a.HasClient("c") {
		t.Fatal("A kept a registration superseded by a higher epoch")
	}
	if !b.HasClient("c") {
		t.Fatal("B lost the adopted client")
	}
	if ev := a.Evictions(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// A's retained record remembers the newer epoch, so a late detach or
	// stale re-attach for the old incarnation cannot resurrect it.
	rec, ok := a.RecordOf("c")
	if !ok || rec.Epoch < 2 {
		t.Fatalf("A's retained record missed the newer epoch: %+v (ok=%v)", rec, ok)
	}
	// Both servers agree on the client's view after the hand-off.
	if va, vb := lastView(t, rig.out, "c"), b.ClientRecords()["c"]; va.ID != vb.Vid {
		t.Fatalf("view disagreement after hand-off: delivered %d, B recorded %d", va.ID, vb.Vid)
	}
}

func TestReproposeRepairsLostProposal(t *testing.T) {
	rig := newServerRig(t, 2)
	a, b := rig.servers["A"], rig.servers["B"]
	a.AddClient("c0")
	b.AddClient("c1")
	rig.boot(t)
	if a.stalled() || b.stalled() {
		t.Fatal("servers stalled after a clean boot")
	}
	firstView := lastView(t, rig.out, "c0")

	// A starts an attempt and its proposal to B is lost in transit: the
	// one-round protocol is wedged until someone retries.
	a.Reconfigure()
	if err := rig.net.LoseTail("A", "B"); err != nil {
		t.Fatal(err)
	}
	rig.pump(t)
	if !a.stalled() {
		t.Fatal("A not stalled after its proposal was lost")
	}

	// The watchdog's retry path: a watchdog period after A first saw the
	// stall, its tick resends the current proposal and the servers converge.
	if !reproposeByTicks(a) {
		t.Fatal("the watchdog refused to resend a stalled attempt")
	}
	rig.pump(t)
	if a.stalled() || b.stalled() {
		t.Fatalf("attempt still stalled after repropose (A=%v B=%v)", a.stalled(), b.stalled())
	}
	if got := a.Reproposals(); got != 1 {
		t.Fatalf("reproposals = %d, want 1", got)
	}
	if v := lastView(t, rig.out, "c0"); v.ID <= firstView.ID {
		t.Fatalf("no fresh view after repair: %d -> %d", firstView.ID, v.ID)
	}
}

func TestReproposeAgainstCompletedAttemptGetsReply(t *testing.T) {
	rig := newServerRig(t, 2)
	a, b := rig.servers["A"], rig.servers["B"]
	a.AddClient("c0")
	b.AddClient("c1")
	rig.boot(t)

	// Asymmetric loss: B receives A's proposal and completes the attempt,
	// but B's own proposal back to A is lost — only A is wedged.
	a.Reconfigure()
	if _, ok := rig.net.DeliverNext("A", "B"); !ok {
		t.Fatal("no proposal queued from A to B")
	}
	if err := rig.net.LoseTail("B", "A"); err != nil {
		t.Fatal(err)
	}
	rig.pump(t)
	if b.stalled() {
		t.Fatal("B should have completed the attempt")
	}
	if !a.stalled() {
		t.Fatal("A should be wedged awaiting B's proposal")
	}

	// A's retry hits an attempt B already completed; B must answer with its
	// last proposal instead of ignoring the stale-looking frame.
	if !reproposeByTicks(a) {
		t.Fatal("the watchdog refused to resend")
	}
	rig.pump(t)
	if a.stalled() {
		t.Fatal("A still wedged: completed peer did not reply to the retry")
	}
	if va, vb := lastView(t, rig.out, "c0"), lastView(t, rig.out, "c1"); va.ID != vb.ID || !va.Members.Equal(vb.Members) {
		t.Fatalf("servers diverged after repair: %+v vs %+v", va, vb)
	}
}

// reproposeByTicks ticks s when it first sees its attempt stalled and again
// one watchdog period later, and reports whether the second tick, and only
// it, re-sent the proposal.
func reproposeByTicks(s *Server) bool {
	before := s.Reproposals()
	s.Tick(clientT0)
	if s.Reproposals() != before {
		return false
	}
	s.Tick(clientT0.Add(s.watchdog))
	return s.Reproposals() == before+1
}

// TestWatchdogReproposesOncePerPeriod pins the watchdog's rule to the clock,
// not to how often the host ticks: an attempt whose proposals keep getting
// lost is re-proposed one period after the stall was first seen and once
// per period after that, at every tick cadence; a fresh attempt restarts
// the timing.
func TestWatchdogReproposesOncePerPeriod(t *testing.T) {
	const period = 100 * time.Millisecond
	for _, cadence := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond, period} {
		rig := newServerRig(t, 2)
		a := rig.servers["A"]
		a.AddClient("c0")
		rig.boot(t)
		if got := a.SetWatchdog(period); got != period {
			t.Fatalf("SetWatchdog(%v) = %v", period, got)
		}
		a.Reconfigure() // its proposal to B is never delivered
		for at := time.Duration(0); at <= 250*time.Millisecond; at += cadence {
			a.Tick(clientT0.Add(at))
		}
		if got := a.Reproposals(); got != 2 {
			t.Errorf("cadence %v: %d reproposals over 2.5 periods of one stall, want 2", cadence, got)
		}
		// A new attempt is a new stall: the first sight starts its clock.
		a.Reconfigure()
		a.Tick(clientT0.Add(300 * time.Millisecond))
		a.Tick(clientT0.Add(300*time.Millisecond + period - time.Millisecond))
		if got := a.Reproposals(); got != 2 {
			t.Errorf("cadence %v: a fresh attempt was re-proposed before a period passed (%d)", cadence, got)
		}
		a.Tick(clientT0.Add(300*time.Millisecond + period))
		if got := a.Reproposals(); got != 3 {
			t.Errorf("cadence %v: the fresh stall was not re-proposed after a period (%d)", cadence, got)
		}
	}
}

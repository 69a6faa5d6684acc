package main

import (
	"testing"

	"vsgm/internal/core"
	"vsgm/internal/types"
)

func deliver(t *tracker, member, sender int, seq uint64) {
	p := make([]byte, hdrLen)
	p[hdrSender] = byte(sender)
	stamp(p, seq, 0)
	t.onEvent(member, core.DeliverEvent{Sender: memberIDs[sender], Msg: types.AppMsg{Payload: p}})
}

func TestSelfDeliveryDoesNotReleaseTheSlot(t *testing.T) {
	const window = 2
	tr := newTracker(4, 4, 1, window)
	tr.phase.Store(phaseTimed)
	take := func() bool {
		select {
		case <-tr.tokens[0]:
			return true
		default:
			return false
		}
	}
	if !take() || !take() || take() {
		t.Fatal("a window of 2 must hold exactly two tokens")
	}
	// Both outstanding sends are self-delivered at once: still no free slot.
	deliver(tr, 0, 0, 0)
	deliver(tr, 0, 0, 1)
	if take() {
		t.Fatal("the sender's own delivery released a window slot")
	}
	deliver(tr, 1, 0, 0)
	deliver(tr, 2, 0, 0)
	if take() {
		t.Fatal("a slot was released before the last member delivered")
	}
	deliver(tr, 3, 0, 0)
	if !take() {
		t.Fatal("the last member's delivery must release the slot")
	}
	if take() {
		t.Fatal("one completed multicast released two slots")
	}
	if got := tr.completed.Load(); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
	done, latency, violations := tr.totals()
	if done != 1 || latency.n != 1 || violations != 0 {
		t.Fatalf("done=%d samples=%d violations=%d", done, latency.n, violations)
	}
	// The slot is reused by sequence number 2 and counts from zero again.
	deliver(tr, 0, 0, 2)
	deliver(tr, 1, 0, 1)
	deliver(tr, 1, 0, 2)
	if take() {
		t.Fatal("a reused slot kept its old count")
	}
}

func TestTrackerFlagsGapsAndReordering(t *testing.T) {
	tr := newTracker(4, 3, 2, 0)
	deliver(tr, 1, 0, 0)
	deliver(tr, 1, 0, 2) // gap: 1 never came
	deliver(tr, 1, 1, 0)
	deliver(tr, 1, 1, 0) // duplicate
	if _, _, v := tr.totals(); v != 2 {
		t.Errorf("violations = %d, want 2 (one gap, one duplicate)", v)
	}
	// Member 3 is not permanent: it may miss a stretch but never go back.
	deliver(tr, 3, 0, 5)
	deliver(tr, 3, 0, 9)
	if _, _, v := tr.totals(); v != 2 {
		t.Errorf("a rejoining member's gap was counted: violations = %d", v)
	}
	deliver(tr, 3, 0, 7)
	if _, _, v := tr.totals(); v != 3 {
		t.Errorf("a rejoining member going backwards was not counted: violations = %d", v)
	}
}

func TestMissingCountsUndeliveredMulticasts(t *testing.T) {
	tr := newTracker(4, 4, 1, 4)
	<-tr.tokens[0] // sequence 0 was sent, so its slot is taken
	<-tr.tokens[0] // and sequence 1
	for m := 0; m < 4; m++ {
		deliver(tr, m, 0, 0)
	}
	deliver(tr, 0, 0, 1)
	if got := tr.missing([]uint64{2}); got != 3 {
		t.Errorf("missing = %d, want 3: sequence 1 reached only its sender", got)
	}
}

package totalorder_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/sim"
	"vsgm/internal/spec"
	"vsgm/internal/totalorder"
	"vsgm/internal/types"
)

// harness wires one total-order session per cluster member.
type harness struct {
	c        *sim.Cluster
	sessions map[types.ProcID]*totalorder.Session
	orders   map[types.ProcID][]string
	views    map[types.ProcID]int
	data     map[types.ProcID]int // data messages the end-point delivered to the session
	suite    *spec.Suite
}

func newHarness(t *testing.T, n int, seed int64) *harness {
	t.Helper()
	h := &harness{
		sessions: make(map[types.ProcID]*totalorder.Session),
		orders:   make(map[types.ProcID][]string),
		views:    make(map[types.ProcID]int),
		data:     make(map[types.ProcID]int),
		suite:    spec.FullSuite(),
	}
	cfg := sim.Config{
		Procs:           sim.ProcIDs(n),
		Latency:         sim.UniformLatency{Base: 10 * time.Millisecond, Jitter: 8 * time.Millisecond},
		MembershipRound: 10 * time.Millisecond,
		Seed:            seed,
		Suite:           h.suite,
		OnAppEvent: func(p types.ProcID, ev core.Event) {
			if s := h.sessions[p]; s != nil {
				if d, ok := ev.(core.DeliverEvent); ok && d.Msg.Payload[0] == 1 {
					h.data[p]++
				}
				if err := s.HandleEvent(ev); err != nil {
					t.Errorf("session %s: %v", p, err)
				}
			}
		},
	}
	c, err := sim.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	for _, p := range c.Procs() {
		p := p
		s, err := totalorder.New(p,
			func(payload []byte) error {
				_, err := c.Send(p, payload)
				return err
			},
			func(sender types.ProcID, payload []byte) {
				h.orders[p] = append(h.orders[p], fmt.Sprintf("%s:%s", sender, payload))
			},
			func(types.View, types.ProcSet) { h.views[p]++ },
		)
		if err != nil {
			t.Fatal(err)
		}
		h.sessions[p] = s
	}
	return h
}

func (h *harness) assertIdenticalOrders(t *testing.T, members types.ProcSet) {
	t.Helper()
	var ref []string
	var refProc types.ProcID
	for i, p := range members.Sorted() {
		got := h.orders[p]
		if i == 0 {
			ref = got
			refProc = p
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s delivered %d messages, %s delivered %d", p, len(got), refProc, len(ref))
		}
		for j := range got {
			if got[j] != ref[j] {
				t.Fatalf("order diverges at %d: %s has %q, %s has %q", j, p, got[j], refProc, ref[j])
			}
		}
	}
}

func TestTotalOrderConcurrentSenders(t *testing.T) {
	h := newHarness(t, 4, 21)
	all := types.NewProcSet(h.c.Procs()...)
	if _, _, err := h.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}

	// Interleave sends from every member with some virtual-time spacing so
	// the streams genuinely race.
	for round := 0; round < 8; round++ {
		for i, p := range h.c.Procs() {
			p := p
			msg := fmt.Sprintf("r%d", round)
			h.c.At(time.Duration(i)*3*time.Millisecond, func() {
				if err := h.sessions[p].Send([]byte(msg)); err != nil {
					t.Errorf("send: %v", err)
				}
			})
		}
		if err := h.c.RunFor(5 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.c.Run(); err != nil {
		t.Fatal(err)
	}

	want := 8 * len(h.c.Procs())
	for _, p := range h.c.Procs() {
		if got := len(h.orders[p]); got != want {
			t.Errorf("%s delivered %d ordered messages, want %d", p, got, want)
		}
	}
	h.assertIdenticalOrders(t, all)
}

func TestTotalOrderAcrossViewChange(t *testing.T) {
	h := newHarness(t, 4, 23)
	procs := h.c.Procs()
	all := types.NewProcSet(procs...)
	if _, _, err := h.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}

	// Send while a member leaves: the view-boundary flush must produce the
	// same order at all survivors.
	for i := 0; i < 6; i++ {
		for _, p := range procs {
			if err := h.sessions[p].Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	survivors := types.NewProcSet(procs[0], procs[1], procs[2])
	if _, _, err := h.c.ReconfigureTo(survivors); err != nil {
		t.Fatal(err)
	}
	if err := h.c.Run(); err != nil {
		t.Fatal(err)
	}
	h.assertIdenticalOrders(t, survivors)

	// All messages sent in the old view must have been flushed everywhere.
	want := 6 * len(procs)
	for _, p := range survivors.Sorted() {
		if got := len(h.orders[p]); got != want {
			t.Errorf("%s delivered %d messages, want %d", p, got, want)
		}
	}
}

// TestTotalOrderJoinerNumbersFromTheNewView: a session numbers each sender's
// messages per view, so a member that joins with no history agrees with the
// old members on every new-view message's slot. Numbering carried across the
// view boundary would leave the joiner holding data whose assignments name
// other indices, and it would release nothing.
func TestTotalOrderJoinerNumbersFromTheNewView(t *testing.T) {
	h := newHarness(t, 3, 37)
	procs := h.c.Procs()
	first := types.NewProcSet(procs[0], procs[1])
	if _, _, err := h.c.ReconfigureTo(first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := h.sessions[procs[1]].Send([]byte(fmt.Sprintf("old%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	all := types.NewProcSet(procs...)
	if _, _, err := h.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	for _, p := range procs[1:] {
		if err := h.sessions[p].Send([]byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.c.Run(); err != nil {
		t.Fatal(err)
	}
	joiner := h.orders[procs[2]]
	if len(joiner) != 2 {
		t.Fatalf("the joiner released %v, want the two new-view messages", joiner)
	}
	for _, p := range procs[:2] {
		got := h.orders[p]
		if want := 3 + 2; len(got) != want {
			t.Fatalf("%s released %d messages, want %d", p, len(got), want)
		}
		if tail := got[len(got)-2:]; fmt.Sprint(tail) != fmt.Sprint(joiner) {
			t.Fatalf("%s released the new view's messages as %v, the joiner as %v", p, tail, joiner)
		}
	}
	if err := h.suite.Err(); err != nil {
		t.Error(err)
	}
}

func TestTotalOrderSequencerLeaves(t *testing.T) {
	h := newHarness(t, 3, 29)
	procs := h.c.Procs()
	all := types.NewProcSet(procs...)
	if _, _, err := h.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}

	// p00 is the sequencer (minimum id). Load the group, let the data
	// propagate (so the survivors' cuts commit to the sequencer's
	// messages), then remove it.
	for i := 0; i < 5; i++ {
		for _, p := range procs {
			if err := h.sessions[p].Send([]byte(fmt.Sprintf("x%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.c.RunFor(60 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rest := types.NewProcSet(procs[1], procs[2])
	if _, _, err := h.c.ReconfigureTo(rest); err != nil {
		t.Fatal(err)
	}
	// The new sequencer (p01) takes over: its own message needs no
	// assignment, p02's gets one from it.
	for _, p := range rest.Sorted() {
		if err := h.sessions[p].Send([]byte("after")); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.c.Run(); err != nil {
		t.Fatal(err)
	}
	h.assertIdenticalOrders(t, rest)
	for _, p := range rest.Sorted() {
		got := h.orders[p]
		if want := 5*3 + 2; len(got) != want {
			t.Fatalf("%s delivered %d messages, want %d", p, len(got), want)
		}
		if tail := fmt.Sprint(got[len(got)-2:]); !strings.Contains(tail, "p01:after") || !strings.Contains(tail, "p02:after") {
			t.Errorf("%s: the new view's messages were not released last: %v", p, got)
		}
	}
	if err := h.suite.Err(); err != nil {
		t.Error(err)
	}
}

// TestTotalOrderBothSenderKinds covers the two ways a message gets its slot.
// One from the sequencer is a single multicast and is released where it is
// delivered; one from any other member costs a second multicast, the
// sequencer's assignment. Whoever sends, every member releases the same order.
func TestTotalOrderBothSenderKinds(t *testing.T) {
	h := newHarness(t, 3, 31)
	procs := h.c.Procs()
	all := types.NewProcSet(procs...)
	if _, _, err := h.c.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	sendAll := func(p types.ProcID, n int) int64 {
		t.Helper()
		before := h.c.Metrics().Sent
		for i := 0; i < n; i++ {
			if err := h.sessions[p].Send([]byte(fmt.Sprintf("%s-%d", p, i))); err != nil {
				t.Fatal(err)
			}
			if err := h.c.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return h.c.Metrics().Sent - before
	}
	if got := sendAll(procs[0], 10); got != 10 {
		t.Errorf("10 messages from the sequencer took %d multicasts, want 10", got)
	}
	if got := sendAll(procs[2], 10); got != 20 {
		t.Errorf("10 messages from another member took %d multicasts, want 20 (data and assignment)", got)
	}
	// Now racing: everyone at once, nothing run to quiescence in between.
	for i := 0; i < 10; i++ {
		for _, p := range procs {
			if err := h.sessions[p].Send([]byte(fmt.Sprintf("race-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.c.Run(); err != nil {
		t.Fatal(err)
	}
	h.assertIdenticalOrders(t, all)
	for _, p := range procs {
		if got, want := len(h.orders[p]), 10+10+30; got != want {
			t.Errorf("%s released %d messages, want %d", p, got, want)
		}
	}
	if err := h.suite.Err(); err != nil {
		t.Error(err)
	}
}

// TestTotalOrderSeedSweep runs the view-change scenario over 300 seeds: the
// group is loaded from every member, one member is removed while the load is
// in flight, and every survivor then sends once in the new view. Two defects
// needed many seeds to show: an assignment computed from an old-view delivery
// but multicast in the next view (it named nothing there, and the total order
// wedged behind it), and the sequencer handling the self-delivery of such a
// send before the view event that precedes it in its end-point's order (the
// survivors' boundary flushes then disagreed).
func TestTotalOrderSeedSweep(t *testing.T) {
	var diverged, wedged int
	for seed := int64(1); seed <= 300; seed++ {
		h := newHarness(t, 4, seed)
		procs := h.c.Procs()
		if _, _, err := h.c.ReconfigureTo(types.NewProcSet(procs...)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			for _, p := range procs {
				if err := h.sessions[p].Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		survivors := procs[:3]
		if _, _, err := h.c.ReconfigureTo(types.NewProcSet(survivors...)); err != nil {
			t.Fatal(err)
		}
		for _, p := range survivors {
			if err := h.sessions[p].Send([]byte("after")); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.c.Run(); err != nil {
			t.Fatal(err)
		}
		if err := h.suite.Err(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		ref := h.orders[survivors[0]]
		var bad, stuck bool
		for _, p := range survivors {
			got := h.orders[p]
			// Everything the end-point delivered must have been released: the
			// old view's messages by its boundary flush at the latest, the
			// three sent after the change by the new view's sequencer.
			if len(got) != h.data[p] {
				stuck = true
				t.Errorf("seed %d: %s released %d of the %d data messages delivered to it", seed, p, len(got), h.data[p])
			}
			if after := strings.Count(fmt.Sprint(got), ":after"); after != 3 {
				stuck = true
				t.Errorf("seed %d: %s released %d of the 3 messages sent after the view change", seed, p, after)
			}
			n := len(got)
			if len(ref) < n {
				n = len(ref)
			}
			if fmt.Sprint(got[:n]) != fmt.Sprint(ref[:n]) {
				bad = true
				t.Errorf("seed %d: %s and %s disagree on the order:\n%v\n%v", seed, p, survivors[0], got, ref)
			}
		}
		if bad {
			diverged++
		}
		if stuck {
			wedged++
		}
	}
	if t.Failed() {
		t.Logf("of 300 seeds, the survivors' orders diverged on %d and the total order wedged on %d", diverged, wedged)
	}
}

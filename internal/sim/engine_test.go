package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"vsgm/internal/types"
)

func TestEngineEventOrdering(t *testing.T) {
	e := newEngine(ProcIDs(1), FixedLatency(0), 1)
	var order []int
	e.At(20*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(10*time.Millisecond, func() { order = append(order, 2) }) // same time: FIFO
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestEngineRunForAdvancesClockExactly(t *testing.T) {
	e := newEngine(ProcIDs(1), FixedLatency(0), 1)
	fired := false
	e.At(50*time.Millisecond, func() { fired = true })
	if err := e.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("future event fired early")
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want 20ms", e.Now())
	}
	if err := e.RunFor(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event did not fire within its window")
	}
	if e.Now() != 60*time.Millisecond {
		t.Fatalf("clock = %v, want 60ms", e.Now())
	}
}

func TestEngineFIFOTimingUnderJitter(t *testing.T) {
	// Even with wild jitter, per-link deliveries must happen in send order:
	// the arrival floor ensures message i+1 never arrives before message i.
	procs := ProcIDs(2)
	e := newEngine(procs, UniformLatency{Base: 10 * time.Millisecond, Jitter: 9 * time.Millisecond}, 42)
	var got []int64
	e.net.Register(procs[1], handlerFunc(func(_ types.ProcID, m types.WireMsg) {
		got = append(got, m.App.ID)
	}))
	for i := int64(1); i <= 20; i++ {
		e.net.Send(procs[0], []types.ProcID{procs[1]}, types.WireMsg{
			Kind: types.KindApp, App: types.AppMsg{ID: i},
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range got {
		if id != int64(i+1) {
			t.Fatalf("delivery %d has id %d: reordered", i, id)
		}
	}
}

// handlerFunc mirrors corfifo.HandlerFunc for engine tests.
type handlerFunc func(from types.ProcID, m types.WireMsg)

func (f handlerFunc) HandleMessage(from types.ProcID, m types.WireMsg) { f(from, m) }

func TestEngineBlockedLinkQueuesAndFlushes(t *testing.T) {
	procs := ProcIDs(2)
	e := newEngine(procs, FixedLatency(time.Millisecond), 1)
	var got int
	e.net.Register(procs[1], handlerFunc(func(types.ProcID, types.WireMsg) { got++ }))

	e.BlockLink(procs[0], procs[1])
	e.net.Send(procs[0], []types.ProcID{procs[1]}, types.WireMsg{Kind: types.KindApp})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("message crossed a blocked link")
	}

	e.UnblockLink(procs[0], procs[1])
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("flushed deliveries = %d, want 1", got)
	}
}

func TestEngineConnectivityComponents(t *testing.T) {
	procs := ProcIDs(4)
	e := newEngine(procs, FixedLatency(time.Millisecond), 1)
	e.SetConnectivity(
		types.NewProcSet(procs[0], procs[1]),
		types.NewProcSet(procs[2]),
	)
	// procs[3] was not mentioned: it becomes a singleton.
	if e.connected(procs[0], procs[1]) != true {
		t.Error("same group disconnected")
	}
	if e.connected(procs[0], procs[2]) || e.connected(procs[2], procs[3]) || e.connected(procs[0], procs[3]) {
		t.Error("cross-group links connected")
	}
	e.HealConnectivity()
	if !e.connected(procs[0], procs[3]) {
		t.Error("heal did not reconnect")
	}
}

func TestUniformLatencyBounds(t *testing.T) {
	e := newEngine(ProcIDs(1), FixedLatency(0), 7)
	model := UniformLatency{Base: 10 * time.Millisecond, Jitter: 4 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := model.Sample("a", "b", e.rng)
		if d < 6*time.Millisecond || d > 14*time.Millisecond {
			t.Fatalf("sample %v outside [6ms, 14ms]", d)
		}
	}
	if got := (UniformLatency{Base: time.Millisecond}).Sample("a", "b", e.rng); got != time.Millisecond {
		t.Errorf("jitterless sample = %v", got)
	}
	if got := FixedLatency(5).Sample("a", "b", e.rng); got != 5 {
		t.Errorf("fixed sample = %v", got)
	}
}

func TestClusterRequiresProcs(t *testing.T) {
	if _, err := NewCluster(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestProcIDsAreSortedAndUnique(t *testing.T) {
	ids := ProcIDs(12)
	seen := make(map[types.ProcID]bool)
	for i, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
		if i > 0 && !(ids[i-1] < id) {
			t.Fatalf("ids not sorted: %s before %s", ids[i-1], id)
		}
	}
}

// TestEventQueueOrder checks the event heap against a reference sort by
// (time, sequence): seeded pushes with many equal times, interleaved with
// pops, and then RunFor's peek and pop at window deadlines, with steps that
// schedule further steps as they fire.
func TestEventQueueOrder(t *testing.T) {
	type key struct {
		at  time.Duration
		seq int64
	}
	byKey := func(a, b key) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) }
	rng := rand.New(rand.NewSource(7))

	var q eventQueue
	var want []key // what the queue holds, sorted
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) > 0 {
			at := time.Duration(rng.Intn(8)) * time.Millisecond
			q.push(at, func() {}, nil)
			k := key{at, q.seq}
			j, _ := slices.BinarySearchFunc(want, k, byKey)
			want = slices.Insert(want, j, k)
			continue
		}
		ev, ok := q.pop()
		if ok != (len(want) > 0) {
			t.Fatalf("step %d: pop ok=%v with %d queued", i, ok, len(want))
		}
		if !ok {
			continue
		}
		if got := (key{ev.at, ev.seq}); got != want[0] {
			t.Fatalf("step %d: popped %v, want %v", i, got, want[0])
		}
		want = want[1:]
	}
	for len(want) > 0 {
		ev, _ := q.pop()
		if got := (key{ev.at, ev.seq}); got != want[0] {
			t.Fatalf("drain: popped %v, want %v", got, want[0])
		}
		want = want[1:]
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from an empty queue")
	}

	// RunFor: every step scheduled, including those scheduled by firing
	// steps, must fire in (time, sequence) order, each inside the window
	// whose deadline it does not pass.
	e := newEngine(ProcIDs(1), FixedLatency(0), 1)
	var scheduled, fired []key
	var seq int64
	var at func(d time.Duration, children int)
	at = func(d time.Duration, children int) {
		seq++
		k := key{e.Now() + d, seq}
		scheduled = append(scheduled, k)
		e.At(d, func() {
			if e.Now() != k.at {
				t.Errorf("step %v fired at %v", k, e.Now())
			}
			fired = append(fired, k)
			for c := 0; c < children; c++ {
				at(time.Duration(rng.Intn(4))*time.Millisecond, 0)
			}
		})
	}
	for i := 0; i < 2000; i++ {
		at(time.Duration(rng.Intn(40))*time.Millisecond, rng.Intn(3))
	}
	for window := 0; len(fired) < len(scheduled); window++ {
		if window > 100 {
			t.Fatalf("%d of %d steps fired after 100 windows", len(fired), len(scheduled))
		}
		deadline := e.Now() + 3*time.Millisecond
		if err := e.RunFor(3 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if e.Now() != deadline {
			t.Fatalf("clock %v after RunFor, want %v", e.Now(), deadline)
		}
		if n := len(fired); n > 0 && fired[n-1].at > deadline {
			t.Fatalf("step %v fired in the window ending %v", fired[n-1], deadline)
		}
		if ev, ok := e.queue.peek(); ok && ev.at <= deadline {
			t.Fatalf("step at %v left queued past the deadline %v", ev.at, deadline)
		}
	}
	slices.SortFunc(scheduled, byKey)
	if !slices.Equal(fired, scheduled) {
		t.Fatal("RunFor fired the steps out of (time, sequence) order")
	}
}

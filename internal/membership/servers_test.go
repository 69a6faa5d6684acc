package membership

import (
	"testing"
	"time"

	"vsgm/internal/corfifo"
	"vsgm/internal/types"
)

// serverRig wires a set of servers over an in-memory substrate with a
// synchronous pump (no virtual clock; messages deliver in send order).
type serverRig struct {
	net     *corfifo.Network
	servers map[types.ProcID]*Server
	ids     []types.ProcID
	out     *collectingOutput
}

func newServerRig(t *testing.T, n int) *serverRig {
	t.Helper()
	rig := &serverRig{
		net:     corfifo.NewNetwork(),
		servers: make(map[types.ProcID]*Server),
		out:     newCollectingOutput(),
	}
	for i := 0; i < n; i++ {
		rig.ids = append(rig.ids, types.ProcID(string(rune('A'+i))))
	}
	all := types.NewProcSet(rig.ids...)
	for _, id := range rig.ids {
		srv, err := NewServer(id, all, rig.net.Handle(id), rig.out.out)
		if err != nil {
			t.Fatal(err)
		}
		rig.servers[id] = srv
		s := srv
		rig.net.Register(id, corfifo.HandlerFunc(func(from types.ProcID, m types.WireMsg) {
			s.HandleMessage(from, m, time.Time{})
		}))
	}
	return rig
}

// pump delivers queued server-to-server traffic until quiescence.
func (rig *serverRig) pump(t *testing.T) {
	t.Helper()
	for rounds := 0; rounds < 10_000; rounds++ {
		progressed := false
		for _, from := range rig.ids {
			for _, to := range rig.ids {
				if from == to {
					continue
				}
				if _, ok := rig.net.DeliverNext(from, to); ok {
					progressed = true
				}
			}
		}
		if !progressed {
			return
		}
	}
	t.Fatal("server traffic did not quiesce")
}

func (rig *serverRig) boot(t *testing.T) {
	t.Helper()
	all := types.NewProcSet(rig.ids...)
	for _, id := range rig.ids {
		rig.servers[id].SetReachable(all)
	}
	rig.pump(t)
}

func lastView(t *testing.T, out *collectingOutput, p types.ProcID) types.View {
	t.Helper()
	for i := len(out.byProc[p]) - 1; i >= 0; i-- {
		if out.byProc[p][i].Kind == NotifyView {
			return out.byProc[p][i].View
		}
	}
	t.Fatalf("no view delivered to %s", p)
	return types.View{}
}

func TestServerGroupFormsAgreedView(t *testing.T) {
	rig := newServerRig(t, 3)
	clients := []types.ProcID{"c0", "c1", "c2", "c3", "c4", "c5"}
	for i, c := range clients {
		rig.servers[rig.ids[i%3]].AddClient(c)
	}
	rig.boot(t)

	want := types.NewProcSet(clients...)
	ref := lastView(t, rig.out, clients[0])
	if !ref.Members.Equal(want) {
		t.Fatalf("view members = %s, want %s", ref.Members, want)
	}
	for _, c := range clients[1:] {
		if v := lastView(t, rig.out, c); !v.Equal(ref) {
			t.Fatalf("client %s got %s, client %s got %s: views differ", c, v, clients[0], ref)
		}
	}
	rig.out.assertSpec(t)
}

func TestServerGroupSteadyStateIsOneAttempt(t *testing.T) {
	rig := newServerRig(t, 3)
	for i, c := range []types.ProcID{"c0", "c1", "c2"} {
		rig.servers[rig.ids[i]].AddClient(c)
	}
	rig.boot(t)

	before := make(map[types.ProcID]int64)
	for _, id := range rig.ids {
		before[id] = rig.servers[id].AttemptsRun()
	}
	rig.servers[rig.ids[0]].Reconfigure()
	rig.pump(t)
	for _, id := range rig.ids {
		if got := rig.servers[id].AttemptsRun() - before[id]; got != 1 {
			t.Errorf("server %s ran %d attempts in steady state, want 1", id, got)
		}
	}
	rig.out.assertSpec(t)
}

func TestServerGroupClientJoinAndLeave(t *testing.T) {
	rig := newServerRig(t, 2)
	rig.servers["A"].AddClient("c0")
	rig.servers["B"].AddClient("c1")
	rig.boot(t)

	rig.servers["A"].AddClient("c2")
	rig.servers["A"].Reconfigure()
	rig.pump(t)
	want := types.NewProcSet("c0", "c1", "c2")
	if v := lastView(t, rig.out, "c2"); !v.Members.Equal(want) {
		t.Fatalf("after join, view = %s, want members %s", v, want)
	}

	rig.servers["B"].RemoveClient("c1")
	rig.servers["B"].Reconfigure()
	rig.pump(t)
	want = types.NewProcSet("c0", "c2")
	if v := lastView(t, rig.out, "c0"); !v.Members.Equal(want) {
		t.Fatalf("after leave, view = %s, want members %s", v, want)
	}
	rig.out.assertSpec(t)
}

func TestServerGroupClientCrashKeepsIdentifierState(t *testing.T) {
	rig := newServerRig(t, 2)
	rig.servers["A"].AddClient("c0")
	rig.servers["B"].AddClient("c1")
	rig.boot(t)
	preCrash := lastView(t, rig.out, "c1")

	rig.servers["B"].CrashClient("c1")
	notifs := len(rig.out.byProc["c1"])
	rig.servers["B"].Reconfigure()
	rig.pump(t)
	if len(rig.out.byProc["c1"]) != notifs {
		t.Fatal("crashed client received notifications")
	}

	// Recovery: the next view's identifier exceeds the pre-crash one even
	// though the client itself kept no state (Section 8).
	rig.servers["B"].RecoverClient("c1")
	rig.servers["B"].Reconfigure()
	rig.pump(t)
	post := lastView(t, rig.out, "c1")
	if post.ID <= preCrash.ID {
		t.Fatalf("post-recovery view id %d not above pre-crash id %d", post.ID, preCrash.ID)
	}
	rig.out.assertSpec(t)
}

func TestNewServerRejectsForeignID(t *testing.T) {
	if _, err := NewServer("X", types.NewProcSet("A", "B"), nil, nil); err == nil {
		t.Fatal("server outside its own server set accepted")
	}
}

func TestServerGroupPartitionsAndMerges(t *testing.T) {
	rig := newServerRig(t, 2)
	rig.servers["A"].AddClient("c0")
	rig.servers["A"].AddClient("c1")
	rig.servers["B"].AddClient("c2")
	rig.boot(t)

	// The failure detectors split: each server only sees itself, so each
	// side forms its own disjoint view — the membership service is
	// partitionable (Section 3.1).
	rig.servers["A"].SetReachable(types.NewProcSet("A"))
	rig.servers["B"].SetReachable(types.NewProcSet("B"))
	rig.pump(t)

	sideA := lastView(t, rig.out, "c0")
	sideB := lastView(t, rig.out, "c2")
	if !sideA.Members.Equal(types.NewProcSet("c0", "c1")) {
		t.Fatalf("A-side view members = %s", sideA.Members)
	}
	if !sideB.Members.Equal(types.NewProcSet("c2")) {
		t.Fatalf("B-side view members = %s", sideB.Members)
	}
	if sideA.Key() == sideB.Key() {
		t.Fatal("disjoint concurrent views must be distinct")
	}

	// The detectors converge again: one merged view with all clients.
	all := types.NewProcSet("A", "B")
	rig.servers["A"].SetReachable(all)
	rig.servers["B"].SetReachable(all)
	rig.pump(t)

	merged := lastView(t, rig.out, "c0")
	if !merged.Members.Equal(types.NewProcSet("c0", "c1", "c2")) {
		t.Fatalf("merged view members = %s", merged.Members)
	}
	for _, c := range []types.ProcID{"c1", "c2"} {
		if v := lastView(t, rig.out, c); !v.Equal(merged) {
			t.Fatalf("%s got %s, want %s", c, v, merged)
		}
	}
	rig.out.assertSpec(t)
}

func TestServerGroupDisagreeingDetectorsStall(t *testing.T) {
	// When the failure detectors disagree (A sees both, B sees only
	// itself), A must not complete an attempt on B's behalf; it waits for
	// convergence rather than delivering an inconsistent view.
	rig := newServerRig(t, 2)
	rig.servers["A"].AddClient("c0")
	rig.servers["B"].AddClient("c1")
	rig.boot(t)
	before := lastView(t, rig.out, "c0")

	rig.servers["B"].SetReachable(types.NewProcSet("B")) // B splits away
	rig.servers["A"].Reconfigure()                       // A still sees both
	rig.pump(t)

	// A's clients received a start_change for the doomed attempt but no
	// view; B's side moved on alone.
	if v := lastView(t, rig.out, "c0"); !v.Equal(before) {
		t.Fatalf("A delivered %s although the detectors disagree", v)
	}

	// Once A's detector catches up, its side completes too.
	rig.servers["A"].SetReachable(types.NewProcSet("A"))
	rig.pump(t)
	if v := lastView(t, rig.out, "c0"); !v.Members.Equal(types.NewProcSet("c0")) {
		t.Fatalf("A-side view = %s after convergence", v)
	}
	rig.out.assertSpec(t)
}

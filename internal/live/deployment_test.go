package live

import (
	"strings"
	"testing"
	"time"

	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// testWait bounds every wait of a test deployment.
const testWait = 10 * time.Second

// testDeployment fails its test on any error of the Deployment it wraps.
type testDeployment struct {
	*Deployment
	t *testing.T
}

func deploy(t *testing.T, cfg DeploymentConfig) *testDeployment {
	t.Helper()
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testDeployment{d, t}
}

func (w *testDeployment) must(err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
}

func (w *testDeployment) waitFor(what string, cond func() bool) {
	w.t.Helper()
	w.must(w.WaitFor(what, testWait, cond))
}

func (w *testDeployment) waitFullView(what string, floor types.ViewID) {
	w.t.Helper()
	w.must(w.WaitFullView(what, floor, testWait))
}

func (w *testDeployment) roundOfTraffic(tag string) {
	w.t.Helper()
	w.must(w.TrafficRound(tag, testWait))
}

func (w *testDeployment) sendRetry(cid types.ProcID, payload string) {
	w.t.Helper()
	w.must(w.SendRetry(cid, payload, testWait))
}

// waitGroupFormed blocks until every client has installed the view of all
// clients, and returns that view's identifier.
func (w *testDeployment) waitGroupFormed() types.ViewID {
	w.t.Helper()
	all := w.ClientSet()
	w.waitFor("all clients to install the full view", func() bool {
		for _, node := range w.Clients() {
			if !node.CurrentView().Members.Equal(all) {
				return false
			}
		}
		return true
	})
	return w.Client("cli0").CurrentView().ID
}

// sideClients returns the clients homed at server sid.
func (w *testDeployment) sideClients(sid types.ProcID) types.ProcSet {
	s := types.NewProcSet()
	for cid := range w.Clients() {
		if w.HomeOf(cid) == sid {
			s.Add(cid)
		}
	}
	return s
}

// close fails the test unless the deployment closes clean: a green spec
// verdict and every pooled buffer returned.
func (w *testDeployment) close() {
	w.t.Helper()
	if err := w.Close(); err != nil {
		w.t.Error(err)
	}
}

// TestDeploymentPartitionFollowsCurrentHome: in attach mode a client that
// failed over is partitioned with the server it is homed at now, not with
// the one it prefers.
func TestDeploymentPartitionFollowsCurrentHome(t *testing.T) {
	w := deploy(t, DeploymentConfig{Servers: 3, Clients: 3, Attach: true})
	defer w.close()
	w.SetReachable()
	w.StartHeartbeats(20*time.Millisecond, 150*time.Millisecond)
	w.waitFullView("all clients attached and in the full view", 0)

	// cli0's home list runs srv0, srv1, srv2: killing srv0 fails it over to
	// srv1.
	floor := w.MaxViewID()
	w.Server("srv0").Close()
	w.waitFor("cli0 to fail over to srv1", func() bool { return w.Client("cli0").Home() == "srv1" })
	w.waitFullView("the survivors reinstall the full view", floor)

	// srv1's group goes second: placed by its preferred home, which is in
	// neither group, cli0 would ride with the first.
	comps := w.Partition(types.NewProcSet("srv2"), types.NewProcSet("srv1"))
	if comps[0].Contains("cli0") || !comps[1].Contains("cli0") {
		t.Fatalf("cli0, homed at srv1, partitioned as %v", comps)
	}
	side := comps[1].Minus(types.NewProcSet("srv1"))
	w.waitFor("srv1's side to install a view of its own clients", func() bool {
		for cid := range side {
			if !w.Client(cid).CurrentView().Members.Equal(side) {
				return false
			}
		}
		return true
	})
	w.Heal()
	w.waitFullView("the merged view after the heal", 0)
}

// TestDeploymentCloseReturnsVerdict: a violation in the deployment's spec
// suite is Close's error, so no user of the harness can skip the verdict.
func TestDeploymentCloseReturnsVerdict(t *testing.T) {
	w := deploy(t, DeploymentConfig{Servers: 1, Clients: 2})
	w.SetReachable()
	w.waitGroupFormed()
	// A membership view that regresses below everything cli0 has seen.
	w.Record(spec.EMView{P: "cli0", View: types.NewView(
		0, types.NewProcSet("cli0"), map[types.ProcID]types.StartChangeID{"cli0": 1})})
	verdict := w.SpecErr()
	if verdict == nil {
		t.Fatal("the planted view is no violation")
	}
	err := w.Close()
	if err == nil || !strings.Contains(err.Error(), verdict.Error()) {
		t.Fatalf("Close = %v, want the planted violation %v", err, verdict)
	}
}

package live

// Regime 7 satellites: adversarial scenarios first surfaced by the soak
// harness (internal/soak), promoted into deterministic unit tests. A flash
// crowd attaches in one burst and departs as abruptly; a server is
// resurrected from a stale WAL clone and must not regress any identifier it
// ever issued; and the node-side notification filter is exercised directly
// against out-of-order, replayed, and wrong-home notifications.

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"vsgm/internal/membership"
	"vsgm/internal/types"
	"vsgm/internal/wal"
)

// TestLiveFlashCrowdAttachBurst admits a burst of new clients — constructed
// and courting their homes in the same instant — into a running deployment,
// runs traffic through the enlarged view, then closes the whole crowd at
// once. The servers must absorb both edges (including attach requests that
// time out during the burst and land late) without a spec violation.
func TestLiveFlashCrowdAttachBurst(t *testing.T) {
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: 3, Attach: true})
	defer w.close()
	w.SetReachable()

	w.waitFullView("core clients attached and in the full view", 0)
	w.roundOfTraffic("pre-crowd")

	const crowdSize = 6
	floor := w.MaxViewID()
	crowd := make([]types.ProcID, crowdSize)
	for i := range crowd {
		crowd[i] = types.ProcID(fmt.Sprintf("crowd%d", i))
	}
	w.must(w.AddClients(crowd...))

	w.waitFullView("crowd admitted into the full view", floor)
	w.roundOfTraffic("with-crowd")

	// Departure is as abrupt as the arrival: every crowd node closes without
	// ceremony. Deregistration must be a retried scrub, not a one-shot scan —
	// an attach request that timed out during the burst can land at a server
	// after the scan and resurrect a closed client's registration.
	floor = w.MaxViewID()
	for _, cid := range crowd {
		w.CloseClient(cid)
	}
	core := w.ClientSet()
	w.waitFor("view shrinks back to the core clients", func() bool {
		clean := true
		for _, sn := range w.Servers() {
			for _, cid := range crowd {
				if sn.Clients().Contains(cid) {
					sn.RemoveClient(cid)
					clean = false
				}
			}
		}
		if !clean {
			w.Servers()[0].Reconfigure()
			return false
		}
		for _, node := range w.Clients() {
			v := node.CurrentView()
			if v.ID <= floor || !v.Members.Equal(core) {
				return false
			}
		}
		return true
	})
	w.roundOfTraffic("post-crowd")

	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violation across the flash crowd: %v", err)
	}
}

// TestLiveStaleWALResurrection clones a server's durable state, lets the
// deployment advance several reconfigurations past the clone, then crashes
// the server and resurrects it FROM THE STALE CLONE — the disaster-recovery
// mistake of restoring an old backup. The resurrected server's retained
// records are genuinely behind what its clients have seen; the only defense
// is the attach claim (each re-attach carries the client's identifier
// high-water mark), which must floor every identifier the server mints next.
// Without it the clients would reject the regressing notifications and the
// attachment would wedge; with it the deployment converges and Local
// Monotonicity holds (the spec suite flags any regression).
func TestLiveStaleWALResurrection(t *testing.T) {
	liveDir := t.TempDir()
	store, err := NewFileStore(liveDir)
	if err != nil {
		t.Fatal(err)
	}
	w := deploy(t, DeploymentConfig{Servers: 1, Clients: 2, Attach: true,
		Server: func(_ types.ProcID, cfg *ServerConfig) error { cfg.Store = store; return nil }})
	defer w.close()
	w.SetReachable()

	w.waitFullView("clients attached and in the full view", 0)
	w.roundOfTraffic("pre-snapshot")

	// Freeze the backup while the deployment keeps moving.
	staleDir := filepath.Join(t.TempDir(), "stale")
	if err := wal.CloneDir(liveDir, staleDir); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		f := w.MaxViewID()
		w.Servers()[0].Reconfigure()
		w.waitFullView(fmt.Sprintf("advance round %d past the backup", round), f)
	}
	w.roundOfTraffic("post-snapshot")
	advanced := w.Servers()[0].Records()

	floor := w.MaxViewID()
	w.Servers()[0].Close()

	// The clone must be genuinely stale — otherwise the resurrection below
	// proves nothing. Inspect it before the restarted server touches it.
	staleStore, err := NewFileStore(staleDir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := staleStore.Load()
	if err != nil {
		t.Fatal(err)
	}
	for p, adv := range advanced {
		st, ok := loaded[p]
		if !ok || st.CID == 0 {
			t.Fatalf("clone has no populated record for %s: %+v (ok=%v)", p, st, ok)
		}
		if st.CID >= adv.CID || st.Vid >= adv.Vid {
			t.Fatalf("clone is not stale for %s: clone %+v, live %+v", p, st, adv)
		}
	}

	store = staleStore // what the restart opens
	w.must(w.RestartServer("srv0"))
	sn := w.Server("srv0")

	w.waitFullView("clients re-attached to the resurrected server", floor)
	w.roundOfTraffic("post-resurrection")

	// Every identifier minted after the resurrection dominates everything
	// the clients saw before the crash, despite the stale store.
	got := sn.Records()
	for p, adv := range advanced {
		g, ok := got[p]
		if !ok || g.CID <= adv.CID || g.Vid <= adv.Vid {
			t.Fatalf("resurrected server regressed %s: pre-crash %+v, post %+v (ok=%v)", p, adv, g, ok)
		}
	}
	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violation across the stale-WAL resurrection: %v", err)
	}
}

// TestLiveAttachLeaseEvictsSilentClient kills a client the instant after its
// registration lands — the flash-crowd straggler the soak harness first
// caught. No peer ever claims a dead client under a higher epoch and no
// detach is sent, so only the attach lease (the server-side failure detector
// for clients) can remove it; without the sweep every later view would carry
// the corpse and its sync rounds would never complete.
func TestLiveAttachLeaseEvictsSilentClient(t *testing.T) {
	const lease = 300 * time.Millisecond
	w := deploy(t, DeploymentConfig{Servers: 1, Clients: 2, Attach: true,
		Server: func(_ types.ProcID, cfg *ServerConfig) error { cfg.AttachLease = lease; return nil }})
	defer w.close()
	w.SetReachable()

	w.waitFullView("core clients attached and in the full view", 0)
	w.roundOfTraffic("pre-ghost")

	// A third client attaches, enters one view, and dies without ceremony.
	floor := w.MaxViewID()
	ghost := types.ProcID("ghost")
	w.must(w.AddClients(ghost))
	w.waitFullView("ghost admitted into the full view", floor)

	floor = w.MaxViewID()
	w.CloseClient(ghost) // no detach: the process is simply gone

	// The lease sweep alone must deregister the ghost and shrink the view.
	core := w.ClientSet()
	w.waitFor("lease eviction shrinks the view back to the core", func() bool {
		if w.Servers()[0].Clients().Contains(ghost) {
			return false
		}
		for _, n := range w.Clients() {
			v := n.CurrentView()
			if v.ID <= floor || !v.Members.Equal(core) {
				return false
			}
		}
		return true
	})
	if got := w.Servers()[0].leaseEvictions.Value(); got < 1 {
		t.Fatalf("lease evictions = %d, want at least 1", got)
	}
	w.roundOfTraffic("post-ghost")

	if err := w.SpecErr(); err != nil {
		t.Fatalf("spec violation across the lease eviction: %v", err)
	}
}

// TestNodeOutOfBandAcceptsAnyNotification: a node without HomeServers has
// no attach automaton and no filter — the out-of-band registrar feeds a
// single trusted stream, so a notification from anyone is accepted. The
// attach-mode filter is membership.Client's, tested without sockets in
// TestClientNotifyFilter.
func TestNodeOutOfBandAcceptsAnyNotification(t *testing.T) {
	legacy, err := NewNode(NodeConfig{ID: "x", Addr: "127.0.0.1:0", AutoBlock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	ntf := &membership.Notification{
		Kind:        membership.NotifyStartChange,
		StartChange: types.StartChange{ID: 1, Set: types.NewProcSet("x")},
	}
	if !legacy.acceptNotify("anyone", ntf) {
		t.Fatal("out-of-band node filtered a notification")
	}
}

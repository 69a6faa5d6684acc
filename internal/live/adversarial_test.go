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
	"vsgm/internal/wire"
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

// TestNodeNotifyFilterDropsRegressions drives the node-side notification
// filter directly: after an attach ack establishes the identifier
// high-water mark, notifications from the wrong server, start changes at or
// below the mark, views at or below the last view, views built on a start
// change the node never accepted, and straight replays must all be dropped
// (and counted), while the in-order stream passes.
func TestNodeNotifyFilterDropsRegressions(t *testing.T) {
	node, err := NewNode(NodeConfig{
		ID:             "c",
		Addr:           "127.0.0.1:0",
		AutoBlock:      true,
		HomeServers:    []types.ProcID{"srv0", "srv1"},
		AttachInterval: time.Hour, // driven by hand below
		AttachTimeout:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// The ack from the courted home seeds the watermarks (a previous
	// incarnation's identifiers, relayed by the server's retained record).
	base := types.StartChangeID(2)<<32 + 5
	node.handleAttach("srv0", wire.Attach{Kind: wire.AttachAck, Client: "c", Epoch: 2, CID: base, Vid: 9})
	if got := node.Home(); got != "srv0" {
		t.Fatalf("home after ack = %q, want srv0", got)
	}

	sc := func(id types.StartChangeID) *membership.Notification {
		return &membership.Notification{
			Kind:        membership.NotifyStartChange,
			StartChange: types.StartChange{ID: id, Set: types.NewProcSet("c")},
		}
	}
	view := func(id types.ViewID, scid types.StartChangeID) *membership.Notification {
		return &membership.Notification{
			Kind: membership.NotifyView,
			View: types.NewView(id, types.NewProcSet("c"),
				map[types.ProcID]types.StartChangeID{"c": scid}),
		}
	}

	cases := []struct {
		name string
		from types.ProcID
		ntf  *membership.Notification
		want bool
	}{
		{"start change from a non-home server", "srv1", sc(base + 1), false},
		{"start change at the watermark", "srv0", sc(base), false},
		{"fresh start change", "srv0", sc(base + 1), true},
		{"view at the last view id", "srv0", view(9, base+1), false},
		{"view built on an unaccepted start change", "srv0", view(10, base), false},
		{"fresh view", "srv0", view(10, base+1), true},
		{"replay of the fresh view", "srv0", view(10, base+1), false},
	}
	for _, tc := range cases {
		if got := node.acceptNotify(tc.from, tc.ntf); got != tc.want {
			t.Fatalf("%s: acceptNotify = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := node.staleNotifies.Value(); got != 5 {
		t.Fatalf("stale-notification counter = %d, want 5", got)
	}

	// Legacy mode (no HomeServers) has no attach protocol and no filter:
	// the oracle feeds a single trusted stream.
	legacy, err := NewNode(NodeConfig{ID: "x", Addr: "127.0.0.1:0", AutoBlock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if !legacy.acceptNotify("anyone", sc(1)) {
		t.Fatal("legacy node filtered a notification")
	}
}

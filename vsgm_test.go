package vsgm_test

// Facade tests: the public API, exercised the way a downstream user would.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vsgm"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	suite := vsgm.FullSuite()
	cluster, err := vsgm.NewCluster(vsgm.ClusterConfig{
		Procs: vsgm.ProcIDs(3),
		Seed:  5,
		Suite: suite,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := vsgm.NewProcSet(cluster.Procs()...)

	view, took, err := cluster.ReconfigureTo(all)
	if err != nil {
		t.Fatal(err)
	}
	if took <= 0 {
		t.Error("reconfiguration took no time")
	}
	for _, p := range cluster.Procs() {
		if _, err := cluster.Send(p, []byte("hi")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := cluster.Metrics().Delivered, int64(9); got != want {
		t.Errorf("delivered = %d, want %d", got, want)
	}
	if err := suite.Err(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
	if err := vsgm.CheckLiveness(suite.Trace(), view); err != nil {
		t.Errorf("liveness: %v", err)
	}
}

func TestPublicAPIStandaloneEndpoint(t *testing.T) {
	// An end-point wired by hand over a raw substrate: the integration a
	// user doing their own transport scheduling would write.
	net := vsgm.NewNetwork()
	ep, err := vsgm.NewEndpoint(vsgm.EndpointConfig{
		ID:        "solo",
		Transport: net.Handle("solo"),
		AutoBlock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Send([]byte("note to self")); err != nil {
		t.Fatal(err)
	}
	evs := ep.TakeEvents()
	if len(evs) != 1 {
		t.Fatalf("events = %v", evs)
	}
	if _, ok := evs[0].(vsgm.DeliverEvent); !ok {
		t.Fatalf("event = %v, want delivery", evs[0])
	}
}

func TestPublicAPIBaselineNode(t *testing.T) {
	cluster, err := vsgm.NewCluster(vsgm.ClusterConfig{
		Procs:   vsgm.ProcIDs(3),
		Latency: vsgm.FixedLatency(5 * time.Millisecond),
		Seed:    9,
		NewNode: func(p vsgm.ProcID, idx int, tr vsgm.TransportHandle) (vsgm.Node, error) {
			return vsgm.NewTwoRoundNode(p, tr, int64(idx+1)*1_000_000)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := vsgm.NewProcSet(cluster.Procs()...)
	if _, _, err := cluster.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	for _, p := range cluster.Procs() {
		if got := cluster.Endpoint(p).CurrentView(); !got.Members.Equal(all) {
			t.Errorf("%s view = %s", p, got)
		}
	}
}

func TestPublicAPIBlockedError(t *testing.T) {
	cluster, err := vsgm.NewCluster(vsgm.ClusterConfig{
		Procs:       vsgm.ProcIDs(2),
		ManualBlock: true,
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := vsgm.NewProcSet(cluster.Procs()...)
	if err := cluster.StartChange(all); err != nil {
		t.Fatal(err)
	}
	if err := cluster.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Manual blocking: acknowledge, then sends are rejected until the view.
	for _, p := range cluster.Procs() {
		if err := cluster.BlockOK(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cluster.Send("p00", []byte("x")); !errors.Is(err, vsgm.ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
	if _, err := cluster.DeliverView(all); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Send("p00", []byte("x")); err != nil {
		t.Fatalf("send after view: %v", err)
	}
}

func TestPublicAPIReplicatedCounter(t *testing.T) {
	// A custom StateMachine through the facade: a replicated counter.
	machines := make(map[vsgm.ProcID]*counter)
	replicas := make(map[vsgm.ProcID]*vsgm.Replica)

	cluster, err := vsgm.NewCluster(vsgm.ClusterConfig{
		Procs: vsgm.ProcIDs(2),
		Seed:  6,
		OnAppEvent: func(p vsgm.ProcID, ev vsgm.Event) {
			if r := replicas[p]; r != nil {
				if err := r.HandleEvent(ev); err != nil {
					t.Errorf("replica %s: %v", p, err)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cluster.Procs() {
		p := p
		m := &counter{}
		machines[p] = m
		replicas[p], err = vsgm.NewReplica(vsgm.ReplicaConfig{
			ID:        p,
			Machine:   counterMachine{m},
			Bootstrap: true,
			Send: func(b []byte) error {
				_, err := cluster.Send(p, b)
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	all := vsgm.NewProcSet(cluster.Procs()...)
	if _, _, err := cluster.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := replicas[cluster.Procs()[i%2]].Propose([]byte("inc")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range cluster.Procs() {
		if machines[p].n != 4 {
			t.Errorf("%s counter = %d, want 4", p, machines[p].n)
		}
	}
}

type counter struct{ n int }

type counterMachine struct{ c *counter }

func (m counterMachine) Apply(_ vsgm.ProcID, cmd []byte) {
	if string(cmd) == "inc" {
		m.c.n++
	}
}

func (m counterMachine) Snapshot() []byte { return []byte(fmt.Sprint(m.c.n)) }

func (m counterMachine) Restore(snap []byte) error {
	_, err := fmt.Sscan(string(snap), &m.c.n)
	return err
}

func TestPublicAPIKVStore(t *testing.T) {
	// The facade's key-value machine end to end: two founders write and
	// delete, a joiner arrives by state transfer, and every replica ends
	// with the same state.
	suite := vsgm.FullSuite()
	stores := make(map[vsgm.ProcID]*vsgm.KVStore)
	replicas := make(map[vsgm.ProcID]*vsgm.Replica)
	cluster, err := vsgm.NewCluster(vsgm.ClusterConfig{
		Procs: vsgm.ProcIDs(3),
		Seed:  13,
		Suite: suite,
		OnAppEvent: func(p vsgm.ProcID, ev vsgm.Event) {
			if r := replicas[p]; r != nil {
				if err := r.HandleEvent(ev); err != nil {
					t.Errorf("replica %s: %v", p, err)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	procs := cluster.Procs()
	for _, p := range procs {
		p := p
		stores[p] = vsgm.NewKVStore()
		replicas[p], err = vsgm.NewReplica(vsgm.ReplicaConfig{
			ID:        p,
			Machine:   stores[p],
			Bootstrap: p != procs[2],
			Send: func(b []byte) error {
				_, err := cluster.Send(p, b)
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	if _, _, err := cluster.ReconfigureTo(vsgm.NewProcSet(procs[0], procs[1])); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range [][]byte{
		vsgm.EncodeSet("a", "1"),
		vsgm.EncodeSet("b", "2"),
		vsgm.EncodeSet("a", "3"),
		vsgm.EncodeDel("b"),
	} {
		if err := replicas[procs[0]].Propose(cmd); err != nil {
			t.Fatal(err)
		}
	}
	if err := replicas[procs[1]].Propose(vsgm.EncodeSet("c", "4")); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(); err != nil {
		t.Fatal(err)
	}
	if replicas[procs[2]].Synced() {
		t.Fatal("the joiner is synced before it joined")
	}

	all := vsgm.NewProcSet(procs...)
	if _, _, err := cluster.ReconfigureTo(all); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(); err != nil {
		t.Fatal(err)
	}
	if !replicas[procs[2]].Synced() {
		t.Fatal("the joiner did not sync by state transfer")
	}

	const want = "a=3;c=4;"
	for _, p := range procs {
		if got := stores[p].Fingerprint(); got != want {
			t.Errorf("%s holds %q, want %q", p, got, want)
		}
	}
	if _, ok := stores[procs[2]].Get("b"); ok {
		t.Error("the joiner holds a deleted key")
	}
	if err := suite.Err(); err != nil {
		t.Fatalf("spec violations:\n%v", err)
	}
}

func TestPublicAPIModelChecking(t *testing.T) {
	// The explorer through the facade: every interleaving of a two-member
	// formation plus multicast satisfies the specifications.
	members := vsgm.NewProcSet("a", "b")
	scenario := func(c *vsgm.Cluster) error {
		if err := c.StartChange(members); err != nil {
			return err
		}
		if _, err := c.DeliverView(members); err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		if _, err := c.Send("a", []byte("checked")); err != nil {
			return err
		}
		return c.Run()
	}
	res, err := vsgm.Exhaustive(vsgm.ClusterConfig{Procs: []vsgm.ProcID{"a", "b"}}, scenario, 2000)
	if err != nil {
		t.Fatalf("after %d schedules: %v", res.Schedules, err)
	}
	if res.Schedules == 0 {
		t.Fatal("nothing explored")
	}
}

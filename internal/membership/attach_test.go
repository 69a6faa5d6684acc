package membership

// Socket-free tests of the attach policy of Server: leases (swept by Tick),
// bans, stale detaches and the routing of slow-consumer complaints, driven
// on a virtual clock with every reply and notification logged in send order.

import (
	"reflect"
	"testing"
	"time"

	"vsgm/internal/types"
)

const testLease = time.Second

// attachRig is one server of the set {A, B}, alone in its reachable set, so
// every attempt completes at once. log records, in order, the attach
// replies it sends and the notifications it emits.
type attachRig struct {
	srv *Server
	log []string
}

func newAttachRig(t *testing.T) *attachRig {
	t.Helper()
	r := &attachRig{}
	srv, err := NewServer("A", types.NewProcSet("A", "B"), nullTransport{}, func(p types.ProcID, n Notification) {
		kind := "view"
		if n.Kind == NotifyStartChange {
			kind = "start_change"
		}
		r.log = append(r.log, kind+" "+string(p))
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeAttach(testLease, func(p types.ProcID, a Attach) {
		kind := map[AttachKind]string{AttachAck: "ack", AttachDetach: "detach"}[a.Kind]
		r.log = append(r.log, kind+" "+string(p))
	})
	r.srv = srv
	return r
}

// handle applies one frame and checks its outcome.
func (r *attachRig) handle(t *testing.T, from types.ProcID, a Attach, at time.Time, want AttachOutcome) {
	t.Helper()
	if got := r.srv.HandleAttach(from, a, at); got != want {
		t.Fatalf("%v from %s at %v: outcome %d, want %d", a.Kind, from, at.Sub(clientT0), got, want)
	}
}

// took returns the log since the last call and resets it.
func (r *attachRig) took() []string {
	out := r.log
	r.log = nil
	return out
}

func wantLog(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: log %q, want %q", what, got, want)
	}
}

func TestServerAttachPolicy(t *testing.T) {
	req := func(epoch int64) Attach { return Attach{Kind: AttachRequest, Client: "c", Epoch: epoch} }
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, r *attachRig)
	}{
		{"a registration is acked before its first attempt notifies", func(t *testing.T, r *attachRig) {
			r.handle(t, "c", req(1), clientT0, OutcomeServed)
			wantLog(t, "registration", r.took(), "ack c", "start_change c", "view c")
			// A keepalive is acked and reconfigures nothing.
			r.handle(t, "c", req(1), clientT0, OutcomeServed)
			wantLog(t, "keepalive", r.took(), "ack c")
		}},
		{"lease expiry evicts the client and reconfigures", func(t *testing.T, r *attachRig) {
			r.handle(t, "c", req(1), clientT0, OutcomeServed)
			r.handle(t, "d", Attach{Kind: AttachRequest, Client: "d", Epoch: 1}, clientT0.Add(testLease/2), OutcomeServed)
			r.took()
			if n := r.srv.Tick(clientT0.Add(testLease)); n != 0 {
				t.Fatalf("evicted %d at the lease boundary, want 0", n)
			}
			attempt := r.srv.attempt
			if n := r.srv.Tick(clientT0.Add(testLease + time.Millisecond)); n != 1 {
				t.Fatalf("evicted %d past c's lease, want 1", n)
			}
			if r.srv.HasClient("c") || !r.srv.HasClient("d") {
				t.Fatalf("clients after expiry = %s, want only d", r.srv.LocalClients())
			}
			if r.srv.attempt <= attempt {
				t.Fatal("expiry did not start a reconfiguration")
			}
			wantLog(t, "expiry", r.took(), "start_change d", "view d")
			// The evicted client's record is retained: it resumes on re-attach.
			if rec, ok := r.srv.RecordOf("c"); !ok || rec.CID == 0 {
				t.Fatalf("record of c after expiry = %+v (%v)", rec, ok)
			}
		}},
		{"a ban refuses re-attach until it lapses", func(t *testing.T, r *attachRig) {
			r.handle(t, "c", req(1), clientT0, OutcomeServed)
			r.took()
			r.handle(t, "X", Attach{Kind: AttachSuspect, Client: "c"}, clientT0, OutcomeEvicted)
			if r.srv.HasClient("c") {
				t.Fatal("complaint did not evict the client")
			}
			wantLog(t, "eviction", r.took(), "detach c")
			r.handle(t, "c", req(2), clientT0.Add(slowBan-time.Millisecond), OutcomeIgnored)
			wantLog(t, "banned request", r.took())
			r.handle(t, "c", req(2), clientT0.Add(slowBan), OutcomeServed)
			wantLog(t, "request after the ban", r.took(), "ack c", "start_change c", "view c")
		}},
		{"a complaint about an unregistered client only bans it", func(t *testing.T, r *attachRig) {
			r.handle(t, "X", Attach{Kind: AttachSuspect, Client: "c"}, clientT0, OutcomeIgnored)
			r.handle(t, "c", req(1), clientT0.Add(time.Second), OutcomeIgnored)
			wantLog(t, "complaint and request", r.took())
		}},
		{"a late older-epoch detach is ignored", func(t *testing.T, r *attachRig) {
			r.handle(t, "c", req(2), clientT0, OutcomeServed)
			r.took()
			r.handle(t, "c", Attach{Kind: AttachDetach, Client: "c", Epoch: 1}, clientT0, OutcomeIgnored)
			if !r.srv.HasClient("c") {
				t.Fatal("an older-epoch detach evicted the newer attach")
			}
			wantLog(t, "stale detach", r.took())
			r.handle(t, "c", Attach{Kind: AttachDetach, Client: "c", Epoch: 2}, clientT0, OutcomeDetached)
			if r.srv.HasClient("c") {
				t.Fatal("a current detach left the client registered")
			}
			if len(r.srv.leases) != 0 {
				t.Fatalf("the detach left leases %v behind", r.srv.leases)
			}
		}},
		{"a complaint about a server goes to the detector and bans nobody", func(t *testing.T, r *attachRig) {
			r.srv.StartDetector(testLease, clientT0.Add(-time.Millisecond))
			r.handle(t, "c", req(1), clientT0, OutcomeServed)
			r.took()
			r.handle(t, "c", Attach{Kind: AttachSuspect, Client: "B"}, clientT0, OutcomeIgnored)
			if st := r.srv.Detector().Stats(); st.Suspects != 1 {
				t.Fatalf("detector after a complaint about B: %+v, want one suspicion", st)
			}
			r.handle(t, "c", Attach{Kind: AttachSuspect, Client: "A"}, clientT0, OutcomeIgnored)
			if len(r.srv.banned) != 0 || !r.srv.HasClient("c") {
				t.Fatalf("server complaints banned %v / evicted c (registered %v)", r.srv.banned, r.srv.HasClient("c"))
			}
			wantLog(t, "server complaints", r.took())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newAttachRig(t)) })
	}
}

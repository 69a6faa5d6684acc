package membership

// Socket-free tests of the attach protocol's client half: every input of
// membership.Client — ticks, notifications, attach frames, link-downs — is
// driven by hand on a virtual clock, and its output frames, verdicts,
// watermarks and counters are checked directly.

import (
	"reflect"
	"testing"
	"time"

	"vsgm/internal/types"
)

const testAttachTimeout = 4 * time.Second

var clientT0 = time.Unix(1000, 0)

// sent is one frame a Client handed to its send function.
type sent struct {
	To     types.ProcID
	Attach Attach
}

// testClient is a Client whose sends are logged.
type testClient struct {
	*Client
	log []sent
}

func newTestClient() *testClient {
	tc := &testClient{}
	tc.Client = NewClient("c", []types.ProcID{"srv0", "srv1"}, testAttachTimeout, clientT0,
		func(to types.ProcID, a Attach) { tc.log = append(tc.log, sent{to, a}) })
	return tc
}

// took returns what was sent since the last call.
func (tc *testClient) took() []sent {
	out := tc.log
	tc.log = nil
	return out
}

func request(to types.ProcID, epoch int64, cid types.StartChangeID, vid types.ViewID) sent {
	return sent{to, Attach{Kind: AttachRequest, Client: "c", Epoch: epoch, CID: cid, Vid: vid}}
}

func detach(to types.ProcID, epoch int64) sent {
	return sent{to, Attach{Kind: AttachDetach, Client: "c", Epoch: epoch}}
}

func ack(epoch int64, cid types.StartChangeID, vid types.ViewID) Attach {
	return Attach{Kind: AttachAck, Client: "c", Epoch: epoch, CID: cid, Vid: vid}
}

func startChange(id types.StartChangeID) *Notification {
	return &Notification{Kind: NotifyStartChange, StartChange: types.StartChange{ID: id, Set: types.NewProcSet("c")}}
}

func viewOn(id types.ViewID, scid types.StartChangeID) *Notification {
	return &Notification{Kind: NotifyView, View: types.NewView(id, types.NewProcSet("c"),
		map[types.ProcID]types.StartChangeID{"c": scid})}
}

func wantOut(t *testing.T, what string, got []sent, want ...sent) {
	t.Helper()
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s sent %+v, want %+v", what, got, want)
	}
}

func wantState(t *testing.T, c *testClient, home types.ProcID, epoch int64, cid types.StartChangeID, vid types.ViewID) {
	t.Helper()
	st := c.State()
	if st.Home != home || st.Epoch != epoch || st.CID != cid || st.Vid != vid {
		t.Fatalf("state = home %q epoch %d cid %d vid %d, want home %q epoch %d cid %d vid %d",
			st.Home, st.Epoch, st.CID, st.Vid, home, epoch, cid, vid)
	}
}

func TestClient(t *testing.T) {
	base := types.StartChangeID(2)<<cidEpochShift + 5
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *testClient)
	}{
		{"first tick courts the first home under epoch 1", func(t *testing.T, c *testClient) {
			c.Tick(clientT0)
			wantOut(t, "tick", c.took(), request("srv0", 1, 0, 0))
			wantState(t, c, "", 1, 0, 0)
		}},
		{"ack from an abandoned target is stale", func(t *testing.T, c *testClient) {
			c.HandleAttach("srv1", ack(1, 7, 7), clientT0)
			wantOut(t, "ack", c.took())
			wantState(t, c, "", 1, 0, 0)
		}},
		{"ack under an older epoch is stale", func(t *testing.T, c *testClient) {
			c.LinkDown("srv0", clientT0) // not attached: no failover
			c.HandleAttach("srv0", ack(1, 0, 0), clientT0)
			c.HandleAttach("srv0", Attach{Kind: AttachDetach, Client: "c", Epoch: 1}, clientT0)
			wantOut(t, "eviction", c.took(), detach("srv0", 1))
			// Now courting srv1 under epoch 2; an epoch-1 ack from it is stale.
			c.HandleAttach("srv1", ack(1, 7, 7), clientT0)
			wantOut(t, "ack", c.took())
			wantState(t, c, "", 2, 0, 0)
		}},
		{"ack adopts a higher epoch and max-merges the watermarks", func(t *testing.T, c *testClient) {
			c.HandleAttach("srv0", ack(3, 10, 5), clientT0)
			wantState(t, c, "srv0", 3, 10, 5)
			// A home with staler state must not lower the watermarks.
			c.HandleAttach("srv0", ack(3, 2, 9), clientT0)
			wantState(t, c, "srv0", 3, 10, 9)
			c.Tick(clientT0)
			wantOut(t, "keepalive", c.took(), request("srv0", 3, 10, 9))
			if st := c.State(); st.Attaches != 1 || st.AttachRetries != 0 {
				t.Fatalf("stats = %+v, want one attach and no retry", st)
			}
		}},
		{"detach from the home fails over under epoch+1", func(t *testing.T, c *testClient) {
			c.HandleAttach("srv0", ack(1, 4, 2), clientT0)
			c.HandleAttach("srv1", Attach{Kind: AttachDetach, Client: "c"}, clientT0)
			wantOut(t, "detach from a non-home", c.took())
			c.HandleAttach("srv0", Attach{Kind: AttachDetach, Client: "c"}, clientT0)
			wantOut(t, "eviction", c.took(), detach("srv0", 1))
			wantState(t, c, "", 2, 4, 2)
			c.Tick(clientT0)
			wantOut(t, "tick", c.took(), request("srv1", 2, 4, 2))
			if st := c.State(); st.Failovers != 1 || st.AttachRetries != 1 {
				t.Fatalf("stats = %+v, want one failover and one retry", st)
			}
		}},
		{"a home silent past the timeout is abandoned", func(t *testing.T, c *testClient) {
			c.HandleAttach("srv0", ack(1, 0, 0), clientT0)
			c.Tick(clientT0.Add(testAttachTimeout))
			wantOut(t, "tick at the timeout", c.took(), request("srv0", 1, 0, 0))
			c.Tick(clientT0.Add(testAttachTimeout + time.Millisecond))
			wantOut(t, "tick past the timeout", c.took(),
				detach("srv0", 1), request("srv1", 2, 0, 0))
			wantState(t, c, "", 2, 0, 0)
			// The list wraps around: srv1 silent too sends the client back to srv0.
			c.Tick(clientT0.Add(2*testAttachTimeout + 2*time.Millisecond))
			wantOut(t, "second timeout", c.took(),
				detach("srv1", 2), request("srv0", 3, 0, 0))
		}},
		{"link-down of the home fails over at once", func(t *testing.T, c *testClient) {
			c.HandleAttach("srv0", ack(1, 0, 0), clientT0)
			c.LinkDown("srv1", clientT0)
			wantOut(t, "link-down of a non-home", c.took())
			c.LinkDown("srv0", clientT0)
			wantOut(t, "link-down of the home", c.took(), detach("srv0", 1))
			wantState(t, c, "", 2, 0, 0)
			// The failover restarted the silence clock.
			c.Tick(clientT0.Add(testAttachTimeout))
			wantOut(t, "tick", c.took(), request("srv1", 2, 0, 0))
		}},
		{"impossible watermarks are clamped on a tick", func(t *testing.T, c *testClient) {
			c.Scramble(-1, MaxSaneVid+1, 7)
			c.Tick(clientT0)
			wantOut(t, "tick", c.took(), request("srv0", 1, 0, 0))
			// cid and vid clamp (one pass), and lastSC above the clamped cid
			// clamps to it: two clamps.
			if st := c.State(); st.SelfClamps != 2 {
				t.Fatalf("self clamps = %d, want 2", st.SelfClamps)
			}
			c.HandleAttach("srv0", ack(1, 0, 0), clientT0)
			if !c.AcceptNotify("srv0", startChange(1)) || !c.AcceptNotify("srv0", viewOn(1, 1)) {
				t.Fatal("a clamped client refused a fresh start change and view")
			}
		}},
		{"huge but possible watermarks are left for the claim", func(t *testing.T, c *testClient) {
			c.Scramble(MaxSaneCID, MaxSaneVid, MaxSaneCID)
			c.Tick(clientT0)
			wantOut(t, "tick", c.took(), request("srv0", 1, MaxSaneCID, MaxSaneVid))
			if st := c.State(); st.SelfClamps != 0 {
				t.Fatalf("self clamps = %d, want 0", st.SelfClamps)
			}
		}},
		// The notification filter. After an ack establishes the identifier
		// high-water mark, notifications from the wrong server, start changes
		// at or below the mark, views at or below the last view, views built
		// on a start change the client never accepted, and straight replays
		// are all refused (and counted), while the in-order stream passes.
		{"notification filter drops regressions", func(t *testing.T, c *testClient) {
			c.HandleAttach("srv0", ack(2, base, 9), clientT0)
			for _, step := range []struct {
				name string
				from types.ProcID
				ntf  *Notification
				want bool
			}{
				{"start change from a non-home server", "srv1", startChange(base + 1), false},
				{"start change at the watermark", "srv0", startChange(base), false},
				{"fresh start change", "srv0", startChange(base + 1), true},
				{"view at the last view id", "srv0", viewOn(9, base+1), false},
				{"view built on an unaccepted start change", "srv0", viewOn(10, base), false},
				{"fresh view", "srv0", viewOn(10, base+1), true},
				{"replay of the fresh view", "srv0", viewOn(10, base+1), false},
			} {
				if got := c.AcceptNotify(step.from, step.ntf); got != step.want {
					t.Fatalf("%s: AcceptNotify = %v, want %v", step.name, got, step.want)
				}
			}
			if got := c.State().StaleNotifies; got != 5 {
				t.Fatalf("stale notifications = %d, want 5", got)
			}
			wantState(t, c, "srv0", 2, base+1, 10)
		}},
		{"a courting client hears no one", func(t *testing.T, c *testClient) {
			if c.AcceptNotify("srv0", startChange(1)) {
				t.Fatal("accepted a notification before any ack")
			}
		}},
		{"complaints go to every home but the laggard", func(t *testing.T, c *testClient) {
			suspect := func(to, laggard types.ProcID) sent {
				return sent{to, Attach{Kind: AttachSuspect, Client: laggard}}
			}
			c.Complain("d")
			wantOut(t, "complaint about a client", c.took(), suspect("srv0", "d"), suspect("srv1", "d"))
			c.Complain("srv1")
			wantOut(t, "complaint about a server", c.took(), suspect("srv0", "srv1"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newTestClient()) })
	}
}

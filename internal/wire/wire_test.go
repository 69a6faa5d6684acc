package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"vsgm/internal/membership"
	"vsgm/internal/types"
)

func sampleView(r *rand.Rand) types.View {
	members := types.NewProcSet()
	startID := make(map[types.ProcID]types.StartChangeID)
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		p := types.ProcID(string(rune('a' + r.Intn(6))))
		members.Add(p)
		startID[p] = types.StartChangeID(r.Intn(10))
	}
	return types.NewView(types.ViewID(r.Intn(100)), members, startID)
}

func sampleCut(r *rand.Rand) types.Cut {
	if r.Intn(4) == 0 {
		return nil
	}
	c := make(types.Cut)
	for i := 0; i < r.Intn(4); i++ {
		c[types.ProcID(string(rune('a'+r.Intn(6))))] = r.Intn(50)
	}
	if len(c) == 0 {
		return nil // the codec canonicalizes empty to nil
	}
	return c
}

func sampleMsg(r *rand.Rand) types.WireMsg {
	switch r.Intn(9) {
	case 0:
		return types.WireMsg{Kind: types.KindView, View: sampleView(r)}
	case 1:
		payload := make([]byte, r.Intn(32))
		r.Read(payload)
		return types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: r.Int63(), Payload: payload}}
	case 2:
		return types.WireMsg{
			Kind:   types.KindFwd,
			App:    types.AppMsg{ID: r.Int63(), Payload: []byte("fwd")},
			Origin: "x",
			View:   sampleView(r),
			Index:  1 + r.Intn(20),
		}
	case 3:
		return types.WireMsg{
			Kind:      types.KindSync,
			CID:       types.StartChangeID(r.Intn(50)),
			Small:     r.Intn(2) == 0,
			ElideView: r.Intn(2) == 0,
			Probe:     r.Intn(2) == 0,
			View:      sampleView(r),
			Cut:       sampleCut(r),
		}
	case 4:
		return types.WireMsg{Kind: types.KindAck, Cut: sampleCut(r)}
	case 5:
		m := types.WireMsg{Kind: types.KindHeartbeat}
		if r.Intn(2) == 0 {
			set := types.NewProcSet()
			n := 1 + r.Intn(4)
			for i := 0; i < n; i++ {
				set.Add(types.ProcID(string(rune('a' + r.Intn(6)))))
			}
			m.Reach = set
		}
		return m
	case 6:
		return types.WireMsg{Kind: types.KindPropose, View: sampleView(r)}
	case 7:
		clients := make(map[types.ProcID]types.StartChangeID)
		for i := 0; i < r.Intn(3); i++ {
			clients[types.ProcID(string(rune('p'+r.Intn(4))))] = types.StartChangeID(r.Intn(9))
		}
		var epochs map[types.ProcID]int64
		for i := 0; i < r.Intn(3); i++ {
			if epochs == nil {
				epochs = make(map[types.ProcID]int64)
			}
			epochs[types.ProcID(string(rune('p'+r.Intn(4))))] = 1 + r.Int63n(8)
		}
		return types.WireMsg{Kind: types.KindMembProposal, MembProp: &types.MembProposal{
			Attempt: r.Int63n(100),
			Servers: types.NewProcSet("s0", "s1"),
			MinVid:  types.ViewID(r.Intn(40)),
			Clients: clients,
			Epochs:  epochs,
		}}
	default:
		var bundle []types.SyncEntry
		for i := 0; i < 1+r.Intn(3); i++ {
			bundle = append(bundle, types.SyncEntry{
				From:  types.ProcID(string(rune('a' + r.Intn(6)))),
				CID:   types.StartChangeID(r.Intn(30)),
				Small: r.Intn(2) == 0,
				View:  sampleView(r),
				Cut:   sampleCut(r),
			})
		}
		return types.WireMsg{Kind: types.KindSyncBundle, Bundle: bundle}
	}
}

// msgEqual compares messages structurally, treating views by their triples.
func msgEqual(a, b types.WireMsg) bool {
	if a.Kind != b.Kind || a.Origin != b.Origin || a.Index != b.Index ||
		a.CID != b.CID || a.Small != b.Small || a.ElideView != b.ElideView ||
		a.Probe != b.Probe {
		return false
	}
	if !a.View.Equal(b.View) || a.View.Key() != b.View.Key() {
		return false
	}
	if a.App.ID != b.App.ID || !bytes.Equal(a.App.Payload, b.App.Payload) {
		return false
	}
	if (a.Cut == nil) != (b.Cut == nil) || (a.Cut != nil && !a.Cut.Equal(b.Cut)) {
		return false
	}
	if (a.MembProp == nil) != (b.MembProp == nil) {
		return false
	}
	if (a.Reach == nil) != (b.Reach == nil) {
		return false
	}
	if a.Reach != nil && !a.Reach.Equal(b.Reach) {
		return false
	}
	if a.MembProp != nil {
		if a.MembProp.Attempt != b.MembProp.Attempt || a.MembProp.MinVid != b.MembProp.MinVid ||
			!a.MembProp.Servers.Equal(b.MembProp.Servers) ||
			!reflect.DeepEqual(a.MembProp.Clients, b.MembProp.Clients) ||
			!reflect.DeepEqual(a.MembProp.Epochs, b.MembProp.Epochs) {
			return false
		}
	}
	if len(a.Bundle) != len(b.Bundle) {
		return false
	}
	for i := range a.Bundle {
		x, y := a.Bundle[i], b.Bundle[i]
		if x.From != y.From || x.CID != y.CID || x.Small != y.Small ||
			!x.View.Equal(y.View) {
			return false
		}
		if (x.Cut == nil) != (y.Cut == nil) || (x.Cut != nil && !x.Cut.Equal(y.Cut)) {
			return false
		}
	}
	return true
}

func TestMsgRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 400,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(sampleMsg(r))
		},
	}
	roundTrip := func(m types.WireMsg) bool {
		b, err := MarshalMsg(m)
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		got, rest, err := UnmarshalMsg(b)
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		if len(rest) != 0 {
			t.Logf("trailing bytes: %d", len(rest))
			return false
		}
		if !msgEqual(m, got) {
			t.Logf("mismatch:\n in: %+v\nout: %+v", m, got)
			return false
		}
		return true
	}
	if err := quick.Check(roundTrip, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalIsDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		m := sampleMsg(r)
		a, err := MarshalMsg(m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalMsg(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("non-deterministic encoding for %+v", m)
		}
	}
}

func TestUnmarshalRejectsCorruptInput(t *testing.T) {
	m := types.WireMsg{
		Kind: types.KindSync, CID: 3,
		View: types.InitialView("a"), Cut: types.Cut{"a": 1},
	}
	b, err := MarshalMsg(m)
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail cleanly, never panic.
	for i := 0; i < len(b); i++ {
		if _, _, err := UnmarshalMsg(b[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, _, err := UnmarshalMsg([]byte{99}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestFrameRoundTripAndStream(t *testing.T) {
	frames := []Frame{
		{From: "a"}, // handshake
		{Msg: &types.WireMsg{Kind: types.KindHeartbeat}},
		{Notify: &membership.Notification{
			Kind:        membership.NotifyStartChange,
			StartChange: types.StartChange{ID: 4, Set: types.NewProcSet("a", "b")},
		}},
		{Notify: &membership.Notification{
			Kind: membership.NotifyView,
			View: types.NewView(2, types.NewProcSet("a"), map[types.ProcID]types.StartChangeID{"a": 4}),
		}},
		{Attach: &membership.Attach{Kind: membership.AttachRequest, Client: "a", Epoch: 3}},
		{Attach: &membership.Attach{Kind: membership.AttachAck, Client: "a", Epoch: 3, CID: 3 << 32, Vid: 9}},
		{Attach: &membership.Attach{Kind: membership.AttachDetach, Client: "a", Epoch: 2}},
		{Attach: &membership.Attach{Kind: membership.AttachSuspect, Client: "b"}},
		{Credit: &Credit{Grant: 0}},
		{Credit: &Credit{Grant: 1<<64 - 1}},
	}

	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	for i, want := range frames {
		var got Frame
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.From != want.From {
			t.Fatalf("frame %d from = %s", i, got.From)
		}
		if (got.Msg == nil) != (want.Msg == nil) || (got.Notify == nil) != (want.Notify == nil) ||
			(got.Attach == nil) != (want.Attach == nil) || (got.Credit == nil) != (want.Credit == nil) {
			t.Fatalf("frame %d shape mismatch: %+v", i, got)
		}
		if want.Attach != nil && *got.Attach != *want.Attach {
			t.Fatalf("frame %d attach mismatch: got %+v want %+v", i, *got.Attach, *want.Attach)
		}
		if want.Credit != nil && *got.Credit != *want.Credit {
			t.Fatalf("frame %d credit mismatch: got %+v want %+v", i, *got.Credit, *want.Credit)
		}
	}
}

// TestAppFrameEnvelope pins what an application frame costs on the wire: the
// frame tag, the message kind, the message id and the payload's length — 14
// bytes around the payload. The history tags and the sender field are not
// encoded, so the bytes are the same whatever they hold, and the size moves
// with WireMsg.Size by a fixed amount. The sender's identifier goes on the
// wire in the connection's hello alone.
func TestAppFrameEnvelope(t *testing.T) {
	const envelope = 14
	big := types.NewView(9, types.NewProcSet("s0", "s1", "cli0", "cli1"),
		map[types.ProcID]types.StartChangeID{"s0": 1, "s1": 2, "cli0": 3, "cli1": 4})
	tags := []struct {
		from  types.ProcID
		view  types.View
		index int
	}{
		{"", types.View{}, 0},
		{"a", types.InitialView("a"), 1},
		{"cli0-with-a-long-name", big, 1 << 40},
	}
	sizeGap := envelope - types.WireMsg{Kind: types.KindApp}.Size()
	for _, size := range []int{0, 1, 256, 16 << 10} {
		payload := bytes.Repeat([]byte{0xa5}, size)
		var first []byte
		for i, tag := range tags {
			m := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 42, Payload: payload},
				HistView: tag.view, HistIndex: tag.index}
			body, err := MarshalFrame(Frame{From: tag.from, Msg: &m})
			if err != nil {
				t.Fatal(err)
			}
			if len(body) != envelope+size {
				t.Fatalf("%d B payload: app frame body is %d bytes, want %d", size, len(body), envelope+size)
			}
			if i == 0 {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Fatalf("%d B payload: the encoding depends on the history tags or the sender field (%+v)", size, tag)
			}
			if gap := len(body) - m.Size(); gap != sizeGap {
				t.Fatalf("%d B payload: body - Size() = %d, want the fixed %d", size, gap, sizeGap)
			}
		}
	}
	for _, id := range []types.ProcID{"a", "cli0", types.ProcID(bytes.Repeat([]byte("n"), 300))} {
		body, err := MarshalFrame(Frame{From: id})
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalFrame(body)
		if err != nil || got.From != id || len(body) != 1+2+len(id) {
			t.Fatalf("hello naming %.8q...: %d bytes decoded to %.8q (err %v)", id, len(body), got.From, err)
		}
	}
}

// TestFrameClassification pins the flow-control plane split: only
// application data frames are credit-gated and sheddable, heartbeats are
// coalescible, and everything else — sync, acks, proposals, notifications,
// attach traffic, credits themselves — is control-plane and must never be
// dropped by a full queue.
func TestFrameClassification(t *testing.T) {
	v := types.NewView(2, types.NewProcSet("a"), map[types.ProcID]types.StartChangeID{"a": 1})
	cases := []struct {
		name string
		f    Frame
		want FrameClass
	}{
		{"handshake", Frame{From: "a"}, ClassControl},
		{"app", Frame{From: "a", Msg: &types.WireMsg{Kind: types.KindApp}}, ClassData},
		{"fwd", Frame{From: "a", Msg: &types.WireMsg{Kind: types.KindFwd}}, ClassControl},
		{"sync", Frame{From: "a", Msg: &types.WireMsg{Kind: types.KindSync, View: v}}, ClassControl},
		{"ack", Frame{From: "a", Msg: &types.WireMsg{Kind: types.KindAck}}, ClassControl},
		{"heartbeat", Frame{From: "a", Msg: &types.WireMsg{Kind: types.KindHeartbeat}}, ClassHeartbeat},
		{"notify", Frame{From: "a", Notify: &membership.Notification{Kind: membership.NotifyView, View: v}}, ClassControl},
		{"attach", Frame{From: "a", Attach: &membership.Attach{Kind: membership.AttachRequest, Client: "a"}}, ClassControl},
		{"credit", Frame{From: "a", Credit: &Credit{Grant: 5}}, ClassControl},
	}
	for _, tc := range cases {
		fb, err := EncodeFrame(tc.f)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if got := fb.Class(); got != tc.want {
			t.Errorf("%s: class = %d, want %d", tc.name, got, tc.want)
		}
		fb.Release()
	}
}

func TestDecoderRejectsOversizedFrames(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length prefix
	var f Frame
	if err := NewDecoder(&buf).Decode(&f); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func BenchmarkMarshalSync(b *testing.B) {
	v := types.NewView(3, types.NewProcSet("a", "b", "c", "d"),
		map[types.ProcID]types.StartChangeID{"a": 1, "b": 2, "c": 3, "d": 4})
	m := types.WireMsg{Kind: types.KindSync, CID: 9, View: v,
		Cut: types.Cut{"a": 10, "b": 20, "c": 30, "d": 40}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MarshalMsg(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalSync(b *testing.B) {
	v := types.NewView(3, types.NewProcSet("a", "b", "c", "d"),
		map[types.ProcID]types.StartChangeID{"a": 1, "b": 2, "c": 3, "d": 4})
	enc, err := MarshalMsg(types.WireMsg{Kind: types.KindSync, CID: 9, View: v,
		Cut: types.Cut{"a": 10, "b": 20, "c": 30, "d": 40}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := UnmarshalMsg(enc); err != nil {
			b.Fatal(err)
		}
	}
}

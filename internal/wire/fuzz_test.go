package wire

import (
	"bytes"
	"testing"

	"vsgm/internal/membership"
	"vsgm/internal/types"
)

// frameCorpus returns valid stream encodings (header + body) of every frame
// shape, used to seed the fuzzer close to the interesting decode paths.
func frameCorpus(t testing.TB) [][]byte {
	t.Helper()
	v := types.NewView(3, types.NewProcSet("a", "b"),
		map[types.ProcID]types.StartChangeID{"a": 1, "b": 2})
	msg := func(m types.WireMsg) Frame { return Frame{From: "p", Msg: &m} }
	frames := []Frame{
		{From: "p"},
		msg(types.WireMsg{Kind: types.KindView, View: v}),
		msg(types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 7, Payload: []byte("x")}, HistView: v, HistIndex: 2}),
		msg(types.WireMsg{Kind: types.KindFwd, App: types.AppMsg{ID: 8}, Origin: "a", View: v, Index: 3}),
		msg(types.WireMsg{Kind: types.KindSync, CID: 4, View: v, Cut: types.Cut{"a": 1}}),
		msg(types.WireMsg{Kind: types.KindAck, Cut: types.Cut{"a": 9}}),
		msg(types.WireMsg{Kind: types.KindHeartbeat}),
		msg(types.WireMsg{Kind: types.KindMembProposal, MembProp: &types.MembProposal{
			Attempt: 2, Servers: types.NewProcSet("s0"), MinVid: 4,
			Clients: map[types.ProcID]types.StartChangeID{"c": 3},
			Epochs:  map[types.ProcID]int64{"c": 2},
		}}),
		msg(types.WireMsg{Kind: types.KindSyncBundle, Bundle: []types.SyncEntry{
			{From: "a", CID: 1, View: v, Cut: types.Cut{"a": 1}},
		}}),
		{From: "srv", Notify: &membership.Notification{
			Kind:        membership.NotifyStartChange,
			StartChange: types.StartChange{ID: 9, Set: types.NewProcSet("a", "b")},
		}},
		{From: "srv", Notify: &membership.Notification{Kind: membership.NotifyView, View: v}},
		{From: "c", Attach: &Attach{Kind: AttachRequest, Client: "c", Epoch: 2}},
		{From: "srv", Attach: &Attach{Kind: AttachAck, Client: "c", Epoch: 2, CID: 1 << 33, Vid: 7}},
		{From: "c", Attach: &Attach{Kind: AttachDetach, Client: "c", Epoch: 1}},
		{From: "c", Attach: &Attach{Kind: AttachSuspect, Client: "d"}},
		{From: "c", Credit: &Credit{Grant: 1 << 40}},
	}
	var out [][]byte
	for _, fr := range frames {
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Encode(fr); err != nil {
			t.Fatalf("seed encode: %v", err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzDecodeFrame feeds arbitrary bytes through the stream decoder:
// malformed length prefixes, corrupt tags, and truncated payloads must all
// surface as errors — never a panic, hang, or unbounded allocation. Frames
// that do decode must re-marshal (the decoder never fabricates a value the
// encoder cannot represent).
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range frameCorpus(f) {
		f.Add(seed)
		// Truncations and a corrupt length prefix of each valid encoding.
		f.Add(seed[:len(seed)/2])
		mangled := append([]byte{0xff, 0xff, 0xff, 0xff}, seed[4:]...)
		f.Add(mangled)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			var fr Frame
			if err := dec.Decode(&fr); err != nil {
				return
			}
			if _, err := MarshalFrame(fr); err != nil {
				t.Fatalf("decoded frame does not re-marshal: %v (%+v)", err, fr)
			}
		}
	})
}

// FuzzDecodeCreditFrame narrows the fuzzer onto the credit frame codec:
// seeds are credit encodings (plus truncations and tag corruptions), and any
// input that decodes into a credit frame must round-trip its grant exactly —
// flow-control correctness rests on grants surviving the wire unchanged.
func FuzzDecodeCreditFrame(f *testing.F) {
	for _, grant := range []uint64{0, 1, 1 << 16, 1<<64 - 1} {
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Encode(Frame{From: "p", Credit: &Credit{Grant: grant}}); err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		seed := buf.Bytes()
		f.Add(seed)
		f.Add(seed[:len(seed)-1])
		if len(seed) > 5 {
			corrupt := append([]byte(nil), seed...)
			corrupt[5] ^= 0xff // somewhere inside the body: From length or tag
			f.Add(corrupt)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			var fr Frame
			if err := dec.Decode(&fr); err != nil {
				return
			}
			if fr.Credit == nil {
				continue
			}
			enc, err := MarshalFrame(fr)
			if err != nil {
				t.Fatalf("decoded credit frame does not re-marshal: %v (%+v)", err, fr)
			}
			back, err := UnmarshalFrame(enc)
			if err != nil || back.Credit == nil || back.Credit.Grant != fr.Credit.Grant {
				t.Fatalf("credit grant did not round-trip: got %+v want %+v (err %v)", back.Credit, fr.Credit, err)
			}
		}
	})
}

// FuzzUnmarshalFrame exercises the body codec directly (no length prefix),
// hitting UnmarshalFrame's internal readers with raw bytes.
func FuzzUnmarshalFrame(f *testing.F) {
	for _, seed := range frameCorpus(f) {
		if len(seed) > 4 {
			f.Add(seed[4:])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		if _, err := MarshalFrame(fr); err != nil {
			t.Fatalf("decoded frame does not re-marshal: %v (%+v)", err, fr)
		}
	})
}

// appFrameWith marshals an application frame whose history view is v.
func appFrameWith(t testing.TB, v types.View) []byte {
	t.Helper()
	m := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 1, Payload: []byte("p")}, HistView: v, HistIndex: 1}
	b, err := MarshalFrame(Frame{From: "p", Msg: &m})
	if err != nil {
		t.Fatalf("MarshalFrame: %v", err)
	}
	return b
}

// checkViewEncoding marshals an application frame carrying v twice — the
// first marshal may fill the view-encoding table, the second is served from it
// — and requires both to carry exactly the bytes the uncached encoder
// produces, and to decode back to v.
func checkViewEncoding(t testing.TB, v types.View) {
	t.Helper()
	var plain buffer
	if err := plain.view(v); err != nil {
		t.Fatalf("view: %v", err)
	}
	for pass := 0; pass < 2; pass++ {
		b := appFrameWith(t, v)
		if !bytes.Contains(b, plain.b) {
			t.Fatalf("pass %d: frame does not carry the uncached encoding of %v", pass, v)
		}
		got, err := UnmarshalFrame(b)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !got.Msg.HistView.Equal(v) {
			t.Fatalf("pass %d: history view decoded as %v (startIds %v), sent %v (startIds %v)",
				pass, got.Msg.HistView, got.Msg.HistView.StartID, v, v.StartID)
		}
	}
}

// TestViewEncodingCacheKeyedByTriple: the table is keyed by the whole view
// triple, so two views with the same identifier and members but different
// startIds never share an entry, and neither do views whose member
// identifiers contain the key's own separators.
func TestViewEncodingCacheKeyedByTriple(t *testing.T) {
	members := types.NewProcSet("a", "b")
	v1 := types.NewView(9, members, map[types.ProcID]types.StartChangeID{"a": 1, "b": 2})
	v2 := types.NewView(9, members, map[types.ProcID]types.StartChangeID{"a": 1, "b": 3})
	checkViewEncoding(t, v1)
	checkViewEncoding(t, v2)
	checkViewEncoding(t, v1)
	if bytes.Equal(appFrameWith(t, v1), appFrameWith(t, v2)) {
		t.Fatal("views differing only in startId encoded identically")
	}
	// "a=1,b"→2 and {"a"→1, "b"→2} render the same canonical key.
	tricky := types.NewView(9, types.NewProcSet("a=1,b"), map[types.ProcID]types.StartChangeID{"a=1,b": 2})
	if tricky.Key() != v1.Key() {
		t.Fatalf("test premise: keys %q and %q should collide", tricky.Key(), v1.Key())
	}
	checkViewEncoding(t, tricky)
	checkViewEncoding(t, v1)
}

// FuzzViewEncodingCache round-trips arbitrary small views — including
// identifiers built from the key's separators — through the cached encoder.
func FuzzViewEncodingCache(f *testing.F) {
	f.Add(int64(3), "a", "b", "c", int64(1), int64(2), int64(3))
	f.Add(int64(3), "a", "b", "c", int64(1), int64(2), int64(4))
	f.Add(int64(3), "a=1,b", "", "c", int64(2), int64(0), int64(3))
	f.Add(int64(-1), "x|y", "x", "y", int64(-5), int64(1<<40), int64(0))
	f.Fuzz(func(t *testing.T, id int64, a, b, c string, ca, cb, cc int64) {
		members := types.NewProcSet()
		start := make(map[types.ProcID]types.StartChangeID)
		for _, e := range []struct {
			p   string
			cid int64
		}{{a, ca}, {b, cb}, {c, cc}} {
			if e.p == "" || len(e.p) > 64 {
				continue
			}
			members.Add(types.ProcID(e.p))
			start[types.ProcID(e.p)] = types.StartChangeID(e.cid)
		}
		checkViewEncoding(t, types.NewView(types.ViewID(id), members, start))
	})
}

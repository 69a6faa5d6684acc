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
		{From: "c", Attach: &membership.Attach{Kind: membership.AttachRequest, Client: "c", Epoch: 2}},
		{From: "srv", Attach: &membership.Attach{Kind: membership.AttachAck, Client: "c", Epoch: 2, CID: 1 << 33, Vid: 7}},
		{From: "c", Attach: &membership.Attach{Kind: membership.AttachDetach, Client: "c", Epoch: 1}},
		{From: "c", Attach: &membership.Attach{Kind: membership.AttachSuspect, Client: "d"}},
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
			corrupt[4] ^= 0xff // the frame tag
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

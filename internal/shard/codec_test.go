package shard

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// encodeOp is the inverse of decodeOp, through the exported encoders.
func encodeOp(t *testing.T, op KVOp) []byte {
	t.Helper()
	switch op.Op {
	case "set":
		return EncodeSet(op.Key, op.Value)
	case "del":
		return EncodeDel(op.Key)
	case "install":
		return EncodeInstall(op.Data)
	case "marker":
		return EncodeMarker(op.Reshard)
	case "prune":
		return EncodePrune(op.SlotLo, op.SlotHi, op.NSlots)
	}
	t.Fatalf("no encoder for op %q", op.Op)
	return nil
}

// opSize is how many bytes of strings a decoded command holds.
func opSize(op KVOp) int {
	n := len(op.Key) + len(op.Value) + len(op.Reshard)
	for k, v := range op.Data {
		n += len(k) + len(v)
	}
	return n
}

func roundTrip(t *testing.T, op KVOp) {
	t.Helper()
	enc := encodeOp(t, op)
	var got KVOp
	if err := decodeOp(enc, &got); err != nil {
		t.Fatalf("%s: decoding what the encoder wrote: %v", op.Op, err)
	}
	if op.Op == "install" && len(op.Data) == 0 {
		op.Data, got.Data = nil, nil // an empty chunk is an empty chunk
	}
	if !reflect.DeepEqual(got, op) {
		t.Fatalf("%s did not survive the round trip", op.Op)
	}
	if again := encodeOp(t, got); !bytes.Equal(again, enc) {
		t.Fatalf("%s: the same command encoded to different bytes", op.Op)
	}
}

func TestCommandRoundTrip(t *testing.T) {
	big := strings.Repeat("\x00\xff binary \n", 1<<17)[:1<<20]
	for _, op := range []KVOp{
		{Op: "set", Key: "k", Value: "v"},
		{Op: "set"}, // empty key, empty value
		{Op: "set", Key: "\xff\xfe\x00", Value: "\xff\xff\xff\xff"},
		{Op: "set", Key: "big", Value: big},
		{Op: "del", Key: "k"},
		{Op: "del"},
		{Op: "install"},
		{Op: "install", Data: map[string]string{"": "", "a": "1", "\xff": "\x00", "big": big}},
		{Op: "marker", Reshard: "r-17"},
		{Op: "marker"},
		{Op: "prune", SlotLo: 0, SlotHi: 3, NSlots: 8},
		{Op: "prune", SlotLo: 1 << 40, SlotHi: 1<<62 - 1, NSlots: 1 << 62},
	} {
		roundTrip(t, op)
	}
}

// hostile are encodings whose counts and lengths promise far more than the
// bytes that follow them hold.
func hostile() [][]byte {
	huge := binary.AppendUvarint(nil, 1<<40)
	return [][]byte{
		append([]byte{opSet}, huge...),
		append(append([]byte{opSet, 1, 'k'}, huge...), "value"...),
		append(append([]byte{opInstall}, huge...), 1, 'k', 1, 'v'),
		append(append([]byte{opInstall, 2, 1, 'a', 1, 'b', 1, 'c'}, huge...), 'd'),
		append([]byte{opMarker}, huge...),
		append([]byte{opPrune, 0, 3}, bytes.Repeat([]byte{0xff}, 10)...), // a varint that overflows
		append(append([]byte{snapFormat, 0}, huge...), 1, 'k', 1, 'v'),
		append([]byte{snapFormat}, huge...),
	}
}

func TestDecodersDoNotTrustCounts(t *testing.T) {
	for i, b := range hostile() {
		// TotalAlloc counts the whole process, so anything else that runs
		// meanwhile only adds: the least of a few attempts is the decoders'.
		least := ^uint64(0)
		for attempt := 0; attempt < 5; attempt++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cmdErr := decodeOp(b, new(KVOp))
			snapErr := NewMachine(nil).restore(b)
			runtime.ReadMemStats(&after)
			if cmdErr == nil || snapErr == nil {
				t.Fatalf("hostile input %d accepted (command: %v, snapshot: %v)", i, cmdErr, snapErr)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4<<10 {
			t.Errorf("hostile input %d (%d bytes) made the decoders allocate %d bytes", i, len(b), least)
		}
	}
}

// FuzzKVCommand: arbitrary bytes never panic the command decoder and never
// decode to more than they hold; what does not decode leaves a machine as it
// was; what decodes survives encode → decode unchanged.
func FuzzKVCommand(f *testing.F) {
	f.Add(EncodeSet("k", "v"))
	f.Add(EncodeSet("", ""))
	f.Add(EncodeSet("\xff\xfe", "\xff\xff\xff"))
	f.Add(EncodeDel("k"))
	f.Add(EncodeInstall(nil))
	f.Add(EncodeInstall(map[string]string{"": "", "a": "1", "\xff": "\x00"}))
	f.Add(EncodeMarker("r-17"))
	f.Add(EncodePrune(0, 3, 8))
	f.Add([]byte("not a command"))
	f.Add([]byte(`{"op":"set","key":"k","value":"v"}`))
	for _, b := range hostile() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m := NewMachine(nil)
		m.Apply("p", EncodeSet("k", "v"))
		before := m.Fingerprint()
		var op KVOp
		if err := decodeOp(b, &op); err != nil {
			if m.Apply("p", b); m.Fingerprint() != before {
				t.Fatalf("a command that does not decode changed the state to %q", m.Fingerprint())
			}
			return
		}
		if opSize(op) > len(b) {
			t.Fatalf("%d bytes decoded to %d bytes of strings", len(b), opSize(op))
		}
		roundTrip(t, op)
		// Two machines fed the same bytes agree.
		m2 := NewMachine(nil)
		m2.Apply("p", EncodeSet("k", "v"))
		m.Apply("p", b)
		m2.Apply("p", b)
		if m.Fingerprint() != m2.Fingerprint() {
			t.Fatal("two machines applied the same command differently")
		}
	})
}

// FuzzMachineRestore: arbitrary bytes never panic the snapshot decoder; a
// snapshot that does not decode is refused and leaves the machine as it was;
// one that decodes survives Snapshot → Restore unchanged.
func FuzzMachineRestore(f *testing.F) {
	src := NewMachine(nil)
	f.Add(src.Snapshot())
	src.Apply("p", EncodeSet("", ""))
	src.Apply("p", EncodeSet("k", "v"))
	src.Apply("p", EncodeSet("\xff", "\x00\xff"))
	src.Apply("p", EncodeMarker("r-1"))
	f.Add(src.Snapshot())
	f.Add([]byte(`{"kv":{"k":"v"}}`))
	for _, b := range hostile() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st := &countingStore{Store: NewMemStore()}
		m := NewMachine(st)
		m.Apply("p", EncodeSet("k", "v"))
		before := m.Fingerprint()
		if err := m.Restore(b); err != nil {
			if m.Fingerprint() != before || st.snaps != 0 {
				t.Fatal("a refused snapshot changed the machine or reached its store")
			}
			return
		}
		if got := opSize(KVOp{Data: m.kv, Reshard: m.lastMarker}); got > len(b) {
			t.Fatalf("%d bytes restored to %d bytes of strings", len(b), got)
		}
		if st.snaps != 1 || m.snapBytes != int64(len(b)) || m.logBytes != 0 {
			t.Fatalf("Restore left %d snapshots in the store and accounting %d/%d", st.snaps, m.snapBytes, m.logBytes)
		}
		m2 := NewMachine(nil)
		if err := m2.Restore(m.Snapshot()); err != nil {
			t.Fatalf("restoring the machine's own snapshot: %v", err)
		}
		if m2.Fingerprint() != m.Fingerprint() {
			t.Fatal("state did not survive Snapshot → Restore")
		}
		reloaded, err := LoadMachine(st)
		if err != nil || reloaded.Fingerprint() != m.Fingerprint() {
			t.Fatalf("the adopted snapshot did not reload from the store (%v)", err)
		}
	})
}

package wire

import (
	"bytes"
	"testing"

	"vsgm/internal/types"
)

func walCorpus() []WALRecord {
	return []WALRecord{
		{Client: "a", CID: 1, Vid: 1, Epoch: 1},
		{Client: "longer-client-name", CID: 3 << 32, Vid: 99, Epoch: 3},
		{Client: "z", CID: 0, Vid: 0, Epoch: 0},
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	for i, want := range walCorpus() {
		body, err := AppendWALBody([]byte("kept"), want)
		if err != nil {
			t.Fatalf("append %+v: %v", want, err)
		}
		if !bytes.HasPrefix(body, []byte("kept")) {
			t.Fatalf("record %d: append overwrote the destination's contents", i)
		}
		got, err := DecodeWALBody(body[len("kept"):])
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestDecodeWALRecordRejectsCorruption: a body is exactly one record. What a
// flipped bit does is the frame's business (internal/wal checksums it); what
// the body decoder must refuse is every other length — any truncation, and
// any trailing byte, which is how a checksummed record of some other log is
// told from a WALRecord.
func TestDecodeWALRecordRejectsCorruption(t *testing.T) {
	full, err := AppendWALBody(nil, WALRecord{Client: "abc", CID: 7, Vid: 2, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(full); i++ {
		if rec, err := DecodeWALBody(full[:i]); err == nil {
			t.Fatalf("truncation at %d accepted as %+v", i, rec)
		}
	}
	if rec, err := DecodeWALBody(append(full, 0)); err == nil {
		t.Fatalf("trailing byte accepted as %+v", rec)
	}
	// An identifier length that claims more than the body holds.
	bad := append([]byte(nil), full...)
	bad[0] = 0xFF
	if rec, err := DecodeWALBody(bad); err == nil {
		t.Fatalf("oversized identifier length accepted as %+v", rec)
	}
}

// FuzzDecodeWALRecord feeds arbitrary bytes to the body decoder: it must stop
// with an error — never panic or over-allocate — on anything that is not
// exactly one record, and whatever it accepts must re-encode to the very
// bytes it was decoded from and decode again to the same record.
func FuzzDecodeWALRecord(f *testing.F) {
	var all []byte
	for _, rec := range walCorpus() {
		b, err := AppendWALBody(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(append(b[:len(b):len(b)], 0xA9))
		all = append(all, b...)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeWALBody(data)
		if err != nil {
			return
		}
		re, err := AppendWALBody(nil, rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v (%+v)", err, rec)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoding of %+v differs from the %d bytes it was decoded from", rec, len(data))
		}
		if back, err := DecodeWALBody(re); err != nil || back != rec {
			t.Fatalf("re-encoded record does not round-trip: %+v vs %+v (err %v)", back, rec, err)
		}
	})
}

// TestWALRecordIDLengthBound pins the identifier length guard: an id longer
// than the u16 length prefix can carry must be rejected at append time.
func TestWALRecordIDLengthBound(t *testing.T) {
	huge := types.ProcID(bytes.Repeat([]byte("x"), 1<<16))
	if _, err := AppendWALBody(nil, WALRecord{Client: huge}); err == nil {
		t.Fatal("oversized client id accepted")
	}
}

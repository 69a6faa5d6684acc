package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func corpus() [][]byte {
	return [][]byte{
		[]byte("a"),
		[]byte("a longer body, with \xa9 in it"),
		{},
		bytes.Repeat([]byte{0xA9}, 40),
	}
}

func frameAll(bodies [][]byte) (log []byte, bounds []int) {
	for _, body := range bodies {
		bounds = append(bounds, len(log))
		log = AppendRecord(log, body)
	}
	return log, append(bounds, len(log))
}

func sameBodies(got, want [][]byte) bool { return slices.EqualFunc(got, want, bytes.Equal) }

// TestRecordRejectsCorruption: no truncation and no single flipped bit of a
// record decodes as a record — the property the checksum exists for.
func TestRecordRejectsCorruption(t *testing.T) {
	full := AppendRecord(nil, []byte("abc\x00\x07\x02\x01"))
	if body, size, ok := decodeRecord(full); !ok || size != len(full) || !bytes.Equal(body, full[HeaderSize:]) {
		t.Fatalf("intact record: body=%q size=%d ok=%v", body, size, ok)
	}
	for i := 0; i < len(full); i++ {
		if _, _, ok := decodeRecord(full[:i]); ok {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	for i := 0; i < len(full); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[i] ^= 1 << bit
			if body, _, ok := decodeRecord(mut); ok {
				t.Fatalf("flipped bit %d of byte %d accepted as %q", bit, i, body)
			}
		}
	}
}

// TestScanWALResyncsPastDamage pins the skip-and-resync contract: damage in
// the middle of a log costs only the bytes it covers, and every record
// outside the damaged span is recovered with its offset.
func TestScanWALResyncsPastDamage(t *testing.T) {
	bodies := [][]byte{[]byte("first"), []byte("second, the one that is hit"), []byte("third")}
	log, bounds := frameAll(bodies)

	// Flip one byte inside the middle record: the scan must lose exactly
	// that record and keep the first and last.
	mut := append([]byte(nil), log...)
	mut[bounds[1]+HeaderSize+3] ^= 0x5A
	scan := ScanRecords(mut)
	if !sameBodies(scan.Records, [][]byte{bodies[0], bodies[2]}) || scan.Offsets[0] != bounds[0] || scan.Offsets[1] != bounds[2] {
		t.Fatalf("records after mid-log flip: %q at %v", scan.Records, scan.Offsets)
	}
	if len(scan.Damaged) != 1 {
		t.Fatalf("damaged ranges after mid-log flip: %+v", scan.Damaged)
	}
	if d := scan.Damaged[0]; d.Off < bounds[1] || d.End() > bounds[2] {
		t.Fatalf("damage %+v escapes the corrupted record [%d,%d)", d, bounds[1], bounds[2])
	}

	// Garbage prefix: all three records survive, damage covers the prefix.
	pre := append(bytes.Repeat([]byte{0xEE}, 13), log...)
	scan = ScanRecords(pre)
	if len(scan.Records) != 3 || len(scan.Damaged) != 1 || scan.Damaged[0] != (DamagedRange{0, 13}) {
		t.Fatalf("garbage prefix scan: records=%d damaged=%+v", len(scan.Records), scan.Damaged)
	}

	// Torn tail: the partial record is damage, everything before survives.
	torn := append(append([]byte(nil), log...), log[:HeaderSize+4]...)
	scan = ScanRecords(torn)
	if len(scan.Records) != 3 || len(scan.Damaged) != 1 || scan.Damaged[0].Off != len(log) {
		t.Fatalf("torn tail scan: records=%d damaged=%+v", len(scan.Records), scan.Damaged)
	}

	// Empty input is trivially clean.
	if scan := ScanRecords(nil); len(scan.Records) != 0 || len(scan.Damaged) != 0 {
		t.Fatalf("empty scan: %+v", scan)
	}
}

// FuzzScanWAL drives the skip-and-resync scan with arbitrary bytes: it must
// terminate, account for every input byte exactly once (records plus damage
// partition the input), every record must decode again from its reported
// offset, and what repair would write — the returned bodies framed back to
// back — must scan clean to the same bodies, so repair is idempotent by
// construction.
func FuzzScanWAL(f *testing.F) {
	log, _ := frameAll(corpus())
	f.Add(log)
	f.Add(log[3:])
	mut := append([]byte(nil), log...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)
	// A frame whose claimed length exceeds the input, then a real one.
	f.Add(append([]byte{magic, 0xFF, 0xFF, 0xFF, 0xF0, 1, 2, 3, 4, 'x'}, log...))
	// A damaged frame whose body embeds a valid frame: resync finds the
	// inner record.
	outer := AppendRecord(nil, AppendRecord([]byte("pad"), []byte("inner")))
	outer[HeaderSize] ^= 1
	f.Add(outer)
	f.Fuzz(func(t *testing.T, data []byte) {
		scan := ScanRecords(data)
		covered, di := 0, 0
		damageBefore := func(off int) {
			for ; di < len(scan.Damaged) && scan.Damaged[di].Off < off; di++ {
				if scan.Damaged[di].Off != covered {
					t.Fatalf("damage %+v starts past the %d bytes accounted for", scan.Damaged[di], covered)
				}
				covered = scan.Damaged[di].End()
			}
		}
		for i, off := range scan.Offsets {
			damageBefore(off)
			body, size, ok := decodeRecord(data[off:])
			if !ok || !bytes.Equal(body, scan.Records[i]) {
				t.Fatalf("record %d at offset %d does not re-decode (ok=%v)", i, off, ok)
			}
			if off != covered {
				t.Fatalf("record %d claims offset %d but %d bytes are accounted for", i, off, covered)
			}
			covered = off + size
		}
		damageBefore(len(data))
		if covered != len(data) {
			t.Fatalf("scan accounted for %d of %d bytes", covered, len(data))
		}

		repaired, _ := frameAll(scan.Records)
		again := ScanRecords(repaired)
		if len(again.Damaged) != 0 || !sameBodies(again.Records, scan.Records) {
			t.Fatalf("repaired bytes do not scan clean to the same records: %d damaged, %d vs %d records",
				len(again.Damaged), len(again.Records), len(scan.Records))
		}
	})
}

// TestCrashPointsEnumerated replays every crash a recorded write sequence
// can end in. The sequence is appends, one WriteSnapshot, more appends; a
// crash leaves wal.log some prefix of its final bytes, and every byte length
// is tried — so every torn final record is. Open → Load must return exactly
// the snapshot's records plus the log records wholly inside the prefix, in
// order; report at most the torn tail as damage; and leave a directory a
// second Open finds clean.
func TestCrashPointsEnumerated(t *testing.T) {
	src := t.TempDir()
	l, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	body := func(i int) []byte { return []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i%7))) }
	for i := 0; i < 5; i++ {
		if err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := [][]byte{[]byte("snap-a"), []byte("snap-b")}
	if err := l.WriteSnapshot(snapshot...); err != nil {
		t.Fatal(err)
	}
	var tail [][]byte
	for i := 5; i < 12; i++ {
		tail = append(tail, body(i))
		if err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(filepath.Join(src, LogName))
	if err != nil {
		t.Fatal(err)
	}
	want, bounds := frameAll(tail)
	if !bytes.Equal(final, want) {
		t.Fatalf("the log holds %d bytes, the appends after the snapshot frame to %d", len(final), len(want))
	}

	for cut := 0; cut <= len(final); cut++ {
		dir := filepath.Join(t.TempDir(), "crashed")
		if err := CloneDir(src, dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, LogName), final[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := 0 // records wholly inside the prefix
		for whole < len(tail) && bounds[whole+1] <= cut {
			whole++
		}
		torn := cut - bounds[whole]

		l, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		rep := l.RepairReport()
		if rep.DamagedBytes() != torn || rep.DamagedRanges() > 1 {
			t.Fatalf("cut %d: %d damaged bytes in %d ranges, want the %d-byte torn tail\n%s",
				cut, rep.DamagedBytes(), rep.DamagedRanges(), torn, rep)
		}
		snap, log, err := l.Load()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !sameBodies(snap, snapshot) || !sameBodies(log, tail[:whole]) {
			t.Fatalf("cut %d: loaded snapshot %q and log %q, want %q and %q", cut, snap, log, snapshot, tail[:whole])
		}
		// The survivor keeps working where the crash left off.
		if err := l.Append([]byte("after")); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = Open(dir)
		if err != nil {
			t.Fatalf("cut %d, second open: %v", cut, err)
		}
		if rep := l.RepairReport(); rep.Damaged() || rep.RecordsRecovered() != len(snapshot)+whole+1 {
			t.Fatalf("cut %d: second open is not clean:\n%s", cut, rep)
		}
		l.Close()
	}
}

// TestOpenRepairsOnlyWhatItDidNotCreate: Open skips the repair pass for a
// directory it created itself — under a missing parent too — and runs it
// over one that was there, which is what keeps a fresh open cheap without
// leaving an existing directory unchecked.
func TestOpenRepairsOnlyWhatItDidNotCreate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep := l.RepairReport(); rep == nil || len(rep.Files) != 0 || rep.Dir != dir {
		t.Fatalf("fresh directory reports %+v", rep)
	}
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, SnapshotName+".tmp-9"), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rep := l.RepairReport(); rep.TempsSwept != 1 || rep.RecordsRecovered() != 1 {
		t.Fatalf("existing directory was not repaired: %s", rep)
	}

	// A path that exists and is not a directory is an error, not an empty log.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file); err == nil {
		t.Fatal("Open over a regular file succeeded")
	}
}

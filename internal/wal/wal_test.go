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
		{0},
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
// record decodes as a record — the property the checksum exists for — and
// neither does the empty record, whose frame is the magic byte and zeros.
func TestRecordRejectsCorruption(t *testing.T) {
	if _, _, ok := decodeRecord(AppendRecord(nil, nil)); ok {
		t.Fatal("an empty record decoded")
	}
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Append(nil) == nil || l.WriteSnapshot([]byte("s"), nil) == nil {
		t.Fatal("the log took an empty body")
	}
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
// terminate, account for every input byte exactly once (records, damage and
// the all-zero unwritten tail partition the input), every record must decode
// again from its reported offset, and what repair would write — the returned bodies framed back to
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
	// An open log: records, a torn header, the window's zeros.
	f.Add(append(append(append([]byte(nil), log...), magic, 0, 0), make([]byte, 64)...))
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
		if covered+scan.Unwritten != len(data) {
			t.Fatalf("scan accounted for %d of %d bytes", covered+scan.Unwritten, len(data))
		}
		if len(bytes.Trim(data[covered:], "\x00")) != 0 {
			t.Fatalf("the %d-byte unwritten tail holds non-zero bytes", scan.Unwritten)
		}
		if n := len(scan.Damaged); n > 0 && scan.Damaged[n-1].End() == covered && data[covered-1] == 0 {
			t.Fatalf("damage %+v ends in a zero the unwritten tail holds", scan.Damaged[n-1])
		}

		repaired, _ := frameAll(scan.Records)
		again := ScanRecords(repaired)
		if len(again.Damaged) != 0 || !sameBodies(again.Records, scan.Records) {
			t.Fatalf("repaired bytes do not scan clean to the same records: %d damaged, %d vs %d records",
				len(again.Damaged), len(again.Records), len(scan.Records))
		}
	})
}

// crashForms are the two shapes a crash leaves wal.log in, given the bytes
// it had reached: the bare prefix (a log a write(2) appended to) and the
// prefix followed by zeros to the end of the mapped window (a process killed
// with its window mapped).
var crashForms = []struct {
	name string
	form func(prefix []byte) []byte
}{
	{"bare", func(prefix []byte) []byte { return prefix }},
	{"window", func(prefix []byte) []byte {
		b := make([]byte, windowSize)
		copy(b, prefix)
		return b
	}},
}

// TestCrashPointsEnumerated replays every crash a recorded write sequence
// can end in. The sequence is appends, one WriteSnapshot, more appends; a
// crash leaves wal.log some prefix of its final bytes, bare or followed by
// the zeros of a mapped window, and every byte length is tried in both
// forms — so every torn final record is. Open → Load must return exactly
// the snapshot's records plus the log records wholly inside the prefix, in
// order; report as damage the torn record's bytes up to its last non-zero
// one and nothing else, the zeros after them being unwritten; and leave a
// directory a second Open finds clean.
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

	for _, cf := range crashForms {
		for cut := 0; cut <= len(final); cut++ {
			dir := filepath.Join(t.TempDir(), "crashed")
			if err := CloneDir(src, dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, LogName), cf.form(final[:cut]), 0o644); err != nil {
				t.Fatal(err)
			}
			whole := 0 // records wholly inside the prefix
			for whole < len(tail) && bounds[whole+1] <= cut {
				whole++
			}
			torn := len(bytes.TrimRight(final[bounds[whole]:cut], "\x00"))

			l, err := Open(dir)
			if err != nil {
				t.Fatalf("%s cut %d: %v", cf.name, cut, err)
			}
			rep := l.RepairReport()
			if rep.DamagedBytes() != torn || rep.DamagedRanges() > 1 {
				t.Fatalf("%s cut %d: %d damaged bytes in %d ranges, want the %d-byte torn tail\n%s",
					cf.name, cut, rep.DamagedBytes(), rep.DamagedRanges(), torn, rep)
			}
			snap, log, err := l.Load()
			if err != nil {
				t.Fatalf("%s cut %d: %v", cf.name, cut, err)
			}
			if !sameBodies(snap, snapshot) || !sameBodies(log, tail[:whole]) {
				t.Fatalf("%s cut %d: loaded snapshot %q and log %q, want %q and %q", cf.name, cut, snap, log, snapshot, tail[:whole])
			}
			// The survivor keeps working where the crash left off.
			if err := l.Append([]byte("after")); err != nil {
				t.Fatalf("%s cut %d: %v", cf.name, cut, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, err = Open(dir)
			if err != nil {
				t.Fatalf("%s cut %d, second open: %v", cf.name, cut, err)
			}
			if rep := l.RepairReport(); rep.Damaged() || rep.RecordsRecovered() != len(snapshot)+whole+1 {
				t.Fatalf("%s cut %d: second open is not clean:\n%s", cf.name, cut, rep)
			}
			l.Close()
		}
	}
}

// TestScanReportsZeroTailAsUnwritten: the zeros after the last record are
// unwritten, not damage, and a torn record before them is damage only up to
// its last non-zero byte; zeros anywhere else are damage.
func TestScanReportsZeroTailAsUnwritten(t *testing.T) {
	log, bounds := frameAll(corpus())
	zeros := make([]byte, 100)
	scan := ScanRecords(append(append([]byte(nil), log...), zeros...))
	if len(scan.Records) != len(corpus()) || len(scan.Damaged) != 0 || scan.Unwritten != len(zeros) {
		t.Fatalf("records then zeros: %d records, damage %+v, %d unwritten", len(scan.Records), scan.Damaged, scan.Unwritten)
	}
	torn := append(append(append([]byte(nil), log[:bounds[1]]...), log[bounds[1]:bounds[1]+3]...), zeros...)
	scan = ScanRecords(torn)
	if len(scan.Records) != 1 || len(scan.Damaged) != 1 || scan.Damaged[0] != (DamagedRange{bounds[1], 1}) || scan.Unwritten != len(zeros)+2 {
		t.Fatalf("torn record then zeros: %d records, damage %+v, %d unwritten", len(scan.Records), scan.Damaged, scan.Unwritten)
	}
	mid := append(append(append([]byte(nil), log[:bounds[1]]...), zeros...), log[bounds[1]:]...)
	scan = ScanRecords(mid)
	if len(scan.Records) != len(corpus()) || len(scan.Damaged) != 1 || scan.Damaged[0] != (DamagedRange{bounds[1], len(zeros)}) || scan.Unwritten != 0 {
		t.Fatalf("zeros between records: %d records, damage %+v, %d unwritten", len(scan.Records), scan.Damaged, scan.Unwritten)
	}
	if scan := ScanRecords(zeros); len(scan.Records) != 0 || len(scan.Damaged) != 0 || scan.Unwritten != len(zeros) {
		t.Fatalf("all zeros: %+v", scan)
	}
}

// TestAbandonedLogReopens: a Log dropped without Close — a process killed
// with its window mapped, seen from the same process — leaves a directory
// the next Open reads whole: nothing damaged, every record loaded, the
// unwritten tail trimmed, and appends resume at the end.
func TestAbandonedLogReopens(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for i := 0; i < 50; i++ {
		bodies = append(bodies, []byte(fmt.Sprintf("abandoned-%d", i)))
		if err := l.Append(bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := l.Size()
	mapped := l.win != nil
	l = nil

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rep := l2.RepairReport()
	if rep.Damaged() || rep.RecordsRecovered() != len(bodies) {
		t.Fatalf("reopening an abandoned log:\n%s", rep)
	}
	if mapped && (len(rep.Files) != 1 || rep.Files[0].Unwritten != windowSize-int(want)) {
		t.Fatalf("the abandoned window's tail is not reported unwritten:\n%s", rep)
	}
	if l2.Size() != want {
		t.Fatalf("reopened at %d, the records end at %d", l2.Size(), want)
	}
	if err := l2.Append([]byte("resumed")); err != nil {
		t.Fatal(err)
	}
	_, log, err := l2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBodies(log, append(bodies, []byte("resumed"))) {
		t.Fatalf("loaded %d records, want the %d abandoned and the resumed one", len(log), len(bodies))
	}
}

// TestAppendPaths runs the same appends, snapshot and restart through the
// mapped window and through write(2) — the path a platform without
// fallocate, or a filesystem that refuses it, takes — and checks both read
// back the same records, that a window slide keeps every record, and that
// Close leaves wal.log exactly its records.
func TestAppendPaths(t *testing.T) {
	for _, mapped := range []bool{true, false} {
		t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !mapped {
				l.win = nil
			}
			big := bytes.Repeat([]byte{0x5A}, windowSize+100) // larger than a window
			var bodies [][]byte
			appendAll := func(n int) {
				for i := 0; i < n; i++ {
					b := []byte(fmt.Sprintf("body-%d-%s", len(bodies), bytes.Repeat([]byte("x"), i%200)))
					if i == n/2 {
						b = big
					}
					if err := l.Append(b); err != nil {
						t.Fatal(err)
					}
					bodies = append(bodies, b)
				}
			}
			appendAll(1000) // several windows' worth
			if err := l.WriteSnapshot([]byte("snap")); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(filepath.Join(dir, LogName)); err != nil || fi.Size() != 0 || l.Size() != 0 {
				t.Fatalf("after the snapshot wal.log is %v bytes (%v), the log %d", fi.Size(), err, l.Size())
			}
			bodies = nil
			appendAll(600)
			_, log, err := l.Load()
			if err != nil || !sameBodies(log, bodies) {
				t.Fatalf("open log loads %d records (%v), want %d", len(log), err, len(bodies))
			}
			size := l.Size()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(filepath.Join(dir, LogName)); err != nil || fi.Size() != size {
				t.Fatalf("closed wal.log is %v bytes (%v), its records take %d", fi.Size(), err, size)
			}
			l, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if rep := l.RepairReport(); rep.Damaged() {
				t.Fatalf("reopen found damage:\n%s", rep)
			}
			snap, log, err := l.Load()
			if err != nil || !sameBodies(snap, [][]byte{[]byte("snap")}) || !sameBodies(log, bodies) {
				t.Fatalf("reopened log loads %d records (%v), want %d", len(log), err, len(bodies))
			}
		})
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

// BenchmarkAppend times one Append of a kv_mixed Set's command size through
// the mapped window and through write(2).
func BenchmarkAppend(b *testing.B) {
	body := bytes.Repeat([]byte{'v'}, 150)
	for _, mapped := range []bool{true, false} {
		b.Run(fmt.Sprintf("mapped=%v", mapped), func(b *testing.B) {
			l, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			if !mapped {
				l.win = nil
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := l.Append(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

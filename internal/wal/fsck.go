package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vsgm/internal/obs"
)

// Mode selects what Fsck is allowed to do to a state directory.
type Mode int

const (
	// DryRun scans and reports; the directory is not touched.
	DryRun Mode = iota
	// Repair scans, quarantines damaged byte ranges to wal.quarantine,
	// rewrites each damaged file from its intact records, and trims the
	// unwritten tail off a file that has no damage.
	Repair
)

// FileReport is the Fsck result for one file of a state directory.
type FileReport struct {
	// Name is the file's base name ("wal.log" or "snapshot.bin").
	Name string `json:"name"`
	// Bytes is the file's size at scan time.
	Bytes int `json:"bytes"`
	// Records counts the records that decoded.
	Records int `json:"records"`
	// DamagedRanges counts the skipped undecodable spans.
	DamagedRanges int `json:"damaged_ranges"`
	// DamagedBytes totals the bytes those spans cover.
	DamagedBytes int `json:"damaged_bytes"`
	// Unwritten counts the zero bytes that end the file after its records:
	// the rest of the append window of a log that is open, or whose process
	// died (see Scan.Unwritten). Not damage; repair trims them.
	Unwritten int `json:"unwritten_bytes"`
	// Rewritten reports whether repair replaced the file.
	Rewritten bool `json:"rewritten"`
}

// Report is the outcome of one Fsck pass over a state directory.
type Report struct {
	// Dir is the scanned state directory.
	Dir string `json:"dir"`
	// Mode records whether the pass was allowed to repair.
	Mode Mode `json:"mode"`
	// Files holds one entry per file that existed.
	Files []FileReport `json:"files"`
	// TempsSwept counts stale temp files removed (a crash between CreateTemp
	// and the rename strands them; only repair mode sweeps).
	TempsSwept int `json:"temps_swept"`
}

// Damaged reports whether any scanned file contained undecodable bytes.
func (r *Report) Damaged() bool { return r.DamagedRanges() > 0 }

// RecordsRecovered totals the decoded records across all files.
func (r *Report) RecordsRecovered() int {
	n := 0
	for _, f := range r.Files {
		n += f.Records
	}
	return n
}

// DamagedBytes totals the quarantined byte count across all files.
func (r *Report) DamagedBytes() int {
	n := 0
	for _, f := range r.Files {
		n += f.DamagedBytes
	}
	return n
}

// DamagedRanges totals the quarantined range count across all files.
func (r *Report) DamagedRanges() int {
	n := 0
	for _, f := range r.Files {
		n += f.DamagedRanges
	}
	return n
}

// Publish adds the outcome of one state directory's repair pass (Open runs
// one) to reg's vsgm_wal_repair_* series under the caller's labels — a
// membership server's id, a shard replica's shard and process. Counters
// accumulate over the opens a registry sees, the gauge holds the latest, and
// a pass that found nothing still publishes its zeros.
func (r *Report) Publish(reg *obs.Registry, labels ...obs.Label) {
	reg.Counter("vsgm_wal_repair_damaged_ranges_total",
		"Undecodable byte ranges quarantined by the repair pass at store open.", labels...).Add(int64(r.DamagedRanges()))
	reg.Counter("vsgm_wal_repair_damaged_bytes_total",
		"Bytes those quarantined ranges covered.", labels...).Add(int64(r.DamagedBytes()))
	reg.Gauge("vsgm_wal_repair_records_recovered",
		"Records the repair pass at store open decoded across log and snapshot.", labels...).Set(int64(r.RecordsRecovered()))
	reg.Counter("vsgm_wal_repair_temps_swept_total",
		"Stale temp files removed at store open.", labels...).Add(int64(r.TempsSwept))
}

// String renders the report as one line per file.
func (r *Report) String() string {
	var b strings.Builder
	verb := "scanned"
	if r.Mode == Repair {
		verb = "repaired"
	}
	fmt.Fprintf(&b, "fsck %s %s:", verb, r.Dir)
	if len(r.Files) == 0 {
		fmt.Fprintf(&b, " no state files")
	}
	for _, f := range r.Files {
		fmt.Fprintf(&b, "\n  %-12s %7d bytes, %d records, %d damaged ranges (%d bytes)",
			f.Name, f.Bytes, f.Records, f.DamagedRanges, f.DamagedBytes)
		if f.Unwritten > 0 {
			fmt.Fprintf(&b, ", %d unwritten", f.Unwritten)
		}
		if f.Rewritten {
			fmt.Fprintf(&b, " [rewritten]")
		}
	}
	if r.TempsSwept > 0 {
		fmt.Fprintf(&b, "\n  swept %d stale temp file(s)", r.TempsSwept)
	}
	return b.String()
}

// Fsck scans (and in Repair mode, repairs) the snapshot and log of one state
// directory. It is the self-stabilizing half of restart recovery: instead of
// trusting whatever bytes the directory holds, it skip-and-resync scans both
// files, preserves every damaged byte range in wal.quarantine, rewrites a
// damaged file from its intact records, trims the unwritten tail off an
// undamaged one, sweeps stale temp files, and reports exactly what it found.
// A file no record of which decodes — one written in an earlier build's
// format, say — is quarantined whole and left empty. Run a repair only while
// no Log is open on the directory: it truncates under the open log's mapped
// window, whose next append then faults. Open runs it itself. A dry run is
// safe on a live directory and reports the open log's window as unwritten.
func Fsck(dir string, mode Mode) (*Report, error) {
	report := &Report{Dir: dir, Mode: mode}
	if mode == Repair {
		swept, err := sweepTemps(dir)
		if err != nil {
			return nil, err
		}
		report.TempsSwept = swept
	}
	for _, name := range []string{SnapshotName, LogName} {
		path := filepath.Join(dir, name)
		b, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("wal: fsck %s: %w", name, err)
		}
		scan := ScanRecords(b)
		fr := FileReport{
			Name:          name,
			Bytes:         len(b),
			Records:       len(scan.Records),
			DamagedRanges: len(scan.Damaged),
			Unwritten:     scan.Unwritten,
		}
		for _, d := range scan.Damaged {
			fr.DamagedBytes += d.Len
		}
		if mode == Repair && len(scan.Damaged) > 0 {
			if err := quarantine(dir, name, b, scan.Damaged); err != nil {
				return nil, err
			}
			var intact []byte
			for _, body := range scan.Records {
				intact = AppendRecord(intact, body)
			}
			if err := replaceFile(path, ".fsck-*", intact); err != nil {
				return nil, fmt.Errorf("wal: rewrite %s: %w", name, err)
			}
			fr.Rewritten = true
		} else if mode == Repair && scan.Unwritten > 0 {
			if err := os.Truncate(path, int64(len(b)-scan.Unwritten)); err != nil {
				return nil, fmt.Errorf("wal: trim %s: %w", name, err)
			}
		}
		report.Files = append(report.Files, fr)
	}
	return report, nil
}

// sweepTemps removes stale temp files: a crash between os.CreateTemp and the
// rename — in WriteSnapshot or in a previous repair's rewrite — strands them
// forever, and nothing else ever reads them.
func sweepTemps(dir string) (int, error) {
	swept := 0
	for _, pat := range []string{SnapshotName + ".tmp-*", SnapshotName + ".fsck-*", LogName + ".fsck-*"} {
		matches, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return swept, err
		}
		for _, m := range matches {
			if err := os.Remove(m); err != nil && !os.IsNotExist(err) {
				return swept, fmt.Errorf("wal: sweep stale temp: %w", err)
			}
			swept++
		}
	}
	return swept, nil
}

// quarantine appends each damaged byte range of file to wal.quarantine,
// every range behind a one-line header naming its origin and offsets.
func quarantine(dir, file string, b []byte, damaged []DamagedRange) error {
	f, err := os.OpenFile(filepath.Join(dir, QuarantineName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open quarantine: %w", err)
	}
	defer f.Close()
	stamp := time.Now().UTC().Format(time.RFC3339)
	for _, d := range damaged {
		_, err := fmt.Fprintf(f, "-- vsgm quarantine file=%s off=%d len=%d at=%s --\n%s\n",
			file, d.Off, d.Len, stamp, b[d.Off:d.End()])
		if err != nil {
			return fmt.Errorf("wal: write quarantine: %w", err)
		}
	}
	return f.Sync()
}

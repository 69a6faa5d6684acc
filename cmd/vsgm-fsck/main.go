// Command vsgm-fsck scans and repairs a durable state directory (wal.log +
// snapshot.bin) with the same engine wal.Open runs at every open — exposed
// standalone so an operator can inspect a suspect directory without starting
// anything, or repair one ahead of a restart. A membership server's
// directory and a shard replica's hold the same files in the same framing,
// so it serves either with no flag.
//
//	vsgm-fsck -dir state/srv0               # dry-run scan; exit 1 if damaged
//	vsgm-fsck -dir state/srv0 -mode repair  # quarantine damage, rewrite files
//	vsgm-fsck -dir state/srv0 -mode dump    # print every decodable record
//
// Dry-run never touches the directory, and is safe on a live one: the zeros
// after an open log's records are its mapped append window, reported as
// unwritten, not damaged. Repair quarantines every damaged byte range to
// wal.quarantine, rewrites both files from their intact records, trims the
// unwritten tail, and sweeps stale temp files. Run repair only while nothing
// has the directory open: it truncates under an open log's window. Exit
// status: 0 clean (or repaired), 1 damage found in dry-run, 2 usage or I/O
// error — which includes a -dir that does not exist or is not a directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vsgm/internal/wal"
	"vsgm/internal/wire"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsgm-fsck:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("vsgm-fsck", flag.ContinueOnError)
	dir := fs.String("dir", "", "state directory to scan (required)")
	mode := fs.String("mode", "dry-run", "dry-run (scan and report), repair (quarantine and rewrite), or dump (print every decodable record)")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *dir == "" {
		return 2, fmt.Errorf("-dir is required")
	}
	// A mistyped path must not read as a clean bill of health.
	if fi, err := os.Stat(*dir); err != nil {
		return 2, err
	} else if !fi.IsDir() {
		return 2, fmt.Errorf("%s is not a directory", *dir)
	}
	switch *mode {
	case "dry-run", "repair":
		m := wal.DryRun
		if *mode == "repair" {
			m = wal.Repair
		}
		report, err := wal.Fsck(*dir, m)
		if err != nil {
			return 2, err
		}
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(report); err != nil {
				return 2, err
			}
		} else {
			fmt.Fprintln(out, report.String())
		}
		if m == wal.DryRun && report.Damaged() {
			fmt.Fprintln(out, "damage found; run with -mode repair to quarantine and rewrite")
			return 1, nil
		}
		return 0, nil
	case "dump":
		return 0, dump(*dir, out)
	default:
		return 2, fmt.Errorf("unknown -mode %q (want dry-run, repair, or dump)", *mode)
	}
}

// dump prints every record the skip-and-resync scan decodes from each state
// file, with its byte offset, interleaved with the damaged ranges. A body
// that is a membership record prints as one; any other (a shard replica's
// command or snapshot) prints its length and first bytes.
func dump(dir string, out io.Writer) error {
	found := false
	for _, name := range []string{wal.SnapshotName, wal.LogName} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		found = true
		scan := wal.ScanRecords(b)
		fmt.Fprintf(out, "%s: %d bytes, %d records, %d damaged ranges\n",
			name, len(b), len(scan.Records), len(scan.Damaged))
		di := 0
		for i, body := range scan.Records {
			for ; di < len(scan.Damaged) && scan.Damaged[di].Off < scan.Offsets[i]; di++ {
				fmt.Fprintf(out, "  %8d  DAMAGED %d bytes\n", scan.Damaged[di].Off, scan.Damaged[di].Len)
			}
			if rec, err := wire.DecodeWALBody(body); err == nil {
				fmt.Fprintf(out, "  %8d  client=%s cid=%d vid=%d epoch=%d\n",
					scan.Offsets[i], rec.Client, rec.CID, rec.Vid, rec.Epoch)
			} else {
				fmt.Fprintf(out, "  %8d  %d bytes %x\n", scan.Offsets[i], len(body), body[:min(len(body), 16)])
			}
		}
		for ; di < len(scan.Damaged); di++ {
			fmt.Fprintf(out, "  %8d  DAMAGED %d bytes\n", scan.Damaged[di].Off, scan.Damaged[di].Len)
		}
		if scan.Unwritten > 0 {
			fmt.Fprintf(out, "  %8d  UNWRITTEN %d zero bytes\n", len(b)-scan.Unwritten, scan.Unwritten)
		}
	}
	if !found {
		fmt.Fprintf(out, "%s: no state files\n", dir)
	}
	return nil
}

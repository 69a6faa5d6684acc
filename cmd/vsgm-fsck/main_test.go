package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vsgm/internal/live"
	"vsgm/internal/shard"
	"vsgm/internal/types"
	"vsgm/internal/wire"
)

// TestFsckCLI is the fsck smoke test `make fsck-smoke` runs: build a state
// directory, corrupt it, and drive the CLI through dry-run, repair, and a
// clean re-open — the full operator runbook in one test.
func TestFsckCLI(t *testing.T) {
	dir := t.TempDir()
	store, err := live.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []wire.WALRecord{
		{Client: "cli0", CID: 1, Vid: 1, Epoch: 0},
		{Client: "cli1", CID: 4<<32 + 2, Vid: 7, Epoch: 4},
		{Client: "cli2", CID: 9, Vid: 3, Epoch: 1},
	}
	for _, rec := range recs {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the middle record and strand a snapshot temp file.
	walPath := filepath.Join(dir, "wal.log")
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xA5
	if err := os.WriteFile(walPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.bin.tmp-123"), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Dry-run: damage reported, exit code 1, directory untouched.
	var out strings.Builder
	code, err := run([]string{"-dir", dir}, &out)
	if err != nil || code != 1 {
		t.Fatalf("dry-run on damaged dir: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "damage found") {
		t.Fatalf("dry-run output missing damage notice:\n%s", out.String())
	}
	if after, _ := os.ReadFile(walPath); string(after) != string(b) {
		t.Fatal("dry-run modified the WAL")
	}

	// Dump: the intact records print, the damage is marked.
	out.Reset()
	if code, err := run([]string{"-dir", dir, "-mode", "dump"}, &out); err != nil || code != 0 {
		t.Fatalf("dump: code=%d err=%v", code, err)
	}
	if !strings.Contains(out.String(), "client=cli0") || !strings.Contains(out.String(), "DAMAGED") {
		t.Fatalf("dump output incomplete:\n%s", out.String())
	}

	// Repair: exit 0, quarantine written, temp swept.
	out.Reset()
	if code, err := run([]string{"-dir", dir, "-mode", "repair"}, &out); err != nil || code != 0 {
		t.Fatalf("repair: code=%d err=%v\n%s", code, err, out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.quarantine")); err != nil {
		t.Fatalf("repair left no quarantine file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.bin.tmp-123")); !os.IsNotExist(err) {
		t.Fatal("repair did not sweep the stale snapshot temp")
	}

	// A second dry-run is clean (exit 0), and a JSON report parses.
	out.Reset()
	if code, err := run([]string{"-dir", dir, "-json"}, &out); err != nil || code != 0 {
		t.Fatalf("dry-run after repair: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), `"damaged_ranges": 0`) {
		t.Fatalf("post-repair JSON report still shows damage:\n%s", out.String())
	}

	// The repaired directory re-opens and serves the surviving records.
	reopened, err := live.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	state, err := reopened.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []types.ProcID{"cli0", "cli2"} {
		if _, ok := state[p]; !ok {
			t.Errorf("record for %s lost outside the damaged span: %v", p, state)
		}
	}

	// Usage errors exit 2 via a returned error.
	if _, err := run([]string{"-mode", "repair"}, &out); err == nil {
		t.Fatal("missing -dir accepted")
	}
	if _, err := run([]string{"-dir", dir, "-mode", "bogus"}, &out); err == nil {
		t.Fatal("bogus mode accepted")
	}

	// A mistyped -dir is an error in every mode, not a clean bill of health;
	// a directory that exists and is empty is clean.
	for _, mode := range []string{"dry-run", "repair", "dump"} {
		for _, typo := range []string{filepath.Join(dir, "no-such-dir"), walPath} {
			if code, err := run([]string{"-dir", typo, "-mode", mode}, &out); err == nil || code != 2 {
				t.Fatalf("-dir %s -mode %s: code=%d err=%v, want exit 2", typo, mode, code, err)
			}
		}
	}
	if code, err := run([]string{"-dir", t.TempDir()}, &out); err != nil || code != 0 {
		t.Fatalf("empty directory: code=%d err=%v", code, err)
	}
}

// TestFsckCLIShardReplica drives the same CLI, with no flag saying so, over a
// shard replica's state directory: a flipped byte is found by dry-run (exit
// 1, directory untouched), dumped as opaque records around the damage,
// repaired, and the replica reloads as it was minus the one command.
func TestFsckCLIShardReplica(t *testing.T) {
	dir := t.TempDir()
	build := func(dir string, skip int) string {
		st, err := shard.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		m := shard.NewMachine(st)
		for i := 0; i < 10; i++ {
			if i != skip {
				m.Apply("p", shard.EncodeSet(fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i)))
			}
		}
		return m.Fingerprint()
	}
	build(dir, -1)
	const hit = 4
	walPath := filepath.Join(dir, "wal.log")
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	b[bytes.Index(b, []byte("value-4"))] ^= 0x20
	if err := os.WriteFile(walPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if code, err := run([]string{"-dir", dir}, &out); err != nil || code != 1 {
		t.Fatalf("dry-run on damaged replica dir: code=%d err=%v\n%s", code, err, out.String())
	}
	if after, _ := os.ReadFile(walPath); !bytes.Equal(after, b) {
		t.Fatal("dry-run modified the log")
	}
	out.Reset()
	if code, err := run([]string{"-dir", dir, "-mode", "dump"}, &out); err != nil || code != 0 {
		t.Fatalf("dump: code=%d err=%v", code, err)
	}
	if got := out.String(); !strings.Contains(got, "9 records, 1 damaged ranges") ||
		!strings.Contains(got, "DAMAGED") || strings.Contains(got, "client=") {
		t.Fatalf("dump of a replica directory:\n%s", got)
	}
	out.Reset()
	if code, err := run([]string{"-dir", dir, "-mode", "repair"}, &out); err != nil || code != 0 {
		t.Fatalf("repair: code=%d err=%v\n%s", code, err, out.String())
	}
	if code, err := run([]string{"-dir", dir}, &out); err != nil || code != 0 {
		t.Fatalf("dry-run after repair: code=%d err=%v\n%s", code, err, out.String())
	}

	st, err := shard.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rep := st.RepairReport(); rep.Damaged() {
		t.Fatalf("the repaired directory re-opens damaged:\n%s", rep)
	}
	m, err := shard.LoadMachine(st)
	if err != nil {
		t.Fatal(err)
	}
	if want := build(t.TempDir(), hit); m.Fingerprint() != want {
		t.Fatalf("reloaded replica is not the original minus command %d:\n%s\n%s", hit, m.Fingerprint(), want)
	}
}

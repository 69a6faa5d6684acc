package shard

import (
	"fmt"
	"os"
	"testing"
)

// TestWorldCloseReleasesStores: a world over a state directory holds a file
// open per replica store; Close releases every one of them, a second Close
// does nothing, and a world opened over the same directories finds every
// log and snapshot clean — no damage, and no unwritten tail of an append
// window left behind.
func TestWorldCloseReleasesStores(t *testing.T) {
	openFDs := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	cfg := WorldConfig{Shards: 2, Replicas: 3, Slots: 16, Seed: 7, StateDir: t.TempDir()}
	before := openFDs()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(w, 0)
	for i := 0; i < 20; i++ {
		if err := r.Set(fmt.Sprintf("k%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if open := openFDs(); open <= before {
		t.Fatalf("%d descriptors open with the world up, %d before: its stores hold no files", open, before)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if after := openFDs(); after != before {
		t.Fatalf("%d descriptors open after Close, %d before the world was built", after, before)
	}

	again, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeOnCleanup(t, again)
	for id, g := range again.groups {
		for p, st := range g.stores {
			for _, f := range st.(*FileStore).RepairReport().Files {
				if f.DamagedRanges != 0 || f.Unwritten != 0 || f.Rewritten {
					t.Errorf("shard %d %s: reopened %s is not clean: %+v", id, p, f.Name, f)
				}
			}
		}
	}
}

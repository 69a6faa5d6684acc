package main

import (
	"os"
	"time"

	"vsgm/internal/live"
	"vsgm/internal/wire"
)

// microLiveStore times the membership servers' WAL append under the default
// fsync policy. No workload runs its servers durable today; this is the
// baseline for when one does.
func microLiveStore(out metrics) error {
	dir, err := scratchDir("live-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := live.NewFileStore(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	var h hist
	const appends = 5000
	for i := 0; i < appends; i++ {
		rec := wire.WALRecord{Client: memberIDs[i%numMembers], CID: 1, Vid: 1, Epoch: int64(i)}
		began := time.Now()
		if err := store.Append(rec); err != nil {
			return err
		}
		h.add(int64(time.Since(began)))
	}
	out.set("live.store_append_us_p50", h.quantile(0.5)/1e3, "us", h.n)
	return nil
}

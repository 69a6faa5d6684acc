package main

import (
	"fmt"
	"time"

	"vsgm/internal/membership"
	"vsgm/internal/types"
)

// microDetector times the adaptive failure detector's per-heartbeat work with
// eight peers: one heartbeat from each, then a tick. Heartbeats are off in
// the benchmark's clusters; this is the baseline for when they are not.
func microDetector(budget time.Duration, out metrics) {
	const peers = 8
	self := types.ProcID("s00")
	set := types.NewProcSet(self)
	var ids []types.ProcID
	for i := 1; i <= peers; i++ {
		p := types.ProcID(fmt.Sprintf("s%02d", i))
		ids = append(ids, p)
		set.Add(p)
	}
	at := time.Unix(0, 0)
	d := membership.NewDetectorWith(self, set, 150*time.Millisecond, at, membership.DetectorConfig{})
	ns, n := perOp(budget, func() {
		at = at.Add(20 * time.Millisecond)
		for _, p := range ids {
			d.OnHeartbeatInfo(p, at, set)
		}
		d.Tick(at)
	})
	out.set("membership.detector_ns_per_heartbeat", ns/peers, "ns", int64(n)*peers)
}

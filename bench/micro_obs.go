package main

import (
	"fmt"
	"time"

	"vsgm/internal/obs"
)

// microObs times the two registry operations on the data path's margin: a
// counter increment, and a full snapshot of an idle six-node deployment.
func microObs(budget time.Duration, out metrics) error {
	c := obs.NewRegistry().Counter("bench_probe_total", "micro-driver probe")
	ns, n := perOp(budget/3, c.Inc)
	out.set("obs.counter_inc_ns", ns, "ns", int64(n))

	cluster, _, err := newLiveCluster(false, func(int) memberHooks { return memberHooks{} })
	if err != nil {
		if cluster != nil {
			within(closeDeadline, cluster.close)
		}
		return fmt.Errorf("obs probe cluster: %w", err)
	}
	var h hist
	for i := 0; i < 200; i++ {
		began := time.Now()
		cluster.reg.Snapshot()
		h.add(int64(time.Since(began)))
	}
	if !within(closeDeadline, cluster.close) {
		return fmt.Errorf("obs probe cluster did not close within %v", closeDeadline)
	}
	out.set("obs.snapshot_us", h.quantile(0.5)/1e3, "us", h.n)
	return nil
}

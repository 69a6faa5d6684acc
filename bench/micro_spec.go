package main

import (
	"math/rand"
	"time"

	"vsgm/internal/sim"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// microSpec records a trace of at least 10 000 events from a four-member
// simulator run, then times a fresh full suite checking it.
func microSpec(rng *rand.Rand, out metrics) error {
	recorder := spec.FullSuite(spec.WithTrace())
	procs := sim.ProcIDs(numMembers)
	c, err := sim.NewCluster(sim.Config{Procs: procs, Seed: rng.Int63(), Suite: recorder})
	if err != nil {
		return err
	}
	if _, _, err := c.ReconfigureTo(types.NewProcSet(procs...)); err != nil {
		return err
	}
	payload := fillPayload(rng, 256, 0)
	for i := 0; len(recorder.Trace()) < 10_000; i++ {
		if _, err := c.Send(procs[i%len(procs)], payload); err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
	}
	trace := recorder.Trace()
	const passes = 5
	began := time.Now()
	for p := 0; p < passes; p++ {
		suite := spec.FullSuite()
		for _, ev := range trace {
			suite.OnEvent(ev)
		}
		if err := suite.Err(); err != nil {
			return err
		}
	}
	events := int64(passes * len(trace))
	out.set("spec.suite_ns_per_event", float64(time.Since(began))/float64(events), "ns", events)
	return nil
}

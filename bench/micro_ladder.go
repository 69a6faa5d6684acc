package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/rsm"
	"vsgm/internal/shard"
	"vsgm/internal/sim"
	"vsgm/internal/spec"
	"vsgm/internal/totalorder"
	"vsgm/internal/types"
)

// The ladder pushes the same seeded writes through one more layer per rung,
// on the cluster shape a shard group has in the World (five processes, three
// in the view, the World's latency model). Each layer's metric is the per-op
// difference to the rung below, so the rungs add up to the top one, and the
// top one is what kv_mixed pays for a Set.
//
//	1 sim         bare simulator multicast, run to quiescence
//	2 +spec       the same with the full specification suite attached
//	3 +totalorder through a totalorder.Session per process
//	4 +rsm        through rsm.Replica with a machine that does nothing
//	5 +shard      Router.Set on a shard.World with in-memory stores
//	6 +store      the same World with FileStore appends
type ladderRung struct {
	metric string // what the step onto this rung is reported as
	run    func(writes [][2]string) (time.Duration, error)
}

// noopMachine is rung 4's state machine.
type noopMachine struct{}

func (noopMachine) Apply(types.ProcID, []byte) {}
func (noopMachine) Snapshot() []byte           { return nil }
func (noopMachine) Restore([]byte) error       { return nil }

// groupCluster builds one shard-group-shaped simulator cluster and boots its
// three-member view; attach, when set, receives every application event.
func groupCluster(seed int64, suite *spec.Suite, onEvent func(types.ProcID, core.Event)) (*sim.Cluster, []types.ProcID, error) {
	procs := shard.ShardProcs(0, kvReplicas+2)
	c, err := sim.NewCluster(sim.Config{
		Procs:           procs,
		Latency:         sim.UniformLatency{Base: 10 * time.Millisecond, Jitter: 5 * time.Millisecond},
		MembershipRound: 10 * time.Millisecond,
		Seed:            seed,
		Suite:           suite,
		OnAppEvent:      onEvent,
	})
	if err != nil {
		return nil, nil, err
	}
	return c, procs, nil
}

func boot(c *sim.Cluster, procs []types.ProcID) error {
	_, _, err := c.ReconfigureTo(types.NewProcSet(procs[:kvReplicas]...))
	return err
}

func ladder(seed int64) []ladderRung {
	simRung := func(suite func() *spec.Suite) func([][2]string) (time.Duration, error) {
		return func(writes [][2]string) (time.Duration, error) {
			c, procs, err := groupCluster(seed, suite(), nil)
			if err != nil {
				return 0, err
			}
			if err := boot(c, procs); err != nil {
				return 0, err
			}
			began := time.Now()
			for _, w := range writes {
				if _, err := c.Send(procs[0], shard.EncodeSet(w[0], w[1])); err != nil {
					return 0, err
				}
				if err := c.Run(); err != nil {
					return 0, err
				}
			}
			return time.Since(began), nil
		}
	}
	worldRung := func(files bool) func([][2]string) (time.Duration, error) {
		return func(writes [][2]string) (time.Duration, error) {
			cfg := shard.WorldConfig{Shards: kvShards, Replicas: kvReplicas, Seed: seed}
			if files {
				dir, err := scratchDir("ladder-state-*")
				if err != nil {
					return 0, err
				}
				defer os.RemoveAll(dir)
				cfg.StateDir = filepath.Join(dir, "state")
			}
			w, err := shard.NewWorld(cfg)
			if err != nil {
				return 0, err
			}
			router := shard.NewRouter(w, 0)
			began := time.Now()
			for _, wr := range writes {
				if err := router.Set(wr[0], wr[1]); err != nil {
					return 0, err
				}
			}
			took := time.Since(began)
			if err := w.Check(); err != nil {
				return 0, err
			}
			return took, nil
		}
	}
	return []ladderRung{
		{"sim.mcast_ns", simRung(func() *spec.Suite { return nil })},
		{"spec.inc_ns", simRung(func() *spec.Suite { return spec.FullSuite() })},
		{"totalorder.inc_ns", func(writes [][2]string) (time.Duration, error) {
			sessions := make(map[types.ProcID]*totalorder.Session)
			var c *sim.Cluster
			c, procs, err := groupCluster(seed, spec.FullSuite(), func(p types.ProcID, ev core.Event) {
				if s := sessions[p]; s != nil {
					_ = s.HandleEvent(ev) // a malformed frame cannot occur: only sessions send
				}
			})
			if err != nil {
				return 0, err
			}
			for _, p := range procs {
				p := p
				s, err := totalorder.New(p,
					func(b []byte) error { _, err := c.Send(p, b); return err },
					func(types.ProcID, []byte) {}, nil)
				if err != nil {
					return 0, err
				}
				sessions[p] = s
			}
			if err := boot(c, procs); err != nil {
				return 0, err
			}
			began := time.Now()
			for _, w := range writes {
				if err := sessions[procs[0]].Send(shard.EncodeSet(w[0], w[1])); err != nil {
					return 0, err
				}
				if err := c.Run(); err != nil {
					return 0, err
				}
			}
			return time.Since(began), nil
		}},
		{"rsm.inc_ns", func(writes [][2]string) (time.Duration, error) {
			replicas := make(map[types.ProcID]*rsm.Replica)
			var c *sim.Cluster
			var failed error
			c, procs, err := groupCluster(seed, spec.FullSuite(), func(p types.ProcID, ev core.Event) {
				if r := replicas[p]; r != nil {
					if err := r.HandleEvent(ev); err != nil && failed == nil {
						failed = err
					}
				}
			})
			if err != nil {
				return 0, err
			}
			for i, p := range procs {
				p := p
				r, err := rsm.NewReplica(rsm.Config{
					ID:        p,
					Machine:   noopMachine{},
					Bootstrap: i < kvReplicas,
					Quorum:    kvReplicas/2 + 1,
					Send:      func(b []byte) error { _, err := c.Send(p, b); return err },
				})
				if err != nil {
					return 0, err
				}
				replicas[p] = r
			}
			if err := boot(c, procs); err != nil {
				return 0, err
			}
			began := time.Now()
			for _, w := range writes {
				if err := replicas[procs[0]].Propose(shard.EncodeSet(w[0], w[1])); err != nil {
					return 0, err
				}
				if err := c.Run(); err != nil {
					return 0, err
				}
			}
			took := time.Since(began)
			if failed != nil {
				return 0, failed
			}
			if got := replicas[procs[1]].Applied(); got != int64(len(writes)) {
				return 0, fmt.Errorf("rsm rung: replica applied %d of %d commands", got, len(writes))
			}
			return took, nil
		}},
		{"shard.inc_ns", worldRung(false)},
		{"shard.store_inc_ns", worldRung(true)},
	}
}

// microLadder runs every rung over the writes among the first ops operations
// of the seeded kv_mixed stream and reports each step. reference runs those
// same operations as a kv_mixed pass and returns its mean Set in ns; the top
// rung must match it, and their distance is reported in percent. Everything is
// run three times, one whole round after the other, and the medians are
// compared: a rung's cost moves by a few microseconds from run to run, which
// is what a thin layer adds, and the host's speed drifts over seconds, which a
// round sees as a whole.
func microLadder(seed int64, ops int, reference func() (float64, error), out metrics) error {
	gen := newKVOps(seed)
	var stream [][2]string
	for i := 0; i < ops; i++ {
		if key, write, value := gen.next(); write {
			stream = append(stream, [2]string{key, value})
		}
	}
	writes := len(stream)
	rungs := ladder(seed)
	per := make([][]float64, len(rungs))
	var refs []float64
	for round := 0; round < 3; round++ {
		for i, rung := range rungs {
			runtime.GC() // every run starts from the same heap, not its predecessor's
			took, err := rung.run(stream)
			if err != nil {
				return fmt.Errorf("ladder %s: %w", rung.metric, err)
			}
			per[i] = append(per[i], float64(took)/float64(writes))
		}
		runtime.GC()
		ref, err := reference()
		if err != nil {
			return fmt.Errorf("ladder reference pass: %w", err)
		}
		refs = append(refs, ref)
	}
	var below float64
	for i, rung := range rungs {
		out.set(rung.metric, median(per[i])-below, "ns", int64(writes))
		below = median(per[i])
	}
	out.set("bench.ladder_top_ns", below, "ns", int64(writes))
	out.set("kv.set_mean_us", median(refs)/1e3, "us", int64(3*writes))
	out.set("bench.ladder_vs_kv_set_pct", 100*(below-median(refs))/median(refs), "%", int64(writes))
	return nil
}

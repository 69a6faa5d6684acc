package main

import (
	"os"
	"time"

	"vsgm/internal/shard"
	"vsgm/internal/types"
)

// stubBackend answers every request at once, so Router.Get against it costs
// what routing alone costs.
type stubBackend struct{ m shard.Map }

func (b stubBackend) Do(int, int64, shard.KVOp) (shard.Result, error) { return shard.Result{}, nil }
func (b stubBackend) FetchMap() (shard.Map, error)                    { return b.m, nil }

// microShard times the router alone and one durable store append.
func microShard(seed int64, budget time.Duration, out metrics) error {
	groups := make(map[int][]types.ProcID, kvShards)
	for id := 0; id < kvShards; id++ {
		groups[id] = shard.ShardProcs(id, kvReplicas)
	}
	m, err := shard.NewUniformMap(0, groups)
	if err != nil {
		return err
	}
	router := shard.NewRouter(stubBackend{m}, 0)
	ops := newKVOps(seed)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i], _, _ = ops.next()
	}
	i := 0
	ns, n := perOp(budget, func() {
		_, _, _ = router.Get(keys[i&(len(keys)-1)]) // the stub never fails
		i++
	})
	out.set("shard.route_ns_per_op", ns, "ns", int64(n))

	dir, err := scratchDir("shard-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := shard.NewFileStore(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	var h hist
	const appends = 5000
	for j := 0; j < appends; j++ {
		key, _, _ := ops.next()
		cmd := shard.EncodeSet(key, string(ops.value))
		began := time.Now()
		if err := store.AppendCommand(cmd); err != nil {
			return err
		}
		h.add(int64(time.Since(began)))
	}
	out.set("shard.store_append_us_p50", h.quantile(0.5)/1e3, "us", h.n)
	return nil
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"vsgm/internal/shard"
)

// kv_mixed: one router, single-threaded closed loop, half reads half writes,
// zipfian keys. Everything below the router runs on the in-process simulator
// fabric, so these are CPU costs with zero network wait.
const (
	kvShards   = 4
	kvReplicas = 3
	kvKeys     = 1 << 16
	kvZipfS    = 1.07
	kvValueLen = 128
)

// scratchRoot is where the benchmark keeps files it creates at run time; it
// is inside the checkout and listed in .gitignore.
const scratchRoot = "bench/out"

// scratchDir makes a fresh directory under scratchRoot.
func scratchDir(pattern string) (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchRoot, pattern)
}

// kvSegment is one World lifetime.
type kvSegment struct {
	segment
	getSum, gets int64 // summed Router.Get time (ns) and reads, timed phase
	sets         int64
	redirects    int64
}

// kvOps generates the seeded operation stream.
type kvOps struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	value []byte
	n     uint64
}

func newKVOps(seed int64) *kvOps {
	rng := rand.New(rand.NewSource(seed))
	value := make([]byte, kvValueLen)
	for i := range value {
		value[i] = 'a' + byte(rng.Intn(26))
	}
	return &kvOps{rng: rng, zipf: rand.NewZipf(rng, kvZipfS, 1, kvKeys-1), value: value}
}

// next returns the next operation; every written value is unique, so a read
// that returns anything but the last write to its key is detectable.
func (o *kvOps) next() (key string, write bool, value string) {
	o.n++
	key = fmt.Sprintf("k%05d", o.zipf.Uint64())
	if o.rng.Intn(2) == 0 {
		return key, false, ""
	}
	tag := fmt.Sprintf("%016x", o.n)
	copy(o.value, tag)
	return key, true, string(o.value)
}

// runKVSegment runs one World for warm+timed; with limitOps > 0 the timed
// phase instead ends after exactly that many operations, which lets the
// ladder push the very same writes through its rungs.
func runKVSegment(seed int64, warm, timed time.Duration, limitOps int) (*kvSegment, error) {
	g := &kvSegment{}
	g.latency = new(hist)
	began := time.Now()
	dir, err := scratchDir("kv-state-*")
	if err != nil {
		g.attempted, g.failed = 1, 1
		g.problemf("state directory: %v", err)
		return g, errStalled
	}
	defer os.RemoveAll(dir)
	w, err := shard.NewWorld(shard.WorldConfig{
		Shards: kvShards, Replicas: kvReplicas, Seed: seed, StateDir: filepath.Join(dir, "state"),
	})
	if err != nil {
		g.attempted, g.failed = 1, 1
		g.problemf("set-up: %v", err)
		return g, errStalled
	}
	router := shard.NewRouter(w, 0)
	g.setup = time.Since(began)
	before := snapshotCounters(w.Registry())

	ops := newKVOps(seed)
	model := make(map[string]string)
	var wrong int64
	run := func(d time.Duration, limit int, record bool) {
		start := time.Now()
		for n := 0; limit == 0 || n < limit; n++ {
			key, write, value := ops.next()
			t0 := time.Now()
			if limit == 0 && t0.Sub(start) >= d {
				return
			}
			g.attempted++
			if write {
				err := router.Set(key, value)
				took := time.Since(t0)
				if err != nil {
					g.failed++
					continue
				}
				model[key] = value
				if record {
					g.latency.add(int64(took))
					g.sets++
				}
				continue
			}
			got, found, err := router.Get(key)
			took := time.Since(t0)
			if err != nil {
				g.failed++
				continue
			}
			if want, ok := model[key]; ok != found || got != want {
				wrong++
			}
			if record {
				g.getSum += int64(took)
				g.gets++
			}
		}
	}
	if warm > 0 {
		run(warm, 0, false)
	}
	timedBegan := time.Now()
	run(timed, limitOps, true)
	g.seconds = time.Since(timedBegan).Seconds()
	g.done = g.sets + g.gets
	g.deltas = snapshotCounters(w.Registry()).since(before)
	g.redirects = router.Redirects()

	if wrong > 0 {
		g.failed += wrong
		g.problemf("%d reads did not return the last acknowledged write", wrong)
	}
	if err := w.VerifyAcked(); err != nil {
		g.failed++
		g.problemf("acknowledged write lost: %v", err)
	}
	if err := w.Check(); err != nil {
		g.failed++
		g.problemf("world check: %v", err)
	}
	return g, nil
}

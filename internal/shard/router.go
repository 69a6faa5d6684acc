package shard

import (
	"errors"
	"fmt"
)

// Result is the outcome of one KV operation.
type Result struct {
	Value string
	Found bool
}

// Backend is the service as the Router sees it: a request/response surface
// to the shard servers plus a way to fetch the current committed map. The
// in-process World implements it; a network client would implement it over
// the wire.
type Backend interface {
	// Do executes op against the named shard, which validates the request
	// against its committed map (epoch is advisory — stale clients are
	// corrected by ErrWrongShard, not by epoch comparison).
	Do(shard int, epoch int64, op KVOp) (Result, error)
	// FetchMap returns the current committed shard map.
	FetchMap() (Map, error)
}

// DefaultMaxRedirects bounds the wrong-shard retry loop. Each retry
// refreshes the map, so under a quiescent map one redirect suffices; the
// budget only buys headroom for maps moving underneath the client.
const DefaultMaxRedirects = 4

// Router is the client side of the sharded KV: it caches the shard map with
// its epoch, routes each key by hash slot, and on ErrWrongShard refreshes
// the map and retries, up to a bounded number of redirects.
type Router struct {
	backend      Backend
	cached       Map
	haveMap      bool
	maxRedirects int

	redirects int64
	refreshes int64
}

// NewRouter builds a router over a backend. maxRedirects <= 0 selects
// DefaultMaxRedirects.
func NewRouter(backend Backend, maxRedirects int) *Router {
	if maxRedirects <= 0 {
		maxRedirects = DefaultMaxRedirects
	}
	return &Router{backend: backend, maxRedirects: maxRedirects}
}

// Epoch returns the epoch of the cached map (0 before the first fetch).
func (r *Router) Epoch() int64 {
	if !r.haveMap {
		return 0
	}
	return r.cached.Epoch
}

// Redirects returns how many ErrWrongShard responses this router absorbed.
func (r *Router) Redirects() int64 { return r.redirects }

// Refreshes returns how many times the map was (re)fetched.
func (r *Router) Refreshes() int64 { return r.refreshes }

func (r *Router) ensureMap() error {
	if r.haveMap {
		return nil
	}
	return r.refresh()
}

func (r *Router) refresh() error {
	m, err := r.backend.FetchMap()
	if err != nil {
		return fmt.Errorf("shard: fetch map: %w", err)
	}
	r.cached = m
	r.haveMap = true
	r.refreshes++
	return nil
}

// do routes one keyed operation, absorbing wrong-shard redirects.
func (r *Router) do(key string, op KVOp) (Result, error) {
	if err := r.ensureMap(); err != nil {
		return Result{}, err
	}
	for attempt := 0; ; attempt++ {
		res, err := r.backend.Do(r.cached.ShardForKey(key), r.cached.Epoch, op)
		if !errors.Is(err, ErrWrongShard) {
			return res, err
		}
		r.redirects++
		if attempt >= r.maxRedirects {
			return Result{}, fmt.Errorf("%w (key %q, %d attempts)", ErrRedirectLoop, key, attempt+1)
		}
		if err := r.refresh(); err != nil {
			return Result{}, err
		}
	}
}

// Get reads a key.
func (r *Router) Get(key string) (string, bool, error) {
	res, err := r.do(key, KVOp{Op: "get", Key: key})
	return res.Value, res.Found, err
}

// Set writes a key. A nil error means the write was acknowledged as durably
// applied by an authoritative replica.
func (r *Router) Set(key, value string) error {
	_, err := r.do(key, KVOp{Op: "set", Key: key, Value: value})
	return err
}

// Del deletes a key. A nil error means the delete was acknowledged.
func (r *Router) Del(key string) error {
	_, err := r.do(key, KVOp{Op: "del", Key: key})
	return err
}

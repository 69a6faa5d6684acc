// Package obs is the unified observability layer: a lock-cheap metrics
// registry (counters, gauges, bounded histograms with quantile snapshots), a
// protocol trace layer that timestamps every reconfiguration's
// start_change → sync-send → sync-recv → view-install timeline per
// end-point, and an exposition surface (Prometheus text format, a JSON
// rendering of the same series, pprof) served by an opt-in debug HTTP
// listener.
//
// The registry is the one place a live node's numbers are read from. Layers
// either allocate their counters directly from a Registry (the storage *is*
// the metric) or register a collector that reads state the layer keeps
// anyway — atomics, automaton gauges — at scrape time. A collector can be
// frozen when its owner shuts down (Registry.Detach), so a closed node's
// final numbers remain scrapeable without touching the closed structs —
// which is what lets vsgm-live report on a killed server without racing its
// shutdown.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// MetricKind discriminates sample types in snapshots and exposition.
type MetricKind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter MetricKind = iota + 1
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a bounded-bucket distribution.
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing metric. Updates are a single atomic
// add; the registry lock is only taken once, at registration.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter contract to hold; the
// type does not enforce it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefLatencyBuckets are the default histogram bounds for latencies in
// seconds: 100µs up to 10s, roughly logarithmic.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a bounded-bucket distribution: a fixed set of upper bounds
// chosen at registration, one atomic count per bucket plus a running count
// and sum. Memory is constant regardless of how many observations arrive,
// and Observe is a bucket scan plus three atomic adds — cheap enough for
// per-message paths. Quantiles are estimated from the bucket counts by
// linear interpolation (the usual Prometheus-style estimate).
type Histogram struct {
	bounds  []float64      // finite upper bounds, ascending
	counts  []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough view of a histogram: counts are
// read bucket by bucket while writers may still be observing, so a snapshot
// taken mid-write can be off by the in-flight observation — fine for
// monitoring, and the reason Observe never takes a lock.
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Bounds  []float64 // finite upper bounds
	Buckets []int64   // per-bucket (non-cumulative) counts; last is +Inf
}

// Snapshot reads the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Bounds: h.bounds,
	}
	s.Buckets = make([]int64, len(h.counts))
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the p-quantile (0 < p <= 1) by linear interpolation
// inside the bucket holding the target rank. Observations in the +Inf
// bucket clamp to the largest finite bound. Returns 0 for an empty
// histogram.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	total := int64(0)
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	cum := int64(0)
	for i, c := range s.Buckets {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		if c == 0 {
			return upper
		}
		return lower + (upper-lower)*(rank-float64(cum))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Sample is one scraped value of a counter or gauge series. Collectors emit
// samples; snapshots and the Prometheus writer consume them.
type Sample struct {
	Name   string
	Kind   MetricKind
	Labels []Label
	Value  float64
}

// series is the registry's record of one registered metric.
type series struct {
	name   string
	help   string
	kind   MetricKind
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds the process's metrics. Registration (Counter, Gauge,
// Histogram, RegisterCollector) takes the registry lock;
// updates through the returned handles are lock-free atomics. A nil
// *Registry is valid everywhere and returns working (but unregistered)
// handles, so instrumented code never needs nil checks on its hot paths.
type Registry struct {
	mu         sync.RWMutex
	series     map[string]*series // canonical series key -> metric
	order      []string           // registration order of series keys
	help       map[string]string  // metric name -> help (first registration wins)
	collectors map[string]func() []Sample
	frozen     map[string][]Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series:     make(map[string]*series),
		help:       make(map[string]string),
		collectors: make(map[string]func() []Sample),
		frozen:     make(map[string][]Sample),
	}
}

// seriesKey renders the canonical identity of a series: name plus sorted
// labels. It sorts a copy, so callers' label slices are not reordered.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// register get-or-creates a series. It tolerates re-registration of the same
// key with the same kind (returning the existing metric) so restarted
// components can share a registry.
func (r *Registry) register(name, help string, kind MetricKind, labels []Label) *series {
	key := seriesKey(name, labels)
	r.mu.RLock()
	s, ok := r.series[key]
	r.mu.RUnlock()
	if ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok = r.series[key]; ok {
		return s
	}
	s = &series{name: name, help: help, kind: kind, labels: append([]Label(nil), labels...)}
	r.series[key] = s
	r.order = append(r.order, key)
	if _, ok := r.help[name]; !ok && help != "" {
		r.help[name] = help
	}
	return s
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return new(Counter)
	}
	s := r.register(name, help, KindCounter, labels)
	if s.c == nil {
		r.mu.Lock()
		if s.c == nil {
			s.c = new(Counter)
		}
		r.mu.Unlock()
	}
	return s.c
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	s := r.register(name, help, KindGauge, labels)
	if s.g == nil {
		r.mu.Lock()
		if s.g == nil {
			s.g = new(Gauge)
		}
		r.mu.Unlock()
	}
	return s.g
}

// Histogram registers (or fetches) a bounded histogram series. bounds are
// the finite ascending bucket upper bounds; nil selects DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	s := r.register(name, help, KindHistogram, labels)
	if s.h == nil {
		r.mu.Lock()
		if s.h == nil {
			s.h = newHistogram(bounds)
		}
		r.mu.Unlock()
	}
	return s.h
}

// RegisterCollector installs a scrape-time sample source under an owner key.
// The function is called on every snapshot/exposition; it should read its
// component's state under the component's own locks and return quickly. Re-registering an
// owner replaces its collector (and clears any frozen samples).
func (r *Registry) RegisterCollector(owner string, fn func() []Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors[owner] = fn
	delete(r.frozen, owner)
}

// Detach freezes an owner's collector: it is evaluated one final time and
// the cached samples are served from then on. Call it when the owning
// component shuts down, before its internals become unsafe to read; scrapes
// after that never touch the closed component. Detach is idempotent.
func (r *Registry) Detach(owner string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fn := r.collectors[owner]
	r.mu.Unlock()
	if fn == nil {
		return
	}
	// Evaluate outside the registry lock: collectors take component locks.
	samples := fn()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.collectors[owner] != nil {
		r.frozen[owner] = samples
		delete(r.collectors, owner)
	}
}

// Snapshot returns every current sample: registered counters and gauges,
// histogram series (as HistogramSample entries), and collector output (live
// or frozen). The result is sorted by name then series key, so output is
// stable across scrapes.
type Snapshot struct {
	Samples    []Sample
	Histograms []HistogramSample
}

// HistogramSample pairs a histogram series with its snapshot.
type HistogramSample struct {
	Name   string
	Labels []Label
	Snap   HistogramSnapshot
}

// Snapshot collects all samples.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	keys := append([]string(nil), r.order...)
	collectors := make([]func() []Sample, 0, len(r.collectors))
	for _, fn := range r.collectors {
		collectors = append(collectors, fn)
	}
	frozen := make([][]Sample, 0, len(r.frozen))
	for _, ss := range r.frozen {
		frozen = append(frozen, ss)
	}
	r.mu.RUnlock()

	var snap Snapshot
	for _, key := range keys {
		r.mu.RLock()
		s := r.series[key]
		r.mu.RUnlock()
		if s == nil {
			continue
		}
		switch s.kind {
		case KindCounter:
			if s.c != nil {
				snap.Samples = append(snap.Samples, Sample{Name: s.name, Kind: KindCounter, Labels: s.labels, Value: float64(s.c.Value())})
			}
		case KindGauge:
			if s.g != nil {
				snap.Samples = append(snap.Samples, Sample{Name: s.name, Kind: KindGauge, Labels: s.labels, Value: float64(s.g.Value())})
			}
		case KindHistogram:
			if s.h != nil {
				snap.Histograms = append(snap.Histograms, HistogramSample{Name: s.name, Labels: s.labels, Snap: s.h.Snapshot()})
			}
		}
	}
	for _, fn := range collectors {
		snap.Samples = append(snap.Samples, fn()...)
	}
	for _, ss := range frozen {
		snap.Samples = append(snap.Samples, ss...)
	}
	sort.SliceStable(snap.Samples, func(i, j int) bool {
		a, b := snap.Samples[i], snap.Samples[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return seriesKey(a.Name, a.Labels) < seriesKey(b.Name, b.Labels)
	})
	sort.SliceStable(snap.Histograms, func(i, j int) bool {
		a, b := snap.Histograms[i], snap.Histograms[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return seriesKey(a.Name, a.Labels) < seriesKey(b.Name, b.Labels)
	})
	return snap
}

// Help returns the registered help string for a metric name.
func (r *Registry) Help(name string) string {
	if r == nil {
		return ""
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.help[name]
}

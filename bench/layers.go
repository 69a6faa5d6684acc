package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
)

// absent is what a per-layer metric reads when the registry series behind it
// no longer exists: the benchmark keeps running, the report says so.
const absent = -1

// ratio divides two counter deltas of a pass, or reads absent.
func (p *pass) ratio(num, den string) float64 {
	n, d := p.delta(num), p.delta(den)
	if n == absent || d == absent {
		return absent
	}
	if d == 0 {
		return 0
	}
	return n / d
}

func (p *pass) delta(name string) float64 {
	v, ok := p.deltas[name]
	if !ok {
		return absent
	}
	return v
}

// tally sums attempts and failures over every pass of a traced run.
type tally struct {
	attempted, failed int64
	problems          []string
}

func (t *tally) add(p *pass) {
	t.attempted += p.attempted
	t.failed += p.failed
	for _, s := range p.problems {
		t.problems = append(t.problems, p.workload+": "+s)
	}
}

// perLayer is the traced run of one workload. It measures the workload
// untraced and traced for a quarter of seconds each, runs short reference
// passes of the workloads that light the layers this one bypasses, then every
// micro-driver, and last the default-engine probe. Every per-layer metric is
// therefore measured in every traced run; README.md says which pass each
// comes from.
func perLayer(workload string, seed int64, seconds float64) (metrics, *tally, error) {
	out := metrics{}
	sum := &tally{}
	run := func(w string, secs float64, traced bool) (*pass, error) {
		p, err := runPass(w, seed, secs, traced)
		if p != nil {
			sum.add(p)
		}
		if err != nil {
			return p, fmt.Errorf("%s pass: %w", w, err)
		}
		return p, nil
	}
	quarter := seconds / 4
	ref := min(2, quarter)
	budget := microBudget(seconds)

	untraced, err := run(workload, quarter, false)
	if err != nil {
		return out, sum, err
	}
	traced, err := run(workload, quarter, true)
	if err != nil {
		return out, sum, err
	}
	base, with := untraced.op.quantile(0.5), traced.op.quantile(0.5)
	out.set("bench.trace_overhead_pct", 100*(with-base)/base, "%", traced.done)

	// live.*: the selected workload when it runs on TCP, else mcast_stream.
	liveTraced, liveUntraced := traced, untraced
	if workload == wlKV {
		if liveUntraced, err = run(wlStream, ref/2, false); err != nil {
			return out, sum, err
		}
		if liveTraced, err = run(wlStream, ref, true); err != nil {
			return out, sum, err
		}
	}
	layerLive(liveTraced, liveUntraced, out)

	// membership.*, core.install_after_view: always churn_paced.
	churn, churnPlain := traced, untraced
	if workload != wlChurn {
		if churn, err = run(wlChurn, ref, true); err != nil {
			return out, sum, err
		}
		churnPlain = churn
	}
	layerChurn(churn, churnPlain, out)

	// The ladder, and beside it the KV reference pass: a fixed number of
	// operations, so that the ladder pushes exactly its writes through every
	// rung.
	ladderOps := int(min(20_000, max(1000, seconds*1000)))
	kv := newPass(wlKV)
	err = microLadder(seed, ladderOps, func() (float64, error) {
		g, err := runKVSegment(seed, 0, 0, ladderOps)
		kv.absorbKV(g)
		return g.latency.mean(), err
	}, out)
	sum.add(kv)
	out.set("kv.get_mean_us", float64(kv.getSum)/float64(kv.gets)/1e3, "us", kv.gets)
	out.set("shard.redirects", float64(kv.redirects), "count", kv.done)

	rng := rand.New(rand.NewSource(seed))
	microWire(rng, budget, out)
	microDetector(budget, out)
	err = errors.Join(err, microCore(rng, budget, out), microLiveStore(out), microObs(budget, out), microShard(seed, budget, out), microSpec(rng, out))
	if err != nil {
		return out, sum, fmt.Errorf("micro-driver: %w", err)
	}

	share := 0.0
	if sum.attempted > 0 {
		share = float64(sum.failed) / float64(sum.attempted)
	}
	out.set("bench.failed_share", share, "ratio", sum.attempted)

	// Last, because a wedged default engine leaves goroutines behind that
	// would disturb anything measured after it.
	engineProbe(seed, min(5, quarter), out)
	return out, sum, nil
}

// layerLive reports the transport's stages and counters from a traced pass,
// and the caller-side cost of Node.Send from an untraced one.
func layerLive(traced, untraced *pass, out metrics) {
	total, shares := traced.stages.medianShares()
	n := int64(traced.stages.len())
	for i, name := range []string{"admit", "enqueue", "transit", "pump"} {
		out.set("live."+name+"_us_p50", shares[i]/1e3, "us", n)
	}
	out.set("live.transit_us_p99", quantileOf(traced.stages.column(3), 0.99)/1e3, "us", n)
	out.set("live.pump_us_p99", quantileOf(traced.stages.column(4), 0.99)/1e3, "us", n)
	out.set("live.deliver_traced_us_p50", traced.latency.quantile(0.5)/1e3, "us", traced.latency.n)
	var sumShares float64
	for _, s := range shares {
		sumShares += s
	}
	if total > 0 {
		out.set("bench.stage_sum_err_pct", 100*(sumShares-traced.latency.quantile(0.5))/traced.latency.quantile(0.5), "%", n)
	} else {
		out.set("bench.stage_sum_err_pct", 0, "%", 0)
	}
	out.set("live.send_call_us_p50", untraced.sendCall.quantile(0.5)/1e3, "us", untraced.sendCall.n)

	out.set("pool.hit_ratio", traced.ratio("vsgm_pool_hits_total", "vsgm_pool_gets_total"), "ratio", traced.latency.n)
	out.set("live.frames_per_flush", traced.ratio("vsgm_link_frames_sent_total", "vsgm_link_flushes_total"), "ratio", traced.latency.n)
	credit := traced.delta("vsgm_link_credit_frames_total")
	if credit != absent && traced.latency.n > 0 {
		credit = credit / (float64(traced.latency.n) / 1000)
	}
	out.set("live.credit_frames_per_kmsg", credit, "ratio", traced.latency.n)
	for metricName, series := range map[string]string{
		"live.sends_blocked":    "vsgm_node_sends_blocked_total",
		"live.window_exhausted": "vsgm_link_window_exhausted_total",
		"live.queue_drops":      "vsgm_link_queue_drops_total",
		"live.reconnects":       "vsgm_link_reconnects_total",
		"live.write_errors":     "vsgm_link_write_errors_total",
	} {
		out.set(metricName, traced.delta(series), "count", traced.latency.n)
	}
}

// layerChurn reports the view-change path from a traced churn_paced pass and
// the paced traffic's own figures from plain (untraced when there is one).
func layerChurn(traced, plain *pass, out metrics) {
	total, shares := traced.viewTiles.medianShares()
	n := int64(traced.viewTiles.len())
	out.set("membership.view_notify_us_p50", shares[0]/1e3, "us", n)
	out.set("core.install_after_view_us_p50", shares[1]/1e3, "us", n)
	out.set("live.view_pump_us_p50", shares[2]/1e3, "us", n)
	median := traced.op.quantile(0.5)
	out.set("churn.viewchange_traced_us_p50", median/1e3, "us", traced.op.n)
	if total > 0 && median > 0 {
		out.set("bench.viewchange_sum_err_pct", 100*(shares[0]+shares[1]+shares[2]-median)/median, "%", n)
	} else {
		out.set("bench.viewchange_sum_err_pct", 0, "%", 0)
	}
	out.set("membership.start_change_us_p50", traced.startChange.quantile(0.5)/1e3, "us", traced.startChange.n)
	out.set("core.sync_rounds_mean", traced.syncRounds/traced.syncSpans, "count", int64(traced.syncSpans))
	out.set("membership.attempts_per_view", traced.ratio("vsgm_server_attempts_total", "vsgm_server_views_delivered_total"), "ratio", n)
	out.set("membership.single_round_ratio", traced.ratio("vsgm_reconfig_single_round_total", "vsgm_reconfigurations_total"), "ratio", n)

	// A reference pass is too short to have ten samples beyond these
	// percentiles; the sample counts printed beside them say so.
	out.set("churn.deliver_p50_us", plain.latency.quantile(0.5)/1e3, "us", plain.latency.n)
	out.set("churn.deliver_p99_us", plain.latency.quantile(0.99)/1e3, "us", plain.latency.n)
	out.set("churn.blocked_send_p95_ms", plain.gaps.quantile(0.95)/1e6, "ms", plain.gaps.n)
	out.set("bench.gen_late_p99_us", plain.late.quantile(0.99)/1e3, "us", plain.late.n)
}

// engineProbe measures mcast_stream on the shipped default transport engine
// (VSGM_REACTOR unset) in one-second segments. The gated runs pin the
// goroutine-per-link engine because the default one does not repeat run to
// run and can wedge; a wedge here is reported, never fatal.
func engineProbe(seed int64, seconds float64, out metrics) {
	os.Unsetenv("VSGM_REACTOR")
	defer os.Setenv("VSGM_REACTOR", "off")
	p := newPass(wlStream)
	wedged := 0.0
	for n := int64(0); p.seconds < seconds-1e-9 && wedged == 0; n++ {
		g, err := runMcastSegment(mcastStream, seed+n, plans[wlStream].warm, plans[wlStream].timed, false)
		p.absorb(g)
		if err != nil {
			wedged = 1
		}
	}
	out.set("live.engine_default.mcast_per_s", p.rate(), "1/s", p.done)
	out.set("live.engine_default.deliver_p50_us", p.latency.quantile(0.5)/1e3, "us", p.latency.n)
	out.set("live.engine_default.stalls", float64(p.stalls), "count", int64(p.segments))
	out.set("live.engine_default.wedged", wedged, "count", int64(p.segments))
	out.set("live.engine_default.close_s", p.closeMax.Seconds(), "s", int64(p.segments))
}

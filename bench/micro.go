package main

import (
	"math"
	"time"
)

// perOp times fn in growing batches until at least target has been spent and
// returns the mean nanoseconds per call and the calls made.
func perOp(target time.Duration, fn func()) (ns float64, n int) {
	batch := 64
	var spent time.Duration
	for spent < target {
		began := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		spent += time.Since(began)
		n += batch
		if batch < 1<<20 {
			batch *= 2
		}
	}
	return float64(spent) / float64(n), n
}

// microBudget is how long a timed micro-loop runs: at the benchmark's run
// length 150 ms, long enough to ride out a scheduler hiccup and short enough
// that all of them fit in a traced run; a smoke run gets less.
func microBudget(seconds float64) time.Duration {
	return time.Duration(min(150, max(5, seconds*7.5)) * float64(time.Millisecond))
}

// metric is one reported measurement: value, unit and the samples behind it.
type metric struct {
	value float64
	unit  string
	n     int64
}

// metrics collects measurements by name.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string, n int64) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0 // a ratio over no samples; n says so
	}
	m[name] = metric{value, unit, n}
}

// tail reports quantile q of h, scaled from nanoseconds to unit, unless fewer
// than ten samples lie beyond it.
func (m metrics) tail(name string, h *hist, q, perUnit float64, unit string) {
	if supported(h.n, q) {
		m.set(name, h.quantile(q)/perUnit, unit, h.n)
	}
}

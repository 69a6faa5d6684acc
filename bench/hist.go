package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear histogram of nanosecond durations: histSub buckets per
// power of two, so a bucket is at most 1/histSub (0.8 %) wide relative to its
// lower edge. Memory is constant whatever the sample count, which keeps the
// benchmark's own footprint out of rss_peak_mb. Not safe for concurrent use:
// every recording goroutine owns one and they are merged after the run.
type hist struct {
	counts [histOctaves * histSub]int64
	n      int64
	sum    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Octave o>0 covers [2^(o+histSubBits-1), 2^(o+histSubBits)); octave 0 is
	// the exact range [0, histSub). 36 octaves reach 2^42 ns, over an hour.
	histOctaves = 36
)

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	o := bits.Len64(uint64(v)) - histSubBits // >= 1
	if o >= histOctaves {
		return histOctaves*histSub - 1
	}
	return o*histSub + int(v>>(o-1)) - histSub
}

// histBounds returns the half-open value range [lo, hi) of bucket b.
func histBounds(b int) (lo, hi float64) {
	o, s := b/histSub, b%histSub
	if o == 0 {
		return float64(s), float64(s + 1)
	}
	w := math.Ldexp(1, o-1)
	return float64(histSub+s) * w, float64(histSub+s+1) * w
}

func (h *hist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile (0..1) in nanoseconds, interpolating
// linearly inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(b)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := histBounds(len(h.counts) - 1)
	return hi
}

// supported reports whether quantile q of n samples has at least ten samples
// beyond it; a report quotes no percentile that has not.
func supported(n int64, q float64) bool { return float64(n)*(1-q) >= 10-1e-9 }

package main

import "sort"

// tiling records, for each finished operation of a traced run, its total
// latency and the consecutive stages that add up to it exactly. Reading the
// stages off the operations around the median total answers "where did the
// median operation spend its time" with shares that sum to the median, which
// independent per-stage medians do not.
type tiling struct {
	parts int
	rows  []int64 // parts+1 values per operation: total, then each stage
}

func newTiling(parts int) *tiling { return &tiling{parts: parts} }

func (t *tiling) add(stages ...int64) {
	var total int64
	for _, s := range stages {
		total += s
	}
	t.rows = append(t.rows, total)
	t.rows = append(t.rows, stages...)
}

func (t *tiling) merge(o *tiling) { t.rows = append(t.rows, o.rows...) }

func (t *tiling) len() int { return len(t.rows) / (t.parts + 1) }

// column returns the sorted values of one column: 0 is the total, 1.. are the
// stages.
func (t *tiling) column(c int) []int64 {
	out := make([]int64, 0, t.len())
	for i := c; i < len(t.rows); i += t.parts + 1 {
		out = append(out, t.rows[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileOf interpolates the q-quantile of a sorted sample.
func quantileOf(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

// medianShares returns the mean total and the mean of every stage over the
// operations whose total lies between the 45th and 55th percentile.
func (t *tiling) medianShares() (total float64, shares []float64) {
	shares = make([]float64, t.parts)
	n := t.len()
	if n == 0 {
		return 0, shares
	}
	totals := t.column(0)
	lo, hi := quantileOf(totals, 0.45), quantileOf(totals, 0.55)
	var count float64
	for i := 0; i < len(t.rows); i += t.parts + 1 {
		if v := float64(t.rows[i]); v < lo || v > hi {
			continue
		}
		count++
		total += float64(t.rows[i])
		for p := 0; p < t.parts; p++ {
			shares[p] += float64(t.rows[i+1+p])
		}
	}
	total /= count
	for p := range shares {
		shares[p] /= count
	}
	return total, shares
}

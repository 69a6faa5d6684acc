package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistQuantilesTrackExactOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var exact []int64
	for i := 0; i < 200_000; i++ {
		// Log-normal around 100 µs with a long tail, like a delivery latency.
		v := int64(100_000 * math.Exp(rng.NormFloat64()))
		h.add(v)
		exact = append(exact, v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := quantileOf(exact, q)
		got := h.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q%.3f: histogram %.0f, exact %.0f (%.2f%% apart, buckets are 0.8%% wide)", q, got, want, 100*rel)
		}
	}
	if got, want := h.mean(), float64(h.sum)/float64(h.n); got != want {
		t.Errorf("mean %v, want %v", got, want)
	}
}

func TestHistBucketsTileTheRange(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 + 12345} {
		b := histBucket(v)
		lo, hi := histBounds(b)
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d landed in bucket %d = [%v, %v)", v, b, lo, hi)
		}
	}
	var h, other hist
	h.add(10)
	other.add(20)
	other.add(30)
	h.merge(&other)
	if h.n != 3 || h.sum != 60 {
		t.Errorf("merge: n=%d sum=%d", h.n, h.sum)
	}
}

func TestPercentilesNeedTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		q    float64
		want bool
	}{
		{19, 0.50, false},
		{20, 0.50, true}, // exactly ten beyond the median
		{99, 0.90, false},
		{100, 0.90, true},
		{199, 0.95, false},
		{200, 0.95, true}, // a run of 200 view changes supports p95, not p99
		{999, 0.99, false},
		{1000, 0.99, true},
		{9_999, 0.999, false},
		{10_000, 0.999, true},
	} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	// The report drops what is not supported.
	out := metrics{}
	var few hist
	few.add(1)
	few.add(2)
	out.tail("p99", &few, 0.99, 1, "ns")
	if _, ok := out["p99"]; ok {
		t.Error("a p99 over three samples was reported")
	}
}

func TestTilingSharesSumToTheMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tl := newTiling(3)
	for i := 0; i < 10_000; i++ {
		tl.add(int64(rng.Intn(100)), int64(1000+rng.Intn(5000)), int64(rng.ExpFloat64()*300))
	}
	total, shares := tl.medianShares()
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-total) > 1e-6*total {
		t.Errorf("shares sum to %v, band mean total is %v", sum, total)
	}
	if median := quantileOf(tl.column(0), 0.5); math.Abs(total-median)/median > 0.02 {
		t.Errorf("band mean %v strays from the median %v", total, median)
	}
}

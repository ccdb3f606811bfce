package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a tail read off fewer samples is one slow request, not a distribution.
const minBeyond = 10

// tailPercentiles are the tail candidates, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. Zero samples give 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := min(max(ceilRank(q, n), 1), n)
	return sorted[rank-1]
}

// ceilRank is ⌈q·n⌉, immune to q·n landing a rounding error above an
// integer (0.999·10000 is 9990.000000000002 in float64).
func ceilRank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tail picks the highest percentile from tailPercentiles that still has at
// least minBeyond samples above its rank, and returns that percentile and
// its value. ok is false when even the lowest candidate has fewer.
func tail(sorted []float64) (pct, value float64, ok bool) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if n-ceilRank(p/100, n) >= minBeyond {
			return p, quantile(sorted, p/100), true
		}
	}
	return 0, 0, false
}

// latencies collects request latencies. Samples are appended into a
// pre-sized slice, so recording allocates only when a run outgrows it.
type latencies struct {
	ns []int64
}

func newLatencies(capacity int) *latencies { return &latencies{ns: make([]int64, 0, capacity)} }

// add records a request sent at t0 that has just completed.
func (l *latencies) add(t0 time.Time) { l.ns = append(l.ns, int64(time.Since(t0))) }

// micros returns the samples in microseconds, sorted.
func micros(sets ...*latencies) []float64 {
	var out []float64
	for _, l := range sets {
		for _, v := range l.ns {
			out = append(out, float64(v)/1e3)
		}
	}
	slices.Sort(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// midMean is the mean of the middle tenth of sorted samples (the 45th to
// 55th percentile): a median that does not snap to the clock's resolution
// when nanosecond spans are short.
func midMean(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	lo, hi := n*45/100, (n*55+99)/100
	if hi <= lo {
		return quantile(sorted, 0.5)
	}
	return mean(sorted[lo:hi])
}

package main

import (
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {1, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
}

// TestTailKeepsTenBeyond checks that the reported tail is the highest
// candidate percentile with at least ten samples above it.
func TestTailKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
		ok      bool
	}{
		{10000, 99.9, true}, // 10 beyond p99.9
		{9999, 99, true},    // p99.9 would leave 9
		{1000, 99, true},    // exactly 10 beyond p99
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{99, 0, false},
	} {
		s := seq(c.n)
		pct, v, ok := tail(s)
		if ok != c.ok || pct != c.wantPct {
			t.Errorf("n=%d: tail pct=%v ok=%v, want %v %v", c.n, pct, ok, c.wantPct, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%v=%v has %d samples beyond it", c.n, pct, v, beyond)
		}
	}
}

func TestMidMean(t *testing.T) {
	if got := midMean(seq(100)); got < 45 || got > 56 {
		t.Errorf("midMean(1..100) = %v, want within the middle tenth", got)
	}
	if got := midMean([]float64{7}); got != 7 {
		t.Errorf("midMean([7]) = %v", got)
	}
}

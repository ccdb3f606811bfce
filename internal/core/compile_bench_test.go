package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/workload"
)

// BenchmarkCompileCold times the fault-set cache-miss path of a serving
// daemon: every op compiles a fresh 1–3 tree-edge fault set and forces its
// full component closure. The instance is the one of the serving benchmark
// and the BENCH_*.json records — det-netfind, ErdosRenyi n=1024 with mean
// degree 8, f=3 — so nearly all of the time is the Reed–Solomon syndrome
// decoder (Berlekamp–Massey and root finding). Besides ns/op it reports the
// p50 and p99 of the per-op times, because the decoder's cost is heavy-tailed
// in the cut size it has to recover.
func BenchmarkCompileCold(b *testing.B) {
	const n, f = 1024, 3
	rng := rand.New(rand.NewSource(1))
	g := workload.ErdosRenyi(n, 8/float64(n), true, rng)
	s, err := Build(g, Params{MaxFaults: f, Kind: KindDetNetFind})
	if err != nil {
		b.Fatal(err)
	}
	sets := make([][]EdgeLabel, b.N)
	for i := range sets {
		faults := workload.TreeEdgeFaults(g, s.Forest, 1+rng.Intn(f), rng)
		fl := make([]EdgeLabel, len(faults))
		for j, e := range faults {
			fl[j] = s.EdgeLabel(e)
		}
		sets[i] = fl
	}
	times := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i, fl := range sets {
		start := time.Now()
		fs, err := CompileFaults(fl)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fs.Session(); err != nil {
			b.Fatal(err)
		}
		times[i] = time.Since(start)
	}
	b.StopTimer()
	slices.Sort(times)
	b.ReportMetric(float64(times[len(times)/2].Microseconds()), "p50-us")
	b.ReportMetric(float64(times[len(times)*99/100].Microseconds()), "p99-us")
}

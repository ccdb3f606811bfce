package spanner

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

func TestSpannerPreservesConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := workload.ErdosRenyi(30+trial, 0.2, true, rng)
		workload.AssignRandomWeights(g, 50, rng)
		sp, err := BuildFT(g, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, cnt := graph.Components(sp.H, nil); cnt != 1 {
			t.Fatalf("f=0 spanner disconnected the graph")
		}
	}
}

// TestBottleneckGuarantee verifies the defining property: for any |F| ≤ f,
// bottleneck_{H−F}(u,v) ≤ (2κ−1) · bottleneck_{G−F}(u,v) for all pairs.
func TestBottleneckGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		g := workload.ErdosRenyi(24, 0.25, true, rng)
		workload.AssignRandomWeights(g, 40, rng)
		f := 1 + trial%3
		kappa := 1 + trial%2
		sp, err := BuildFT(g, f, kappa)
		if err != nil {
			t.Fatal(err)
		}
		stretch := int64(2*kappa - 1)
		for fs := 0; fs < 15; fs++ {
			faultsG := workload.RandomFaults(g, rng.Intn(f+1), rng)
			gSet := workload.FaultSet(faultsG)
			// Translate fault set into H edge indices.
			hSet := map[int]bool{}
			for _, e := range faultsG {
				if sp.SpannerEdge[e] >= 0 {
					hSet[sp.SpannerEdge[e]] = true
				}
			}
			for q := 0; q < 25; q++ {
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				bg := graph.BottleneckDistanceUnder(g, gSet, u, v)
				bh := graph.BottleneckDistanceUnder(sp.H, hSet, u, v)
				if bg == -1 {
					// u, v disconnected in G−F; H−F must agree (H ⊆ G
					// cannot connect more).
					if bh != -1 {
						t.Fatalf("H−F connects a pair G−F does not")
					}
					continue
				}
				if bh == -1 {
					t.Fatalf("trial %d: pair (%d,%d) disconnected in H−F but connected in G−F (f=%d κ=%d)",
						trial, u, v, f, kappa)
				}
				if bh > stretch*bg {
					t.Fatalf("bottleneck stretch violated: %d > %d·%d", bh, stretch, bg)
				}
			}
		}
	}
}

func TestSpannerSparsifies(t *testing.T) {
	// On a dense unweighted graph the spanner must drop a meaningful
	// fraction of edges once redundancy exceeds f+1.
	g := workload.Complete(20)
	sp, err := BuildFT(g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp.H.M() >= g.M() {
		t.Fatalf("spanner kept all %d edges of K20", g.M())
	}
	if sp.H.M() < g.N()-1 {
		t.Fatalf("spanner too sparse to span: %d edges", sp.H.M())
	}
}

func TestSpannerKeepsBridges(t *testing.T) {
	// Two triangles joined by one bridge: the bridge must be kept for any f.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	bridge, err := g.AddEdge(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f <= 3; f++ {
		sp, err := BuildFT(g, f, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !sp.InSpanner[bridge] {
			t.Fatalf("f=%d: bridge dropped", f)
		}
	}
}

func TestHigherFaultBudgetKeepsMore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workload.ErdosRenyi(25, 0.4, true, rng)
	m0, m2 := 0, 0
	if sp, err := BuildFT(g, 0, 2); err == nil {
		m0 = sp.H.M()
	} else {
		t.Fatal(err)
	}
	if sp, err := BuildFT(g, 2, 2); err == nil {
		m2 = sp.H.M()
	} else {
		t.Fatal(err)
	}
	if m2 < m0 {
		t.Fatalf("f=2 spanner (%d edges) smaller than f=0 spanner (%d edges)", m2, m0)
	}
}

func TestEdgeMappings(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := workload.ErdosRenyi(20, 0.3, true, rng)
	sp, err := BuildFT(g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for e := range g.Edges {
		if sp.InSpanner[e] != (sp.SpannerEdge[e] >= 0) {
			t.Fatalf("mapping inconsistency at edge %d", e)
		}
		if h := sp.SpannerEdge[e]; h >= 0 {
			if sp.OrigEdge[h] != e {
				t.Fatalf("OrigEdge[%d] = %d, want %d", h, sp.OrigEdge[h], e)
			}
			if sp.H.Edges[h] != g.Edges[e] {
				t.Fatalf("edge endpoints changed in spanner")
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := BuildFT(nil, 1, 2); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := BuildFT(workload.Cycle(4), -1, 2); err == nil {
		t.Fatal("negative f accepted")
	}
	if _, err := BuildFT(workload.Cycle(4), 1, 0); err == nil {
		t.Fatal("kappa=0 accepted")
	}
}

// TestKappaDoesNotChangeKeptSet pins what the package doc states: the scan
// by nondecreasing weight means every H edge already weighs ≤ w ≤ (2κ−1)·w,
// so κ never changes which edges are kept.
func TestKappaDoesNotChangeKeptSet(t *testing.T) {
	for name, g := range referenceGraphs() {
		for _, f := range []int{0, 1, 3} {
			base, err := BuildFT(g, f, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, kappa := range []int{2, 3, 7} {
				sp, err := BuildFT(g, f, kappa)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(sp.OrigEdge, base.OrigEdge) {
					t.Fatalf("%s f=%d: κ=%d keeps %d edges, κ=1 keeps %d", name, f, kappa, len(sp.OrigEdge), len(base.OrigEdge))
				}
			}
		}
	}
}

// BenchmarkSpannerBuild times BuildFT on the instance of the serving
// benchmark — ErdosRenyi n=1024 with mean degree 8, made connected — at
// the daemon's degraded-mode parameters f=3, κ=1, and reports the number
// of kept edges.
func BenchmarkSpannerBuild(b *testing.B) {
	const n, f = 1024, 3
	g := workload.ErdosRenyi(n, 8/float64(n), true, rand.New(rand.NewSource(1)))
	var kept int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := BuildFT(g, f, 1)
		if err != nil {
			b.Fatal(err)
		}
		kept = sp.H.M()
	}
	b.ReportMetric(float64(kept), "kept-edges")
}

package products

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

// graphScheme serves a bare graph with a fault budget; the degraded answers
// read nothing else from a Scheme.
type graphScheme struct {
	g *graph.Graph
	f int
}

func (s graphScheme) Graph() *graph.Graph                 { return s.g }
func (s graphScheme) MaxFaults() int                      { return s.f }
func (s graphScheme) Generation() uint64                  { return 1 }
func (s graphScheme) VertexLabel(int) core.VertexLabel    { return core.VertexLabel{} }
func (s graphScheme) EdgeLabelByIndex(int) core.EdgeLabel { return core.EdgeLabel{} }

// allPairs lists every ordered pair of vertices, s == t included.
func allPairs(n int) [][2]int {
	var pairs [][2]int
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			pairs = append(pairs, [2]int{s, t})
		}
	}
	return pairs
}

func edgeSet(edges []int) map[int]bool {
	set := map[int]bool{}
	for _, e := range edges {
		set[e] = true
	}
	return set
}

// productGraphs is an ER graph and a wheel, whose hub has degree far above
// the fault budget, so deleting it splits the rim.
func productGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"er":    workload.ErdosRenyi(40, 0.12, true, rand.New(rand.NewSource(5))),
		"wheel": workload.Wheel(24),
	}
}

// TestApproxConnectedVerticesMatchesBFS checks the component-label answers
// against a per-pair BFS on H minus the failed vertices, and checks that
// every "connected" holds in G minus them too.
func TestApproxConnectedVerticesMatchesBFS(t *testing.T) {
	for name, g := range productGraphs() {
		view := New().For(graphScheme{g, 2}, 1)
		sp, err := view.Spanner()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		pairs := allPairs(g.N())
		split := 0
		for trial := 0; trial < 12; trial++ {
			// Trial 0 deletes the wheel's hub (vertex 0) and two rim
			// vertices, which cuts the rim into two arcs; trial 1 deletes
			// the H-neighbours of a minimum-degree vertex, isolating it.
			var verts []int
			switch trial {
			case 0:
				verts = []int{0, 1 + rng.Intn(g.N()-1), 1 + rng.Intn(g.N()-1)}
			case 1:
				low := 0
				for x := range g.N() {
					if sp.H.Degree(x) < sp.H.Degree(low) {
						low = x
					}
				}
				for _, half := range sp.H.Adj(low) {
					verts = append(verts, half.To)
				}
			default:
				verts = []int{rng.Intn(g.N()), rng.Intn(g.N()), rng.Intn(g.N()), rng.Intn(g.N())}
			}
			canon := canonical(verts)
			got, err := view.ApproxConnectedVertices(canon, pairs, nil)
			if err != nil {
				t.Fatal(err)
			}
			hFaults := edgeSet(VertexFaultEdges(sp.H, canon))
			gFaults := edgeSet(VertexFaultEdges(g, canon))
			for i, p := range pairs {
				s, u := p[0], p[1]
				dead := HasVertex(canon, s) || HasVertex(canon, u)
				want := !dead && graph.ConnectedUnder(sp.H, hFaults, s, u)
				if got[i] != want {
					t.Fatalf("%s %v: pair (%d,%d) = %v, BFS on H − F says %v", name, canon, s, u, got[i], want)
				}
				if got[i] && !graph.ConnectedUnder(g, gFaults, s, u) {
					t.Fatalf("%s %v: pair (%d,%d) connected in H − F but not in G − F", name, canon, s, u)
				}
				if !dead && !want {
					split++
				}
			}
		}
		if split == 0 {
			t.Fatalf("%s: no live pair was split; the test exercises nothing", name)
		}
	}
}

// TestApproxConnectedEdgesMatchesBFS is the edge-fault counterpart: fault
// sets far over the budget, including every H edge at one vertex, against
// a per-pair BFS on H − F and against G − F.
func TestApproxConnectedEdgesMatchesBFS(t *testing.T) {
	for name, g := range productGraphs() {
		view := New().For(graphScheme{g, 2}, 1)
		sp, err := view.Spanner()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		pairs := allPairs(g.N())
		split := 0
		for trial := 0; trial < 12; trial++ {
			faults := workload.RandomFaults(g, 4+rng.Intn(g.M()/4), rng)
			// Isolate one vertex in H as well, so some pair is cut.
			iso := rng.Intn(g.N())
			for _, half := range sp.H.Adj(iso) {
				faults = append(faults, sp.OrigEdge[half.Edge])
			}
			got, err := view.ApproxConnectedEdges(faults, pairs, nil)
			if err != nil {
				t.Fatal(err)
			}
			gFaults := edgeSet(faults)
			hFaults := map[int]bool{}
			for _, e := range faults {
				if he := sp.SpannerEdge[e]; he >= 0 {
					hFaults[he] = true
				}
			}
			for i, p := range pairs {
				s, u := p[0], p[1]
				want := graph.ConnectedUnder(sp.H, hFaults, s, u)
				if got[i] != want {
					t.Fatalf("%s: pair (%d,%d) = %v, BFS on H − F says %v", name, s, u, got[i], want)
				}
				if got[i] && !graph.ConnectedUnder(g, gFaults, s, u) {
					t.Fatalf("%s: pair (%d,%d) connected in H − F but not in G − F", name, s, u)
				}
				if !want {
					split++
				}
			}
		}
		if split == 0 {
			t.Fatalf("%s: no pair was split; the test exercises nothing", name)
		}
	}
}

// TestApproxConnectedConcurrent runs degraded requests with different
// fault sets at once: each must get its own labeling from the pool.
func TestApproxConnectedConcurrent(t *testing.T) {
	g := workload.Wheel(24)
	view := New().For(graphScheme{g, 2}, 1)
	pairs := allPairs(g.N())
	sets := [][]int{{0, 5, 17}, {3}, {0, 1, 12}, {2, 9}}
	want := make([][]bool, len(sets))
	for i, set := range sets {
		var err error
		if want[i], err = view.ApproxConnectedVertices(set, pairs, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []bool
			for r := 0; r < 50; r++ {
				i := (w + r) % len(sets)
				out, _ = view.ApproxConnectedVertices(sets[i], pairs, out[:0])
				for j := range out {
					if out[j] != want[i][j] {
						t.Errorf("set %v pair %v: concurrent answer %v, alone %v", sets[i], pairs[j], out[j], want[i][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// canonical sorts and deduplicates a vertex list.
func canonical(verts []int) []int {
	slices.Sort(verts)
	return slices.Compact(verts)
}

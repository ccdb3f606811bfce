package spanner

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// buildFTReference is the original greedy: every edge runs the one-sided
// augmenting search under the (2κ−1)·w weight limit, with no degree
// cut-off. It is kept as the oracle for BuildFT.
func buildFTReference(g *graph.Graph, f, kappa int) *Spanner {
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := g.Weight(order[a]), g.Weight(order[b])
		if wa != wb {
			return wa < wb
		}
		return order[a] < order[b]
	})
	sp := &Spanner{
		H:           graph.New(g.N()),
		InSpanner:   make([]bool, g.M()),
		SpannerEdge: make([]int, g.M()),
		Kappa:       kappa,
		MaxFaults:   f,
	}
	for i := range sp.SpannerEdge {
		sp.SpannerEdge[i] = -1
	}
	stretch := int64(2*kappa - 1)
	for _, e := range order {
		edge := g.Edges[e]
		w := g.Weight(e)
		if edgeDisjointPathsReference(sp.H, edge.U, edge.V, w*stretch, f+1) >= f+1 {
			continue
		}
		hIdx, err := sp.H.AddWeightedEdge(edge.U, edge.V, w)
		if err != nil {
			panic(err)
		}
		sp.InSpanner[e] = true
		sp.SpannerEdge[e] = hIdx
		sp.OrigEdge = append(sp.OrigEdge, e)
	}
	return sp
}

// edgeDisjointPathsReference returns min(maxPaths, max edge-disjoint u–v
// paths) in the subgraph of h restricted to edges of weight ≤ limit, via
// unit-capacity augmenting BFS from u.
func edgeDisjointPathsReference(h *graph.Graph, u, v int, limit int64, maxPaths int) int {
	if u == v {
		return maxPaths
	}
	used := make([]int8, h.M())
	flow := 0
	prevEdge := make([]int32, h.N())
	prevDir := make([]int8, h.N())
	for flow < maxPaths {
		for i := range prevEdge {
			prevEdge[i] = -1
		}
		prevEdge[u] = -2
		queue := []int{u}
		found := false
	bfs:
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, half := range h.Adj(x) {
				if h.Weight(half.Edge) > limit {
					continue
				}
				e := h.Edges[half.Edge]
				dir := int8(1)
				if x == e.V {
					dir = -1
				}
				if used[half.Edge] == dir {
					continue
				}
				y := half.To
				if prevEdge[y] != -1 {
					continue
				}
				prevEdge[y] = int32(half.Edge)
				prevDir[y] = dir
				if y == v {
					found = true
					break bfs
				}
				queue = append(queue, y)
			}
		}
		if !found {
			break
		}
		x := v
		for x != u {
			e := int(prevEdge[x])
			dir := prevDir[x]
			if used[e] == -dir {
				used[e] = 0
			} else {
				used[e] = dir
			}
			if dir == 1 {
				x = h.Edges[e].U
			} else {
				x = h.Edges[e].V
			}
		}
		flow++
	}
	return flow
}

// referenceGraphs is one graph of every family the repository generates,
// each unweighted and with random weights. Wheel's hub has degree far
// above any f tested, and Barbell's path edges are bridges.
func referenceGraphs() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(14))
	base := map[string]*graph.Graph{
		"er":       workload.ErdosRenyi(60, 0.15, true, rng),
		"grid":     workload.Grid(7, 6),
		"powerlaw": workload.PowerLawCluster(60, 3, 0.4, rng),
		"fattree":  workload.FatTree(4),
		"as":       workload.ASGraph(60, 2, 0.5, rng),
		"complete": workload.Complete(14),
		"wheel":    workload.Wheel(30),
		"barbell":  workload.Barbell(7, 3),
	}
	out := map[string]*graph.Graph{}
	for name, g := range base {
		out[name] = g
		w := g.Clone()
		workload.AssignRandomWeights(w, 20, rng)
		out[name+"-weighted"] = w
	}
	return out
}

// TestBuildFTMatchesReference checks that BuildFT keeps exactly the edges
// the original one-sided greedy keeps, in the same order, on every graph
// family, weighted and unweighted, across fault budgets and κ.
func TestBuildFTMatchesReference(t *testing.T) {
	for name, g := range referenceGraphs() {
		for _, f := range []int{0, 1, 2, 3, 5, 8} {
			for _, kappa := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/f=%d/k=%d", name, f, kappa), func(t *testing.T) {
					got, err := BuildFT(g, f, kappa)
					if err != nil {
						t.Fatal(err)
					}
					want := buildFTReference(g, f, kappa)
					if !slices.Equal(got.OrigEdge, want.OrigEdge) {
						t.Fatalf("OrigEdge differs: got %d edges, reference %d", len(got.OrigEdge), len(want.OrigEdge))
					}
					if !slices.Equal(got.SpannerEdge, want.SpannerEdge) {
						t.Fatal("SpannerEdge differs from the reference")
					}
					if !slices.Equal(got.InSpanner, want.InSpanner) {
						t.Fatal("InSpanner differs from the reference")
					}
				})
			}
		}
	}
}

// Package spanner builds f-fault-tolerant bottleneck spanners: sparse
// subgraphs H ⊆ G such that for every fault set F with |F| ≤ f and every
// vertex pair, the bottleneck (minimax edge weight) distance in H − F is at
// most (2κ−1) times the bottleneck distance in G − F.
//
// This is the substrate for the Corollary 1 distance-labeling reduction (see
// DESIGN.md §3.5): the paper defers the reduction's formalism to Dory–Parter
// and consumes the FTC scheme as a black box; our reduction runs the FTC
// scheme over weight-threshold subgraphs of this spanner.
//
// The construction is the fault-tolerant greedy: scan edges by increasing
// weight and add (u, v, w) unless H already contains f+1 edge-disjoint u–v
// paths using only edges of weight ≤ (2κ−1)·w. Skipped edges therefore
// survive any f faults via a detour of bottleneck ≤ (2κ−1)·w, and the
// guarantee composes edge by edge along any G − F path.
//
// Because the scan is by nondecreasing weight, every edge already in H
// weighs at most w, so the (2κ−1)·w threshold never excludes one: the kept
// set is the same for every κ, and each skipped edge has its f+1 detours at
// bottleneck ≤ w. The bottleneck guarantee therefore holds with stretch 1;
// (2κ−1) remains the stated worst-case bound, and κ stays a parameter.
package spanner

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Spanner is the result of BuildFT.
type Spanner struct {
	// H is the spanner subgraph. Vertex ids match g; H's edge indices are
	// its own — use OrigEdge / InSpanner to translate.
	H *graph.Graph
	// InSpanner[e] reports whether g's edge e was kept.
	InSpanner []bool
	// OrigEdge[i] is the g edge index of H's edge i.
	OrigEdge []int
	// SpannerEdge[e] is the H edge index of g's edge e, or -1.
	SpannerEdge []int
	// Kappa and MaxFaults echo the construction parameters.
	Kappa, MaxFaults int
}

// BuildFT constructs an f-fault-tolerant (2κ−1)-bottleneck spanner of g.
// κ ≥ 1. The weight-ordered scan makes κ moot: the kept set is identical
// for every κ, and it satisfies the bottleneck guarantee with stretch 1
// (see the package doc). An edge is kept unless H already holds f+1
// edge-disjoint paths between its endpoints; an endpoint of H-degree ≤ f
// decides that without a search, otherwise a bidirectional augmenting
// search counts the paths. Runs in O(m·(f+1)·(n+m)) time.
func BuildFT(g *graph.Graph, f, kappa int) (*Spanner, error) {
	if g == nil {
		return nil, fmt.Errorf("spanner: nil graph")
	}
	if f < 0 || kappa < 1 {
		return nil, fmt.Errorf("spanner: invalid parameters f=%d kappa=%d", f, kappa)
	}
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
	fl := newFlow(g.N())
	for _, e := range order {
		edge := g.Edges[e]
		// λ_H(u,v) ≤ min degree, so a low-degree endpoint means keep.
		if sp.H.Degree(edge.U) > f && sp.H.Degree(edge.V) > f &&
			fl.disjointPaths(sp.H, edge.U, edge.V, f+1) >= f+1 {
			continue
		}
		hIdx, err := sp.H.AddWeightedEdge(edge.U, edge.V, g.Weight(e))
		if err != nil {
			return nil, fmt.Errorf("spanner: adding kept edge: %w", err)
		}
		sp.InSpanner[e] = true
		sp.SpannerEdge[e] = hIdx
		sp.OrigEdge = append(sp.OrigEdge, e)
	}
	return sp, nil
}

// flow is the unit-capacity max-flow scratch reused across one BuildFT
// scan. used[e] is the residual state of H's edge e (0 unused, +1 carrying
// flow e.U→e.V, −1 carrying e.V→e.U); markF/markB hold the round stamp of
// the forward (from u) and backward (from v) search, so no mark is cleared
// between rounds; parF[x] / parB[x] is the edge that reached x from u's /
// v's side.
type flow struct {
	used         []int8
	markF, markB []uint32
	stamp        uint32
	parF, parB   []int32
	qF, qB       []int32
}

func newFlow(n int) *flow {
	return &flow{
		markF: make([]uint32, n), markB: make([]uint32, n),
		parF: make([]int32, n), parB: make([]int32, n),
		qF: make([]int32, 0, n), qB: make([]int32, 0, n),
	}
}

// arcDir is the residual direction of traversing edge e out of x: +1 when
// x is e.U, −1 otherwise.
func arcDir(e graph.Edge, x int) int8 {
	if x == e.U {
		return 1
	}
	return -1
}

// push sends one unit along edge e out of x, cancelling flow the other way.
func (fl *flow) push(h *graph.Graph, e int32, x int) {
	d := arcDir(h.Edges[e], x)
	if fl.used[e] == -d {
		fl.used[e] = 0
	} else {
		fl.used[e] = d
	}
}

// disjointPaths returns min(maxPaths, λ_H(u,v)), the number of
// edge-disjoint u–v paths in h, by Ford–Fulkerson with unit capacities.
// Each round is a bidirectional BFS over the residual graph that grows the
// side with the smaller frontier one layer at a time and stops at the
// first edge joining the two sides; it ends when either side runs dry.
func (fl *flow) disjointPaths(h *graph.Graph, u, v, maxPaths int) int {
	if u == v {
		return maxPaths
	}
	fl.used = slices.Grow(fl.used[:0], h.M())[:h.M()]
	clear(fl.used)
	paths := 0
	for paths < maxPaths && fl.augment(h, u, v) {
		paths++
	}
	return paths
}

// augment runs one round: it searches for a residual u–v path and, if one
// exists, pushes a unit of flow along it.
func (fl *flow) augment(h *graph.Graph, u, v int) bool {
	fl.stamp++
	if fl.stamp == 0 {
		clear(fl.markF)
		clear(fl.markB)
		fl.stamp = 1
	}
	s := fl.stamp
	fl.markF[u], fl.markB[v] = s, s
	fl.qF = append(fl.qF[:0], int32(u))
	fl.qB = append(fl.qB[:0], int32(v))
	headF, headB := 0, 0
	// The joining edge runs x→y, x on u's side and y on v's side.
	x, y, join := -1, -1, int32(-1)
search:
	for headF < len(fl.qF) && headB < len(fl.qB) {
		if len(fl.qF)-headF <= len(fl.qB)-headB {
			end := len(fl.qF)
			for ; headF < end; headF++ {
				a := int(fl.qF[headF])
				for _, half := range h.Adj(a) {
					b := half.To
					if fl.markF[b] == s || fl.used[half.Edge] == arcDir(h.Edges[half.Edge], a) {
						continue
					}
					if fl.markB[b] == s {
						x, y, join = a, b, int32(half.Edge)
						break search
					}
					fl.markF[b] = s
					fl.parF[b] = int32(half.Edge)
					fl.qF = append(fl.qF, int32(b))
				}
			}
		} else {
			end := len(fl.qB)
			for ; headB < end; headB++ {
				a := int(fl.qB[headB])
				for _, half := range h.Adj(a) {
					b := half.To
					// The residual arc must run b→a, into the frontier.
					if fl.markB[b] == s || fl.used[half.Edge] == arcDir(h.Edges[half.Edge], b) {
						continue
					}
					if fl.markF[b] == s {
						x, y, join = b, a, int32(half.Edge)
						break search
					}
					fl.markB[b] = s
					fl.parB[b] = int32(half.Edge)
					fl.qB = append(fl.qB, int32(b))
				}
			}
		}
	}
	if join < 0 {
		return false
	}
	fl.push(h, join, x)
	for x != u {
		e := fl.parF[x]
		p := h.Edges[e].Other(x)
		fl.push(h, e, p)
		x = p
	}
	for y != v {
		e := fl.parB[y]
		fl.push(h, e, y)
		y = h.Edges[e].Other(y)
	}
	return true
}

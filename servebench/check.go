package main

import (
	"fmt"

	"repro/internal/graph"
)

// truth is the ground truth for one fault set on one graph: the component
// of every vertex in G − F, and the failed vertex for a vertex fault (-1
// for edge faults). It is computed by BFS, never by the labels.
type truth struct {
	comp   []int32
	dead   int
	faults map[int]bool // faulted edge indices of the graph it was computed on
}

func newTruth(g *graph.Graph, faults map[int]bool, dead int) *truth {
	comp, _ := graph.Components(g, faults)
	t := &truth{comp: make([]int32, len(comp)), dead: dead, faults: faults}
	for i, c := range comp {
		t.comp[i] = int32(c)
	}
	return t
}

func edgeTruth(g *graph.Graph, edges []int) *truth {
	f := make(map[int]bool, len(edges))
	for _, e := range edges {
		f[e] = true
	}
	return newTruth(g, f, -1)
}

// vertexTruth is the truth for failed vertex v: all its incident edges
// fail, and v itself connects to nothing.
func vertexTruth(g *graph.Graph, v int) *truth {
	f := map[int]bool{}
	for _, h := range g.Adj(v) {
		f[h.Edge] = true
	}
	return newTruth(g, f, v)
}

func (t *truth) connected(s, u int) bool {
	if s == t.dead || u == t.dead {
		return false
	}
	return t.comp[s] == t.comp[u]
}

// checkConnected compares a batch of connectivity answers with the truth.
// An exact answer must equal it. An approx answer (degraded mode) must be
// one-sided: "connected" only where G − F connects the pair.
func checkConnected(t *truth, pairs [][2]int, got []bool, approx bool) error {
	if len(got) != len(pairs) {
		return fmt.Errorf("%d answers for %d pairs", len(got), len(pairs))
	}
	for i, p := range pairs {
		want := t.connected(p[0], p[1])
		if got[i] == want || (approx && !got[i]) {
			continue
		}
		return fmt.Errorf("pair (%d,%d): answered connected=%v approx=%v, G−F says %v", p[0], p[1], got[i], approx, want)
	}
	return nil
}

// checkRoutes replays each returned route on g: it must start at s, end at
// t, and use only edges of g − F. An unreachable answer must agree with the
// truth, except in degraded mode, where it may under-report.
func checkRoutes(g *graph.Graph, t *truth, pairs [][2]int, reach []bool, paths [][]int, approx bool) error {
	if len(reach) != len(pairs) || len(paths) != len(pairs) {
		return fmt.Errorf("%d/%d route legs for %d pairs", len(reach), len(paths), len(pairs))
	}
	for i, p := range pairs {
		want := t.connected(p[0], p[1])
		if !reach[i] {
			if want && !approx {
				return fmt.Errorf("pair (%d,%d): answered unreachable, G−F connects it", p[0], p[1])
			}
			continue
		}
		if err := replayRoute(g, t.faults, p[0], p[1], paths[i]); err != nil {
			return fmt.Errorf("pair (%d,%d): %w", p[0], p[1], err)
		}
	}
	return nil
}

func replayRoute(g *graph.Graph, faults map[int]bool, s, u int, path []int) error {
	if len(path) == 0 || path[0] != s || path[len(path)-1] != u {
		return fmt.Errorf("route %v does not run from %d to %d", path, s, u)
	}
	for h := 1; h < len(path); h++ {
		e := g.EdgeIndex(path[h-1], path[h])
		if e < 0 {
			return fmt.Errorf("hop %d (%d,%d) is not an edge", h, path[h-1], path[h])
		}
		if faults[e] {
			return fmt.Errorf("hop %d (%d,%d) crosses a failed edge", h, path[h-1], path[h])
		}
	}
	return nil
}

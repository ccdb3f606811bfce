package main

import (
	"testing"

	"repro/internal/graph"
)

// path4 is 0-1-2-3 plus the chord 0-2.
func path4(t *testing.T) *graph.Graph {
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestCheckConnectedRejectsPlantedWrongAnswer(t *testing.T) {
	g := path4(t)
	tr := edgeTruth(g, []int{2}) // cut 2-3: vertex 3 is isolated
	pairs := [][2]int{{0, 1}, {1, 3}, {3, 3}}
	if err := checkConnected(tr, pairs, []bool{true, false, true}, false); err != nil {
		t.Fatalf("correct answers rejected: %v", err)
	}
	if err := checkConnected(tr, pairs, []bool{true, true, true}, false); err == nil {
		t.Fatal("planted wrong answer (1,3 connected) accepted")
	}
	// Degraded answers may under-report but never over-report.
	if err := checkConnected(tr, pairs, []bool{false, false, true}, true); err != nil {
		t.Fatalf("one-sided approx answer rejected: %v", err)
	}
	if err := checkConnected(tr, pairs, []bool{true, true, true}, true); err == nil {
		t.Fatal("approx answer claiming a cut pair connected accepted")
	}
}

func TestVertexTruthKillsTheVertex(t *testing.T) {
	tr := vertexTruth(path4(t), 2)
	if tr.connected(2, 2) || tr.connected(0, 2) || tr.connected(1, 3) {
		t.Fatal("failed vertex 2 still connects")
	}
	if !tr.connected(0, 1) {
		t.Fatal("0-1 should survive the loss of vertex 2")
	}
}

func TestCheckRoutesReplaysEveryHop(t *testing.T) {
	g := path4(t)
	tr := edgeTruth(g, []int{1}) // cut 1-2; 0-2 remains
	pairs := [][2]int{{1, 3}}
	ok := [][]int{{1, 0, 2, 3}}
	if err := checkRoutes(g, tr, pairs, []bool{true}, ok, false); err != nil {
		t.Fatalf("valid route rejected: %v", err)
	}
	for name, path := range map[string][]int{
		"crosses the failed edge": {1, 2, 3},
		"uses a non-edge":         {1, 3},
		"ends elsewhere":          {1, 0, 2},
	} {
		if err := checkRoutes(g, tr, pairs, []bool{true}, [][]int{path}, false); err == nil {
			t.Errorf("route that %s accepted", name)
		}
	}
	if err := checkRoutes(g, tr, pairs, []bool{false}, [][]int{nil}, false); err == nil {
		t.Error("exact 'unreachable' for a connected pair accepted")
	}
	if err := checkRoutes(g, tr, pairs, []bool{false}, [][]int{nil}, true); err != nil {
		t.Errorf("approx 'unreachable' rejected: %v", err)
	}
}

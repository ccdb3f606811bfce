package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	ftc "repro"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/workload"
)

// The instance every record of this repository uses: an Erdős–Rényi graph
// with n = 1024 and mean degree 8, made connected, labeled by the
// deterministic scheme with fault budget f = 3.
const (
	instN      = 1024
	instDegree = 8
	instF      = 3
	batchPairs = 16  // s–t pairs per request
	edgePoolN  = 256 // recurring edge-fault sets
	vertPoolN  = 64  // recurring single-vertex fault sets
	pairTableN = 1024
	opTableN   = 4096
)

// Products a request can ask for.
const (
	opConnected = iota
	opRoute
	opVConnected
	nOps
)

var opNames = [nOps]string{"connected", "route", "vconnected"}

// instance is the seeded input of one run. The daemon receives only the
// graph or snapshot file written here and the requests built from the
// pools; everything else stays in the benchmark.
type instance struct {
	seed      int64
	g         *graph.Graph
	graphPath string
	snapPath  string
	snapBytes []byte

	edgePool  [][]int // canonical (ascending) edge indices, 1–3 tree edges each
	vertPool  [][]int // one vertex each
	edgeTruth []*truth
	vertTruth []*truth
}

// subRand derives an independent generator for one named stream of a run,
// so adding a stream never shifts the inputs of another.
func subRand(seed int64, stream string) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ 0xD6E8FEB86659FD93
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// newInstance generates the graph and pools for seed, writes the graph and
// its snapshot under dir, and computes the ground truth for every pooled
// fault set.
func newInstance(seed int64, dir string) (*instance, error) {
	g := workload.ErdosRenyi(instN, instDegree/float64(instN), true, subRand(seed, "graph"))
	in := &instance{seed: seed, g: g}

	var gbuf bytes.Buffer
	if err := graphio.WriteGraph(&gbuf, g); err != nil {
		return nil, fmt.Errorf("write graph: %w", err)
	}
	in.graphPath = filepath.Join(dir, "graph.txt")
	if err := os.WriteFile(in.graphPath, gbuf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	sch, err := ftc.NewFromGraph(g, ftc.WithMaxFaults(instF), ftc.WithDeterministic())
	if err != nil {
		return nil, fmt.Errorf("build scheme: %w", err)
	}
	var sbuf bytes.Buffer
	if err := sch.Save(&sbuf); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	in.snapBytes = sbuf.Bytes()
	in.snapPath = filepath.Join(dir, "scheme.ftcsnap")
	if err := os.WriteFile(in.snapPath, in.snapBytes, 0o644); err != nil {
		return nil, err
	}

	forest := graph.SpanningForest(g)
	rng := subRand(seed, "pool")
	for range edgePoolN {
		fs := canon(workload.TreeEdgeFaults(g, forest, 1+rng.Intn(instF), rng))
		in.edgePool = append(in.edgePool, fs)
		in.edgeTruth = append(in.edgeTruth, edgeTruth(g, fs))
	}
	for _, v := range rng.Perm(instN)[:vertPoolN] {
		in.vertPool = append(in.vertPool, []int{v})
		in.vertTruth = append(in.vertTruth, vertexTruth(g, v))
	}
	return in, nil
}

// canon sorts and deduplicates fault indices in place.
func canon(xs []int) []int {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// pairTable returns pairTableN batches of random s–t pairs.
func pairTable(rng *rand.Rand) [][][2]int {
	t := make([][][2]int, pairTableN)
	for i := range t {
		t[i] = make([][2]int, batchPairs)
		for j := range t[i] {
			t[i][j] = [2]int{rng.Intn(instN), rng.Intn(instN)}
		}
	}
	return t
}

// touchPairs covers every vertex once: probing them makes the daemon
// decode every vertex label.
func touchPairs() [][2]int {
	out := make([][2]int, 0, instN/2)
	for v := 0; v+1 < instN; v += 2 {
		out = append(out, [2]int{v, v + 1})
	}
	return out
}

// op is one request of a recurring-pool stream.
type op struct {
	kind  int // opConnected, opRoute or opVConnected
	pool  int // index into the edge or vertex pool
	pairs int // index into the pair table
}

// mixTable draws opTableN requests with the given per-mille shares of
// route and vconnected requests; the rest are connected.
func mixTable(rng *rand.Rand, routePM, vconnPM int) []op {
	t := make([]op, opTableN)
	for i := range t {
		r := rng.Intn(1000)
		o := op{kind: opConnected, pool: rng.Intn(edgePoolN), pairs: rng.Intn(pairTableN)}
		switch {
		case r < routePM:
			o.kind = opRoute
		case r < routePM+vconnPM:
			o.kind = opVConnected
			o.pool = rng.Intn(vertPoolN)
		}
		t[i] = o
	}
	return t
}

package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// json-churn: the HTTP/JSON surface with a concurrent writer.

// commitEvery is the writer's open-loop period: 2 commits a second.
const commitEvery = 500 * time.Millisecond

// jsonDriver runs one closed-loop JSON reader beside one open-loop writer
// committing one-edge updates.
type jsonDriver struct {
	in       *instance
	genlog   string
	pairs    [][][2]int
	ops      []op
	bodies   [][]byte // pre-encoded request per op
	nonEdges [][2]int // the writer adds nonEdges[i], then removes it
	reader   *rawHTTP
	writer   *rawHTTP

	recs      []readRec
	legStart  []int32
	pathArena []int32
	writes    []writeRec
	late      []time.Duration
}

// readRec is one answered read, kept for the check after the run.
type readRec struct {
	op     int32
	gen    uint32
	bits   uint32
	legs   int32 // routes: index of the first leg in legStart
	approx bool
}

type writeRec struct {
	gen              uint64
	incremental      bool
	evicted, rebased int
	latency          time.Duration
}

func newJSONDriver(in *instance, genlogPath string, seconds int) (*jsonDriver, error) {
	d := &jsonDriver{in: in, genlog: genlogPath}
	rng := subRand(in.seed, "json-reader")
	d.pairs = pairTable(rng)
	d.ops = mixTable(rng, 200, 0) // 80% connected, 20% route
	for _, o := range d.ops {
		faults := d.endpoints(in.edgePool[o.pool])
		var req any = serve.ConnectedRequest{Faults: faults, Pairs: d.pairs[o.pairs]}
		if o.kind == opRoute {
			req = serve.RouteRequest{Faults: faults, Pairs: d.pairs[o.pairs]}
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		d.bodies = append(d.bodies, b)
	}
	wrng := subRand(in.seed, "json-writer")
	used := map[[2]int]bool{}
	for len(d.nonEdges) < seconds+8 {
		u, v := wrng.Intn(instN), wrng.Intn(instN)
		if u > v {
			u, v = v, u
		}
		if u == v || in.g.HasEdge(u, v) || used[[2]int{u, v}] {
			continue
		}
		used[[2]int{u, v}] = true
		d.nonEdges = append(d.nonEdges, [2]int{u, v})
	}
	d.recs = make([]readRec, 0, 1<<18)
	d.legStart = make([]int32, 0, 1<<20)
	d.pathArena = make([]int32, 0, 1<<22)
	return d, nil
}

// endpoints names fault edges by their endpoints, which stay valid across
// commits while edge indices shift.
func (d *jsonDriver) endpoints(edges []int) [][2]int {
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{d.in.g.Edges[e].U, d.in.g.Edges[e].V}
	}
	return out
}

func (d *jsonDriver) serverArgs() []string {
	return []string{"-graph", d.in.graphPath, "-f", fmt.Sprint(instF), "-dynamic", "-cache", "1024", "-genlog", d.genlog}
}

func (d *jsonDriver) warm(dm *daemon) (*tally, error) {
	var err error
	if d.reader, err = dialHTTP(dm.httpAddr); err != nil {
		return nil, err
	}
	if d.writer, err = dialHTTP(dm.httpAddr); err != nil {
		return nil, err
	}
	// The reader's and the writer's connections, idle until the timed
	// phase, carry the two warm-up clients.
	in := d.in
	var next workQueue
	t := parallel(2, func(c int) *tally {
		t := newTally(0)
		h := d.reader
		if c == 1 {
			h = d.writer
		}
		var out []bool
		var legs routeLegs
		if c == 0 {
			pairs := touchPairs()
			body, _ := json.Marshal(serve.ConnectedRequest{Pairs: pairs})
			out = d.connected(t, h, body, edgeTruth(in.g, nil), pairs, out)
			rbody, _ := json.Marshal(serve.RouteRequest{Faults: d.endpoints(in.edgePool[0]), Pairs: d.pairs[0]})
			d.route(t, h, rbody, in.edgeTruth[0], d.pairs[0], &legs)
		}
		for i := next.take(); i < len(in.edgePool); i = next.take() {
			pairs := d.pairs[i%pairTableN]
			body, _ := json.Marshal(serve.ConnectedRequest{Faults: d.endpoints(in.edgePool[i]), Pairs: pairs})
			out = d.connected(t, h, body, in.edgeTruth[i], pairs, out)
		}
		return t
	})
	return t, nil
}

// connected and route run one warm-up read against the initial graph and
// check it inline.
func (d *jsonDriver) connected(t *tally, h *rawHTTP, body []byte, tr *truth, pairs [][2]int, out []bool) []bool {
	t.httpReqs++
	t.pairs[opConnected] += int64(len(pairs))
	status, resp, err := h.post("/connected", body)
	if err == nil && status != 200 {
		err = fmt.Errorf("/connected: HTTP %d: %s", status, resp)
	}
	if err == nil {
		out, _, _, err = scanConnected(resp, out)
	}
	if err != nil {
		t.fail(err)
	} else if err := checkConnected(tr, pairs, out, false); err != nil {
		t.bad(err)
	}
	return out
}

func (d *jsonDriver) route(t *tally, h *rawHTTP, body []byte, tr *truth, pairs [][2]int, legs *routeLegs) {
	t.httpReqs++
	t.pairs[opRoute] += int64(len(pairs))
	status, resp, err := h.post("/route", body)
	if err == nil && status != 200 {
		err = fmt.Errorf("/route: HTTP %d: %s", status, resp)
	}
	var approx bool
	if err == nil {
		_, approx, err = scanRoutes(resp, legs)
	}
	if err != nil {
		t.fail(err)
		return
	}
	paths := make([][]int, len(legs.reach))
	for i := range paths {
		paths[i] = legs.path(i)
	}
	if err := checkRoutes(d.in.g, tr, pairs, legs.reach, paths, approx); err != nil {
		t.bad(err)
	}
}

func (d *jsonDriver) timed(deadline time.Time) *tally {
	var wt *tally
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wt = d.write(deadline)
	}()
	rt := d.read(deadline)
	wg.Wait()
	rt.merge(wt)
	return rt
}

// read is the closed-loop reader: it records every answer with the
// generation that produced it.
func (d *jsonDriver) read(deadline time.Time) *tally {
	t := newTally(1 << 18)
	var out []bool
	var legs routeLegs
	for k := 0; ; k++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return t
		}
		i := k % opTableN
		o := d.ops[i]
		path := "/connected"
		if o.kind == opRoute {
			path = "/route"
		}
		t.httpReqs++
		t.pairs[o.kind] += batchPairs
		status, resp, err := d.reader.post(path, d.bodies[i])
		t.lat[o.kind].add(t0)
		if err == nil && status != 200 {
			err = fmt.Errorf("%s: HTTP %d: %s", path, status, resp)
		}
		if err != nil {
			t.fail(err)
			continue
		}
		rec := readRec{op: int32(i), legs: -1}
		var gen uint64
		if o.kind == opConnected {
			out, gen, rec.approx, err = scanConnected(resp, out)
			rec.bits = bits(out)
		} else {
			gen, rec.approx, err = scanRoutes(resp, &legs)
			rec.bits = bits(legs.reach)
			rec.legs = int32(len(d.legStart))
			for j := range legs.reach {
				d.legStart = append(d.legStart, int32(len(d.pathArena)))
				for _, v := range legs.path(j) {
					d.pathArena = append(d.pathArena, int32(v))
				}
			}
		}
		if err != nil {
			t.fail(err)
			continue
		}
		rec.gen = uint32(gen)
		d.recs = append(d.recs, rec)
	}
}

// write is the open-loop writer: commit k is due at start + k·commitEvery
// whether or not commit k−1 has returned.
func (d *jsonDriver) write(deadline time.Time) *tally {
	t := newTally(0)
	start := time.Now()
	var body []byte
	lat, late := openLoop(start, commitEvery, deadline, time.Sleep, time.Now, func(k int) error {
		e := d.nonEdges[k/2]
		body = body[:0]
		if k%2 == 0 {
			body = fmt.Appendf(body, `{"add":[[%d,%d]]}`, e[0], e[1])
		} else {
			body = fmt.Appendf(body, `{"remove":[[%d,%d]]}`, e[0], e[1])
		}
		t.commits++
		status, resp, err := d.writer.post("/update", body)
		if err == nil && status != 200 {
			err = fmt.Errorf("/update: HTTP %d: %s", status, resp)
		}
		var ur serve.UpdateResponse
		if err == nil {
			err = json.Unmarshal(resp, &ur)
		}
		if err == nil && ur.Generation != uint64(k)+2 {
			err = fmt.Errorf("commit %d produced generation %d, want %d", k, ur.Generation, k+2)
		}
		if err != nil {
			t.fail(err)
			return err
		}
		d.writes = append(d.writes, writeRec{gen: ur.Generation, incremental: ur.Incremental, evicted: ur.CacheEvicted, rebased: ur.CacheRebased})
		return nil
	})
	for i := range d.writes {
		d.writes[i].latency = lat[i]
	}
	d.late = late
	return t
}

// genGraph returns the graph the daemon served at generation gen: the
// initial graph, plus the writer's pending added edge after an odd number
// of commits.
func (d *jsonDriver) genGraph(gen uint64) *graph.Graph {
	commits := int(gen) - 1
	if commits%2 == 0 {
		return d.in.g
	}
	g := d.in.g.Clone()
	e := d.nonEdges[commits/2]
	if _, err := g.AddEdge(e[0], e[1]); err != nil {
		panic(err) // nonEdges excludes edges of the initial graph
	}
	return g
}

// verify checks every recorded read against BFS on the graph of the
// generation that answered it.
func (d *jsonDriver) verify(t *tally) {
	maxGen := uint64(1 + len(d.writes))
	type key struct {
		gen  uint32
		pool int
	}
	graphs := map[uint32]*graph.Graph{}
	truths := map[key]*truth{}
	var out []bool
	var paths [][]int
	for _, r := range d.recs {
		if uint64(r.gen) < 1 || uint64(r.gen) > maxGen {
			t.bad(fmt.Errorf("read answered at generation %d, outside 1..%d", r.gen, maxGen))
			continue
		}
		g, ok := graphs[r.gen]
		if !ok {
			g = d.genGraph(uint64(r.gen))
			graphs[r.gen] = g
		}
		o := d.ops[r.op]
		k := key{r.gen, o.pool}
		tr, ok := truths[k]
		if !ok {
			ends := d.endpoints(d.in.edgePool[o.pool])
			idx := make([]int, len(ends))
			for i, e := range ends {
				idx[i] = g.EdgeIndex(e[0], e[1])
			}
			tr = edgeTruth(g, idx)
			truths[k] = tr
		}
		pairs := d.pairs[o.pairs]
		got := unbits(r.bits, len(pairs), out)
		var err error
		if o.kind == opConnected {
			err = checkConnected(tr, pairs, got, r.approx)
		} else {
			paths = paths[:0]
			for j := range pairs {
				s := int(r.legs) + j
				end := len(d.pathArena)
				if s+1 < len(d.legStart) {
					end = int(d.legStart[s+1])
				}
				p := make([]int, 0, end-int(d.legStart[s]))
				for _, v := range d.pathArena[d.legStart[s]:end] {
					p = append(p, int(v))
				}
				paths = append(paths, p)
			}
			err = checkRoutes(g, tr, pairs, got, paths, r.approx)
		}
		if err != nil {
			t.bad(fmt.Errorf("generation %d: %w", r.gen, err))
		}
	}
}

func (d *jsonDriver) check(before, after serve.Stats, timed *tally) []string {
	bad := commonCounterChecks(before, after, timed)
	commits := uint64(timed.commits)
	if after.Commits != commits || after.Updates != commits {
		bad = append(bad, fmt.Sprintf("update_commits %d / updates %d, writer committed %d", after.Commits, after.Updates, commits))
	}
	if after.LogAppended != commits {
		bad = append(bad, fmt.Sprintf("genlog_records_appended %d, writer committed %d", after.LogAppended, commits))
	}
	return bad
}

func (d *jsonDriver) close() {
	for _, h := range []*rawHTTP{d.reader, d.writer} {
		if h != nil {
			h.Close()
		}
	}
	d.reader, d.writer = nil, nil
}

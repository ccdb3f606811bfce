package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	ftc "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/genlog"
	"repro/internal/serve/products"
	"repro/internal/serve/wire"
)

// The traced run replays each workload's seeded request stream in-process
// against the same server construction the daemon uses, on two replay
// goroutines and without sockets. Every call into a layer's public
// function gets a span; spans stay in memory and are written out when the
// run ends. Spans are recorded around calls from this benchmark, not
// inside the program.

// span is one timed call. parent indexes the recorder's own spans (-1 for
// a root); req is the request the span belongs to.
type span struct {
	name       string
	parent     int32
	req        uint32
	start, end int64 // ns since the trace epoch
}

// recorder collects one goroutine's spans. A disabled recorder records
// nothing, which is the untraced replay the overhead is measured against.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	cur   int32 // innermost open span
}

func newRecorder(on bool, epoch time.Time) *recorder {
	r := &recorder{on: on, epoch: epoch, cur: -1}
	if on {
		r.spans = make([]span, 0, 1<<18)
	}
	return r
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string, req uint32) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: r.cur, req: req, start: int64(time.Since(r.epoch))})
	r.cur = int32(len(r.spans) - 1)
	return r.cur
}

func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
	r.cur = r.spans[i].parent
}

// selfTimes returns, per span name, every span's duration and self time
// (its duration minus the time its children cover) in ns.
func selfTimes(spans []span) (dur, self map[string][]float64) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	dur, self = map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		d := float64(s.end - s.start)
		dur[s.name] = append(dur[s.name], d)
		self[s.name] = append(self[s.name], d-float64(child[i]))
	}
	return dur, self
}

type traceResult struct {
	mu      sync.Mutex // guards wrong and errs across replay goroutines
	metrics map[string]metric
	wrong   int64
	errs    []string
	spans   []span
}

func (tr *traceResult) set(name string, v float64, unit string) {
	tr.metrics[name] = metric{v, unit}
}

func (tr *traceResult) bad(err error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.wrong++
	if len(tr.errs) < 5 {
		tr.errs = append(tr.errs, err.Error())
	}
}

// Replay sizes: requests per replay goroutine.
const (
	hotReplayReqs  = 15000
	coldReplayReqs = 500 // two goroutines: 1000 compiles, so p99 has 10 beyond it
	churnReplay    = 5 * time.Second
)

func runTrace(cfg config, in *instance, dir string) (*traceResult, error) {
	tr := &traceResult{metrics: map[string]metric{}}
	epoch := time.Now()
	for _, step := range []func(*traceResult, *instance, string, time.Time) error{traceHot, traceCold, traceChurn} {
		if err := step(tr, in, dir, epoch); err != nil {
			return nil, err
		}
	}
	return tr, writeSpans(filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s.jsonl", cfg.workload)), tr.spans)
}

func mutexWait() float64 { return readMetric("/sync/mutex/wait/total:seconds") }

func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	}
	return 0
}

// replay runs fn(g, rec) on two goroutines and returns their recorders and
// the wall time.
func replay(on bool, epoch time.Time, fn func(g int, rec *recorder)) ([]*recorder, time.Duration) {
	recs := []*recorder{newRecorder(on, epoch), newRecorder(on, epoch)}
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(g, recs[g])
		}()
	}
	wg.Wait()
	return recs, time.Since(t0)
}

// collect appends the recorders' spans to the run's, rebasing parent
// indices onto the combined slice.
func (tr *traceResult) collect(recs []*recorder) {
	for _, r := range recs {
		off := int32(len(tr.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				s.parent += off
			}
			tr.spans = append(tr.spans, s)
		}
	}
}

// spanStat returns the sorted durations (ns) of the named spans among recs.
func spanStat(recs []*recorder, name string) []float64 {
	var out []float64
	for _, r := range recs {
		for _, s := range r.spans {
			if s.name == name {
				out = append(out, float64(s.end-s.start))
			}
		}
	}
	slices.Sort(out)
	return out
}

func timeIt(rec *recorder, name string, fn func()) time.Duration {
	t0 := time.Now()
	sp := rec.begin(name, 0)
	fn()
	rec.end(sp)
	return time.Since(t0)
}

// ---- bin-hot: snapshot load, warm binary path, degraded answers --------

func traceHot(tr *traceResult, in *instance, dir string, epoch time.Time) error {
	setup := newRecorder(true, epoch)
	var sch *ftc.LoadedScheme
	var err error
	tr.set("snapshot.load_ms", ms(timeIt(setup, "snapshot.load", func() { sch, err = ftc.LoadBytes(in.snapBytes) })), "ms")
	if err != nil {
		return err
	}
	// A View of our own times the first build of each product table; the
	// server builds its own during warm-up.
	view := products.New().For(sch, sch.Generation())
	tr.set("products.spanner_build_ms", ms(timeIt(setup, "products.spanner_build", func() { _, err = view.Spanner() })), "ms")
	if err != nil {
		return err
	}
	tr.set("products.route_tables_ms", ms(timeIt(setup, "products.route_tables", func() { view.Net() })), "ms")

	srv := serve.NewWithShards(sch, 1024, 0)
	drv := newBinDriver(in, false)
	var sc serve.FrameScratch
	var frame []byte
	for i, fs := range in.edgePool {
		frame = wire.AppendProbe(frame[:0], 1, 0, fs, drv.pairs[0][i%pairTableN])
		sp := setup.begin("faultset.compile.warm", 0)
		if _, fatal := srv.HandleFrame(&sc, wire.OpProbe, frame[5:]); fatal {
			return fmt.Errorf("warm frame rejected")
		}
		setup.end(sp)
		frame = wire.AppendRoute(frame[:0], 1, 0, fs, drv.pairs[0][i%pairTableN])
		srv.HandleFrame(&sc, wire.OpRoute, frame[5:])
	}
	for i, vs := range in.vertPool {
		frame = wire.AppendVProbe(frame[:0], 1, 0, vs, drv.pairs[0][i%pairTableN])
		srv.HandleFrame(&sc, wire.OpVProbe, frame[5:])
	}
	tr.collect([]*recorder{setup})

	run := func(g int, rec *recorder) {
		var sc serve.FrameScratch
		var frame []byte
		var pr wire.ProbeResp
		var rr wire.RouteResp
		var out []bool
		labels := make([][2]core.VertexLabel, batchPairs)
		for k := range hotReplayReqs {
			o := drv.ops[g][k%opTableN]
			pairs := drv.pairs[g][o.pairs]
			req := uint32(g<<28 | k)
			root := rec.begin("request", req)
			sp := rec.begin("wire.encode", req)
			var opc byte
			switch o.kind {
			case opConnected:
				opc, frame = wire.OpProbe, wire.AppendProbe(frame[:0], uint64(k), 0, in.edgePool[o.pool], pairs)
			case opRoute:
				opc, frame = wire.OpRoute, wire.AppendRoute(frame[:0], uint64(k), 0, in.edgePool[o.pool], pairs)
			default:
				opc, frame = wire.OpVProbe, wire.AppendVProbe(frame[:0], uint64(k), 0, in.vertPool[o.pool], pairs)
			}
			rec.end(sp)
			sp = rec.begin("serve.frame."+opNames[o.kind], req)
			resp, _ := srv.HandleFrame(&sc, opc, frame[5:])
			rec.end(sp)
			sp = rec.begin("wire.decode", req)
			var err error
			if o.kind == opRoute {
				err = wire.DecodeRouteResp(resp[5:], &rr)
			} else {
				err = wire.DecodeProbeResp(resp[5:], out, &pr)
				out = pr.Connected
			}
			rec.end(sp)
			if err == nil {
				switch o.kind {
				case opConnected:
					err = checkConnected(in.edgeTruth[o.pool], pairs, out, false)
				case opRoute:
					err = checkRoutes(in.g, in.edgeTruth[o.pool], pairs, rr.Reachable, rr.Paths, rr.Approx)
				default:
					err = checkConnected(in.vertTruth[o.pool], pairs, out, pr.Approx)
				}
			}
			if err != nil && rec.on {
				tr.bad(err)
			}
			// The handler's inner steps, called directly in its order.
			if o.kind == opVConnected {
				sp = rec.begin("products.degraded", req)
				out, _ = view.ApproxConnectedVertices(in.vertPool[o.pool], pairs, out[:0])
				rec.end(sp)
			} else {
				sp = rec.begin("cache.hit", req)
				fs, _, _ := srv.FaultSet(in.edgePool[o.pool])
				rec.end(sp)
				for j, p := range pairs {
					labels[j] = [2]core.VertexLabel{sch.VertexLabel(p[0]), sch.VertexLabel(p[1])}
				}
				if o.kind == opConnected {
					sp = rec.begin("faultset.probe", req)
					_, _ = fs.ConnectedBatch(labels)
				} else {
					sp = rec.begin("faultset.route", req)
					for _, l := range labels {
						_, _, _ = fs.RoutePlan(l[0], l[1])
					}
				}
				rec.end(sp)
			}
			rec.end(root)
		}
	}
	_, plain := replay(false, epoch, run)
	wait0 := mutexWait()
	recs, traced := replay(true, epoch, run)
	wait := mutexWait() - wait0
	tr.collect(recs)

	reqs := float64(2 * hotReplayReqs)
	tr.set("trace.untraced_rps", reqs/plain.Seconds(), "req/s")
	tr.set("trace.traced_rps", reqs/traced.Seconds(), "req/s")
	tr.set("trace.overhead_pct", 100*(traced.Seconds()/plain.Seconds()-1), "%")
	tr.set("cache.mutex_wait_ms", wait*1e3, "ms")
	med := func(name string) float64 { return midMean(spanStat(recs, name)) }
	tr.set("wire.encode_ns", med("wire.encode"), "ns")
	tr.set("wire.decode_ns", med("wire.decode"), "ns")
	for op := range nOps {
		tr.set("serve.frame_ns."+opNames[op], med("serve.frame."+opNames[op]), "ns")
	}
	tr.set("cache.hit_ns", med("cache.hit"), "ns")
	tr.set("faultset.probe_ns", med("faultset.probe"), "ns")
	tr.set("faultset.route_ns", med("faultset.route"), "ns")
	tr.set("products.degraded_ns", med("products.degraded"), "ns")

	// Frame sizes of the stream and server allocations per warm frame.
	var reqBytes, respBytes float64
	for k := range opTableN {
		o := drv.ops[0][k]
		pairs := drv.pairs[0][o.pairs]
		switch o.kind {
		case opConnected:
			frame = wire.AppendProbe(frame[:0], 1, 0, in.edgePool[o.pool], pairs)
		case opRoute:
			frame = wire.AppendRoute(frame[:0], 1, 0, in.edgePool[o.pool], pairs)
		default:
			frame = wire.AppendVProbe(frame[:0], 1, 0, in.vertPool[o.pool], pairs)
		}
		reqBytes += float64(len(frame))
		resp, _ := srv.HandleFrame(&sc, frame[4], frame[5:])
		respBytes += float64(len(resp))
	}
	tr.set("wire.req_bytes", reqBytes/opTableN, "bytes")
	tr.set("wire.resp_bytes", respBytes/opTableN, "bytes")
	frame = wire.AppendProbe(frame[:0], 1, 0, in.edgePool[0], drv.pairs[0][0])
	tr.set("serve.allocs_per_req.bin", testing.AllocsPerRun(200, func() { srv.HandleFrame(&sc, wire.OpProbe, frame[5:]) }), "count")

	body, _ := json.Marshal(serve.ConnectedRequest{FaultEdges: in.edgePool[0], Pairs: drv.pairs[0][0]})
	h := srv.Handler()
	proto := httptest.NewRequest(http.MethodPost, "/connected", http.NoBody)
	var w discardRW
	reader := bytes.NewReader(body)
	tr.set("serve.allocs_per_req.json", testing.AllocsPerRun(200, func() {
		reader.Reset(body)
		r := proto.Clone(proto.Context())
		r.Body = io.NopCloser(reader)
		h.ServeHTTP(&w, r)
	}), "count")
	return nil
}

// discardRW is a ResponseWriter that drops the body.
type discardRW struct {
	h      http.Header
	status int
	body   []byte
}

func (w *discardRW) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *discardRW) Write(p []byte) (int, error) { w.body = append(w.body, p...); return len(p), nil }
func (w *discardRW) WriteHeader(s int)           { w.status = s }

func (w *discardRW) reset() { w.status, w.body = 0, w.body[:0] }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ---- bin-cold: build, compile-bound misses, GC --------------------------

func traceCold(tr *traceResult, in *instance, dir string, epoch time.Time) error {
	setup := newRecorder(true, epoch)
	var sch *ftc.Scheme
	var err error
	timeIt(setup, "build.static", func() { sch, err = ftc.NewFromGraph(in.g, ftc.WithMaxFaults(instF), ftc.WithDeterministic()) })
	if err != nil {
		return err
	}
	tr.collect([]*recorder{setup})
	srv := serve.NewWithShards(sch, 256, 0)
	drv := newBinDriver(in, true)
	drv.freshSets(coldReplayReqs)

	gc0, busy0, cyc0 := readMetric("/cpu/classes/gc/total:cpu-seconds"), busyCPU(), readMetric("/gc/cycles/total:gc-cycles")
	recs, _ := replay(true, epoch, func(g int, rec *recorder) {
		var sc serve.FrameScratch
		var frame []byte
		var pr wire.ProbeResp
		var out []bool
		labels := make([][2]core.VertexLabel, batchPairs)
		for k := range coldReplayReqs {
			fs := drv.fresh[g][k]
			pairs := drv.pairs[g][k%pairTableN]
			req := uint32(g<<28 | k)
			root := rec.begin("request", req)
			sp := rec.begin("wire.encode", req)
			frame = wire.AppendProbe(frame[:0], uint64(k), 0, fs, pairs)
			rec.end(sp)
			// The handler's cache miss and first probe, called directly:
			// compile plus closure.
			sp = rec.begin("faultset.compile", req)
			set, _, err := srv.FaultSet(fs)
			if err == nil {
				for j, p := range pairs {
					labels[j] = [2]core.VertexLabel{sch.VertexLabel(p[0]), sch.VertexLabel(p[1])}
				}
				_, err = set.ConnectedBatch(labels)
			}
			rec.end(sp)
			sp = rec.begin("serve.frame.connected", req)
			resp, _ := srv.HandleFrame(&sc, wire.OpProbe, frame[5:])
			rec.end(sp)
			sp = rec.begin("wire.decode", req)
			if err == nil {
				err = wire.DecodeProbeResp(resp[5:], out, &pr)
				out = pr.Connected
			}
			rec.end(sp)
			rec.end(root)
			if err == nil {
				err = checkConnected(edgeTruth(in.g, fs), pairs, out, false)
			}
			if err != nil {
				tr.bad(err)
			}
		}
	})
	gc, busy := readMetric("/cpu/classes/gc/total:cpu-seconds")-gc0, busyCPU()-busy0
	cycles := readMetric("/gc/cycles/total:gc-cycles") - cyc0
	tr.collect(recs)
	compile := spanStat(recs, "faultset.compile")
	for i := range compile {
		compile[i] /= 1e6
	}
	tr.set("faultset.compile_ms_p50", quantile(compile, 0.5), "ms")
	tr.set("faultset.compile_ms_p99", quantile(compile, 0.99), "ms")
	tr.set("faultset.compile_ms_mean", mean(compile), "ms")
	tr.set("gc.cpu_pct", 100*gc/busy, "%")
	tr.set("gc.cycles_per_kreq", 1000*cycles/float64(2*coldReplayReqs), "count")
	return nil
}

// busyCPU is this process's non-idle CPU time so far, in seconds.
func busyCPU() float64 {
	return readMetric("/cpu/classes/total:cpu-seconds") - readMetric("/cpu/classes/idle:cpu-seconds")
}

// ---- json-churn: JSON handler, commits, generation log ------------------

func traceChurn(tr *traceResult, in *instance, dir string, epoch time.Time) error {
	setup := newRecorder(true, epoch)
	opts := []ftc.Option{ftc.WithMaxFaults(instF), ftc.WithDeterministic()}
	var nw, shadow *ftc.Network
	var err error
	tr.set("build.ms", ms(timeIt(setup, "build", func() { nw, err = ftc.OpenFromGraph(in.g, opts...) })), "ms")
	if err != nil {
		return err
	}
	if shadow, err = ftc.OpenFromGraph(in.g, opts...); err != nil {
		return err
	}
	tr.collect([]*recorder{setup})
	srv := serve.NewDynamicWithShards(func() serve.Scheme { return nw.Snapshot() }, nw, 1024, 0)
	lg, err := genlog.Open(filepath.Join(dir, "replay.log"))
	if err != nil {
		return err
	}
	defer lg.Close()
	if err := srv.AttachGenLog(lg); err != nil {
		return err
	}
	// The shadow network replays the writer's commits outside the server,
	// so commit and log append are timed on their own.
	shadowLog, err := genlog.Open(filepath.Join(dir, "shadow.log"))
	if err != nil {
		return err
	}
	defer shadowLog.Close()

	drv, err := newJSONDriver(in, "", int(churnReplay/time.Second))
	if err != nil {
		return err
	}
	h := srv.Handler()
	post := func(w *discardRW, path string, body []byte) error {
		w.reset()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.status != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d: %s", path, w.status, w.body)
		}
		return nil
	}
	var w discardRW
	for i := range in.edgePool {
		body, _ := json.Marshal(serve.ConnectedRequest{Faults: drv.endpoints(in.edgePool[i]), Pairs: drv.pairs[i%pairTableN]})
		if err := post(&w, "/connected", body); err != nil {
			return err
		}
	}
	if err := post(&w, "/route", drv.bodies[slices.IndexFunc(drv.ops, func(o op) bool { return o.kind == opRoute })]); err != nil {
		return err
	}

	var evicted, rebased, relabeled, records []float64
	var incremental int
	var late []time.Duration
	var failures []error
	var fmu sync.Mutex
	fail := func(err error) {
		fmu.Lock()
		failures = append(failures, err)
		fmu.Unlock()
	}
	deadline := time.Now().Add(churnReplay)
	recs, _ := replay(true, epoch, func(g int, rec *recorder) {
		var w discardRW
		if g == 0 {
			for k := 0; time.Now().Before(deadline); k++ {
				i := k % opTableN
				o := drv.ops[i]
				path := "/connected"
				if o.kind == opRoute {
					path = "/route"
				}
				root := rec.begin("request", uint32(k))
				sp := rec.begin("serve.http."+opNames[o.kind], uint32(k))
				err := post(&w, path, drv.bodies[i])
				rec.end(sp)
				rec.end(root)
				if err != nil {
					fail(err)
					return
				}
			}
			return
		}
		var body []byte
		_, late = openLoop(time.Now(), commitEvery, deadline, time.Sleep, time.Now, func(k int) error {
			e := drv.nonEdges[k/2]
			var add, remove [][2]int
			body = body[:0]
			if k%2 == 0 {
				add = [][2]int{e}
				body = fmt.Appendf(body, `{"add":[[%d,%d]]}`, e[0], e[1])
			} else {
				remove = [][2]int{e}
				body = fmt.Appendf(body, `{"remove":[[%d,%d]]}`, e[0], e[1])
			}
			req := uint32(1<<28 | k)
			root := rec.begin("update", req)
			defer rec.end(root)
			sp := rec.begin("serve.http.update", req)
			err := post(&w, "/update", body)
			rec.end(sp)
			var ur serve.UpdateResponse
			if err == nil {
				err = json.Unmarshal(w.body, &ur)
			}
			if err != nil {
				fail(err)
				return err
			}
			evicted = append(evicted, float64(ur.CacheEvicted))
			rebased = append(rebased, float64(ur.CacheRebased))

			sp = rec.begin("commit", req)
			rep, delta, err := shadow.CommitBatchWithDelta(add, remove)
			rec.end(sp)
			if err != nil {
				fail(err)
				return err
			}
			if rep.Incremental {
				incremental++
			}
			relabeled = append(relabeled, float64(len(rep.Relabeled)))
			sp = rec.begin("genlog.encode", req)
			records = append(records, float64(len(genlog.EncodeDelta(delta)))/1024)
			rec.end(sp)
			sp = rec.begin("genlog.append", req)
			_, err = shadowLog.Append(delta)
			rec.end(sp)
			if err != nil {
				fail(err)
			}
			return err
		})
	})
	if len(failures) > 0 {
		return fmt.Errorf("json-churn replay: %v", failures[0])
	}
	tr.collect(recs)
	med := func(name string) float64 { return midMean(spanStat(recs, name)) }
	tr.set("serve.http_ns.connected", med("serve.http.connected"), "ns")
	tr.set("serve.http_ns.route", med("serve.http.route"), "ns")
	tr.set("serve.http_ns.update", med("serve.http.update"), "ns")
	tr.set("commit.ms_p50", med("commit")/1e6, "ms")
	tr.set("genlog.append_ms_p50", med("genlog.append")/1e6, "ms")
	commits := float64(len(relabeled))
	tr.set("commit.incremental_ratio", float64(incremental)/commits, "ratio")
	tr.set("commit.relabeled_mean", mean(relabeled), "count")
	tr.set("cache.evicted_per_commit", mean(evicted), "count")
	tr.set("cache.rebased_per_commit", mean(rebased), "count")
	tr.set("genlog.record_kb_mean", mean(records), "KiB")
	lateMS := make([]float64, len(late))
	for i, l := range late {
		lateMS[i] = ms(l)
	}
	tr.set("writer.late_ms_max", slices.Max(lateMS), "ms")
	return nil
}

// writeSpans writes the spans as JSON lines, one per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		if err := enc.Encode(struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			Req    uint32 `json:"req"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, s.name, s.parent, s.req, s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints per-span-name counts, median duration and median self time.
func (tr *traceResult) report(w io.Writer) {
	dur, self := selfTimes(tr.spans)
	names := make([]string, 0, len(dur))
	for n := range dur {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  traced run: %d spans\n", len(tr.spans))
	fmt.Fprintf(w, "  %-28s %8s %14s %14s\n", "span", "count", "median_ns", "median_self_ns")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %8d %14.0f %14.0f\n", n, len(dur[n]), median(dur[n]), median(self[n]))
	}
	for _, k := range sortedKeys(tr.metrics) {
		fmt.Fprintf(w, "  %-30s %.4f %s\n", k, tr.metrics[k].Value, tr.metrics[k].Unit)
	}
	for _, e := range tr.errs {
		fmt.Fprintf(w, "  TRACE ERROR: %s\n", e)
	}
}

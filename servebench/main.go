// Command servebench is the repository's serving benchmark. It starts the
// real ftcserve binary as a child process, drives one workload against it
// from this single load-generator process, checks every answer against
// BFS ground truth, and prints one JSON result line.
//
//	servebench -ftcserve PATH -workdir DIR --workload bin-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of the traced in-process replay (see
// README.md). run.sh builds both binaries and supplies -ftcserve and
// -workdir.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
)

// setupRounds is how many times a --trace 0 run starts the daemon; setup_s
// is the median of the rounds and the last one serves the timed phase.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ftcserve string
	workdir  string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "bin-hot | bin-cold | json-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 15, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from the traced run")
	flag.StringVar(&cfg.ftcserve, "ftcserve", "", "path of the ftcserve binary under test")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for run files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	switch {
	case cfg.ftcserve == "" || cfg.workdir == "":
		return errors.New("-ftcserve and -workdir are required (run through run.sh)")
	case cfg.seconds < 1:
		return errors.New("--seconds must be at least 1")
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	in, err := newInstance(cfg.seed, dir)
	if err != nil {
		return err
	}
	var drv driver
	switch cfg.workload {
	case "bin-hot":
		drv = newBinDriver(in, false)
	case "bin-cold":
		bd := newBinDriver(in, true)
		bd.freshSets(300*cfg.seconds + 100)
		drv = bd
	case "json-churn":
		if drv, err = newJSONDriver(in, filepath.Join(dir, "gen.log"), cfg.seconds); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown --workload %q (bin-hot | bin-cold | json-churn)", cfg.workload)
	}

	hf := facts(cfg.seed)
	rounds := setupRounds
	if cfg.trace {
		rounds = 1
	}
	live, err := runLive(cfg, in, drv, dir, rounds)
	if err != nil {
		return err
	}
	live.report(os.Stdout, cfg, hf)

	res := result{
		Correct:   live.wrong == 0 && live.failed == 0 && len(live.mismatch) == 0,
		Attempted: live.attempted,
		Failed:    live.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		tr, err := runTrace(cfg, in, dir)
		if err != nil {
			return err
		}
		tr.report(os.Stdout)
		for k, v := range tr.metrics {
			res.Metrics[k] = v
		}
		for k, v := range live.layerMetrics() {
			res.Metrics[k] = v
		}
		if tr.wrong > 0 {
			res.Correct = false
		}
	} else {
		res.Metrics = live.endToEnd()
	}
	if err := writeRecord(cfg, hf, live, res); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// liveResult is the outcome of one run against the live daemon.
type liveResult struct {
	setup         []float64 // seconds per set-up round
	healthz       []float64 // seconds from exec to the first healthy /healthz, per round
	timed         *tally
	elapsed       time.Duration
	serverCPU     time.Duration
	clientCPU     time.Duration
	clientAllocs  uint64
	heapBytes     uint64
	snapBytes     int
	before, after serve.Stats
	attempted     int64
	failed, wrong int64
	mismatch      []string
	errs          []string
	refMS, steal  float64
	jd            *jsonDriver // json-churn's driver, for the writer's records
}

func runLive(cfg config, in *instance, drv driver, dir string, rounds int) (*liveResult, error) {
	lr := &liveResult{snapBytes: len(in.snapBytes), refMS: refKernel()}
	lr.jd, _ = drv.(*jsonDriver)
	var d *daemon
	defer func() {
		drv.close()
		if d != nil {
			_ = d.stop()
		}
	}()
	for r := range rounds {
		if d != nil {
			drv.close()
			if err := d.stop(); err != nil {
				return nil, err
			}
			// A fresh daemon starts a fresh generation log.
			_ = os.Remove(filepath.Join(dir, "gen.log"))
		}
		var err error
		d, err = startDaemon(cfg.ftcserve, drv.serverArgs(), filepath.Join(dir, fmt.Sprintf("ftcserve-%d.log", r)))
		if err != nil {
			return nil, err
		}
		if err := d.waitHealthy(60 * time.Second); err != nil {
			return nil, withLog(err, dir, r)
		}
		lr.healthz = append(lr.healthz, time.Since(d.started).Seconds())
		warm, err := drv.warm(d)
		if err != nil {
			return nil, withLog(err, dir, r)
		}
		lr.setup = append(lr.setup, time.Since(d.started).Seconds())
		lr.count(warm)
	}

	var err error
	if lr.before, err = d.stats(); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	steal0 := readCPUStat()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	self0 := selfCPU()
	start := time.Now()
	lr.timed = drv.timed(start.Add(time.Duration(cfg.seconds) * time.Second))
	lr.elapsed = time.Since(start)
	lr.clientCPU = selfCPU() - self0
	runtime.ReadMemStats(&ms1)
	lr.clientAllocs = ms1.Mallocs - ms0.Mallocs
	lr.steal = stealPct(steal0, readCPUStat())
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	lr.serverCPU = cpu1 - cpu0
	if lr.after, err = d.stats(); err != nil {
		return nil, err
	}
	if lr.heapBytes, err = d.heapAlloc(); err != nil {
		return nil, err
	}

	drv.verify(lr.timed)
	lr.count(lr.timed)
	lr.mismatch = drv.check(lr.before, lr.after, lr.timed)
	return lr, nil
}

// count adds a phase's requests, failures and wrong answers to the run's.
func (lr *liveResult) count(t *tally) {
	lr.attempted += t.requests()
	lr.failed += t.failed
	lr.wrong += t.wrong
	lr.errs = append(lr.errs, t.errs...)
}

// withLog appends the tail of a daemon log to a start-up error.
func withLog(err error, dir string, round int) error {
	b, _ := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ftcserve-%d.log", round)))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return fmt.Errorf("%w\nftcserve log:\n%s", err, b)
}

func (lr *liveResult) requests() int64 { return lr.timed.requests() }

func (lr *liveResult) qps() float64 {
	return float64(lr.timed.httpReqs+lr.timed.binReqs) / lr.elapsed.Seconds()
}

// endToEnd is the --trace 0 metric set.
func (lr *liveResult) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":          {median(lr.setup), "s"},
		"connected_p50_us": {quantile(micros(lr.timed.lat[opConnected]), 0.5), "us"},
		"server_heap_mb":   {float64(lr.heapBytes) / (1 << 20), "MB"},
		"snapshot_mb":      {float64(lr.snapBytes) / (1 << 20), "MB"},
	}
}

// layerMetrics are the per-layer metrics read from the live run: the
// daemon's counters and the load generator's own costs.
func (lr *liveResult) layerMetrics() map[string]metric {
	d := func(a, b uint64) float64 { return float64(b - a) }
	hits := d(lr.before.CacheHits, lr.after.CacheHits) + d(lr.before.VCacheHits, lr.after.VCacheHits)
	miss := d(lr.before.CacheMisses, lr.after.CacheMisses) + d(lr.before.VCacheMisses, lr.after.VCacheMisses)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	reqs := float64(lr.requests())
	return map[string]metric{
		"live.qps":                   {lr.qps(), "req/s"},
		"live.server_cpu_us_per_req": {float64(lr.serverCPU.Microseconds()) / reqs, "us"},
		"cache.hit_ratio":            {ratio(hits, hits+miss), "ratio"},
		"products.approx_ratio":      {ratio(d(lr.before.ApproxAnswers, lr.after.ApproxAnswers), d(lr.before.VProbes, lr.after.VProbes)), "ratio"},
		"client.cpu_us_per_req":      {float64(lr.clientCPU.Microseconds()) / reqs, "us"},
		"client.allocs_per_req":      {float64(lr.clientAllocs) / reqs, "count"},
		"host.ref_ms":                {lr.refMS, "ms"},
		"host.steal_pct":             {lr.steal, "%"},
	}
}

// report prints the full live table, including the metrics that apply to
// only some workloads and are therefore not part of the JSON result.
func (lr *liveResult) report(w *os.File, cfg config, hf hostFacts) {
	fmt.Fprintf(w, "servebench %s seed=%d seconds=%d trace=%v  num_cpu=%d GOMAXPROCS=%d %s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, hf.NumCPU, hf.GOMAXPROCS, hf.GoVersion, hf.Commit)
	fmt.Fprintf(w, "  setup_s rounds: %v (healthz after %v)\n", fmtFloats(lr.setup), fmtFloats(lr.healthz))
	fmt.Fprintf(w, "  requests=%d elapsed=%.3fs attempted=%d failed=%d wrong=%d\n",
		lr.requests(), lr.elapsed.Seconds(), lr.attempted, lr.failed, lr.wrong)
	live := lr.liveExtras()
	for _, k := range sortedKeys(live) {
		fmt.Fprintf(w, "  %-22s %.4f\n", k, live[k])
	}
	e2e := lr.endToEnd()
	for _, k := range sortedKeys(e2e) {
		fmt.Fprintf(w, "  %-22s %.4f %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	lm := lr.layerMetrics()
	for _, k := range sortedKeys(lm) {
		fmt.Fprintf(w, "  %-22s %.4f %s\n", k, lm[k].Value, lm[k].Unit)
	}
	for _, m := range lr.mismatch {
		fmt.Fprintf(w, "  COUNTER MISMATCH: %s\n", m)
	}
	for _, e := range lr.errs {
		fmt.Fprintf(w, "  ERROR: %s\n", e)
	}
}

// liveExtras are the live numbers that apply to only some workloads, kept
// in the run record: per-product medians and sample counts, the tail, and
// the writer's /update latency.
func (lr *liveResult) liveExtras() map[string]float64 {
	out := map[string]float64{}
	var all []*latencies
	for op := range nOps {
		if s := micros(lr.timed.lat[op]); len(s) > 0 {
			all = append(all, lr.timed.lat[op])
			out[opNames[op]+"_p50_us"] = quantile(s, 0.5)
			out[opNames[op]+"_samples"] = float64(len(s))
		}
	}
	if p, v, ok := tail(micros(all...)); ok {
		out["tail_us"], out["tail_pct"] = v, p
	}
	if jd := lr.jd; jd != nil && len(jd.writes) > 0 {
		var lat []float64
		for _, wr := range jd.writes {
			lat = append(lat, float64(wr.latency)/1e6)
		}
		out["update_p50_ms"] = median(lat)
		out["update_samples"] = float64(len(lat))
		out["writer_late_max_ms"] = float64(slices.Max(jd.late)) / 1e6
	}
	return out
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeRecord appends the run's record, with host facts, to
// results.jsonl in the work directory.
func writeRecord(cfg config, hf hostFacts, lr *liveResult, res result) error {
	rec := struct {
		Workload string             `json:"workload"`
		Seconds  int                `json:"seconds"`
		Trace    bool               `json:"trace"`
		Host     hostFacts          `json:"host"`
		Wrong    int64              `json:"wrong"`
		Mismatch []string           `json:"counter_mismatches,omitempty"`
		Live     map[string]float64 `json:"live"`
		result
	}{cfg.workload, cfg.seconds, cfg.trace, hf, lr.wrong, lr.mismatch, lr.liveExtras(), res}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(cfg.workdir, "results.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

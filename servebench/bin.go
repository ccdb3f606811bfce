package main

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/serve/wireclient"
	"repro/internal/workload"
)

// bin-hot and bin-cold: the binary surface.

const binClients = 2

// binDriver drives the binary frame surface with two closed-loop clients
// (see dial for how they connect).
type binDriver struct {
	in    *instance
	cold  bool
	cl    [binClients]*wireclient.Client // client c's connection(s)
	pairs [binClients][][][2]int
	ops   [binClients][]op

	// bin-cold: per client, a stream of fresh fault sets and the answers
	// recorded for them, checked after the run.
	fresh   [binClients][][]int
	answers [binClients][]uint32
}

func newBinDriver(in *instance, cold bool) *binDriver {
	d := &binDriver{in: in, cold: cold}
	for c := range binClients {
		rng := subRand(in.seed, fmt.Sprintf("bin-client-%d", c))
		d.pairs[c] = pairTable(rng)
		d.ops[c] = mixTable(rng, 100, 50) // 85% connected, 10% route, 5% vconnected
	}
	return d
}

// freshSets draws per-client streams of 1–3-tree-edge fault sets, none
// repeated across the whole run, so nearly every request misses the cache.
func (d *binDriver) freshSets(perClient int) {
	g := d.in.g
	forest := graph.SpanningForest(g)
	rng := subRand(d.in.seed, "bin-cold")
	seen := map[string]bool{}
	for i := 0; i < perClient*binClients; i++ {
		var fs []int
		for {
			fs = canon(workload.TreeEdgeFaults(g, forest, 1+rng.Intn(instF), rng))
			if k := fmt.Sprint(fs); !seen[k] {
				seen[k] = true
				break
			}
		}
		c := i % binClients
		d.fresh[c] = append(d.fresh[c], fs)
	}
	for c := range binClients {
		d.answers[c] = make([]uint32, 0, perClient)
	}
}

func (d *binDriver) serverArgs() []string {
	if d.cold {
		return []string{"-graph", d.in.graphPath, "-f", fmt.Sprint(instF), "-cache", "256"}
	}
	return []string{"-snapshot", d.in.snapPath, "-cache", "1024"}
}

// dial connects the clients. bin-hot's two clients share one wireclient
// with two connections. bin-cold gives each client its own connection:
// frames on one connection are served in order, and behind a shared
// connection a request would wait out the other client's slow compile,
// which makes the median round trip a measure of that queueing instead
// of the compile.
func (d *binDriver) dial(addr string) error {
	for c := range binClients {
		if !d.cold && c > 0 {
			d.cl[c] = d.cl[0]
			continue
		}
		conns := 2
		if d.cold {
			conns = 1
		}
		cl, err := wireclient.Dial(addr, wireclient.Options{Conns: conns, NoReconnect: true})
		if err != nil {
			return fmt.Errorf("dial bin: %w", err)
		}
		d.cl[c] = cl
	}
	return nil
}

func (d *binDriver) warm(dm *daemon) (*tally, error) {
	if err := d.dial(dm.binAddr); err != nil {
		return nil, err
	}
	in := d.in
	var next workQueue
	t := parallel(binClients, func(c int) *tally {
		t := newTally(0)
		if c == 0 {
			d.touch(d.cl[c], t)
		}
		if d.cold {
			return t
		}
		var out []bool
		var rr wire.RouteResp
		for i := next.take(); i < len(in.edgePool)+len(in.vertPool); i = next.take() {
			pairs := d.pairs[c][i%pairTableN]
			if i < len(in.edgePool) {
				out = d.probe(d.cl[c], t, in.edgePool[i], in.edgeTruth[i], pairs, out)
				d.route(d.cl[c], t, i, pairs, &rr)
			} else {
				out = d.vprobe(d.cl[c], t, i-len(in.edgePool), pairs, out)
			}
		}
		return t
	})
	return t, nil
}

// touch probes every vertex once with no faults.
func (d *binDriver) touch(cl *wireclient.Client, t *tally) {
	pairs := touchPairs()
	d.probe(cl, t, nil, edgeTruth(d.in.g, nil), pairs, nil)
}

func (d *binDriver) probe(cl *wireclient.Client, t *tally, faults []int, tr *truth, pairs [][2]int, out []bool) []bool {
	t.binReqs++
	t.pairs[opConnected] += int64(len(pairs))
	out, _, _, err := cl.ProbeInto(faults, pairs, out, 0)
	if err != nil {
		t.fail(err)
	} else if err := checkConnected(tr, pairs, out, false); err != nil {
		t.bad(err)
	}
	return out
}

func (d *binDriver) route(cl *wireclient.Client, t *tally, pool int, pairs [][2]int, rr *wire.RouteResp) {
	t.binReqs++
	t.pairs[opRoute] += int64(len(pairs))
	if err := cl.Route(d.in.edgePool[pool], pairs, rr, 0); err != nil {
		t.fail(err)
	} else if err := checkRoutes(d.in.g, d.in.edgeTruth[pool], pairs, rr.Reachable, rr.Paths, rr.Approx); err != nil {
		t.bad(err)
	}
}

func (d *binDriver) vprobe(cl *wireclient.Client, t *tally, pool int, pairs [][2]int, out []bool) []bool {
	t.binReqs++
	t.pairs[opVConnected] += int64(len(pairs))
	out, _, approx, _, err := cl.VProbeInto(d.in.vertPool[pool], pairs, out, 0)
	if err != nil {
		t.fail(err)
	} else if err := checkConnected(d.in.vertTruth[pool], pairs, out, approx); err != nil {
		t.bad(err)
	}
	return out
}

func (d *binDriver) timed(deadline time.Time) *tally {
	return parallel(binClients, func(c int) *tally {
		t := newTally(1 << 20)
		out := make([]bool, 0, batchPairs)
		var rr wire.RouteResp
		for k := 0; ; k++ {
			t0 := time.Now()
			if !t0.Before(deadline) {
				return t
			}
			if d.cold {
				fs := d.fresh[c][k%len(d.fresh[c])]
				pairs := d.pairs[c][k%pairTableN]
				t.binReqs++
				t.pairs[opConnected] += batchPairs
				var err error
				out, _, _, err = d.cl[c].ProbeInto(fs, pairs, out, 0)
				t.lat[opConnected].add(t0)
				if err != nil {
					t.fail(err)
					continue
				}
				d.answers[c] = append(d.answers[c], bits(out))
				continue
			}
			o := d.ops[c][k%opTableN]
			pairs := d.pairs[c][o.pairs]
			switch o.kind {
			case opConnected:
				out = d.probe(d.cl[c], t, d.in.edgePool[o.pool], d.in.edgeTruth[o.pool], pairs, out)
			case opRoute:
				d.route(d.cl[c], t, o.pool, pairs, &rr)
			case opVConnected:
				out = d.vprobe(d.cl[c], t, o.pool, pairs, out)
			}
			t.lat[o.kind].add(t0)
		}
	})
}

// verify checks bin-cold's recorded answers against BFS truth computed
// now, outside the timed window; bin-hot checks inline against truth
// computed before it.
func (d *binDriver) verify(t *tally) {
	if !d.cold {
		return
	}
	var out []bool
	for c := range binClients {
		for k, b := range d.answers[c] {
			fs := d.fresh[c][k%len(d.fresh[c])]
			pairs := d.pairs[c][k%pairTableN]
			if err := checkConnected(edgeTruth(d.in.g, fs), pairs, unbits(b, len(pairs), out), false); err != nil {
				t.bad(err)
			}
		}
	}
}

func (d *binDriver) check(before, after serve.Stats, timed *tally) []string {
	bad := commonCounterChecks(before, after, timed)
	misses := (after.CacheMisses - before.CacheMisses) + (after.VCacheMisses - before.VCacheMisses)
	if !d.cold && misses != 0 {
		bad = append(bad, fmt.Sprintf("bin-hot compiled %d fault sets in the timed phase; want 0", misses))
	}
	return bad
}

func (d *binDriver) close() {
	for c, cl := range d.cl {
		if cl != nil && (c == 0 || cl != d.cl[0]) {
			cl.Close()
		}
	}
	d.cl = [binClients]*wireclient.Client{}
}

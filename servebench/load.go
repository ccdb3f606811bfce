package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// tally is what one load goroutine sent and saw. Goroutines own their
// tally and merge after the phase ends.
type tally struct {
	httpReqs, binReqs, commits int64
	pairs                      [nOps]int64 // pairs sent per product
	failed, wrong              int64
	errs                       []string
	lat                        [nOps]*latencies
}

func newTally(capacity int) *tally {
	t := &tally{}
	for i := range t.lat {
		t.lat[i] = newLatencies(capacity)
	}
	return t
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) bad(err error) {
	t.wrong++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, "wrong answer: "+err.Error())
	}
}

func (t *tally) requests() int64 { return t.httpReqs + t.binReqs + t.commits }

func (t *tally) merge(o *tally) {
	t.httpReqs += o.httpReqs
	t.binReqs += o.binReqs
	t.commits += o.commits
	for i := range t.pairs {
		t.pairs[i] += o.pairs[i]
		t.lat[i].ns = append(t.lat[i].ns, o.lat[i].ns...)
	}
	t.failed += o.failed
	t.wrong += o.wrong
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// driver runs one workload against a live daemon.
type driver interface {
	// serverArgs are the ftcserve flags besides the listener addresses.
	serverArgs() []string
	// warm connects to d and runs the warm-up pass; it ends set-up.
	warm(d *daemon) (*tally, error)
	// timed drives load until deadline.
	timed(deadline time.Time) *tally
	// verify checks answers recorded during the timed phase, after it.
	verify(t *tally)
	// check compares the daemon's counters with what was sent.
	check(before, after serve.Stats, timed *tally) []string
	close()
}

// workQueue hands out item indices 0, 1, 2, … to whichever warm-up
// client is free, so one slow compile does not leave the other client idle.
type workQueue struct{ n atomic.Int64 }

func (q *workQueue) take() int { return int(q.n.Add(1) - 1) }

// parallel runs fn on workers goroutines and merges their tallies.
func parallel(workers int, fn func(w int) *tally) *tally {
	out := make([]*tally, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[w] = fn(w)
		}()
	}
	wg.Wait()
	for _, t := range out[1:] {
		out[0].merge(t)
	}
	return out[0]
}

// commonCounterChecks are the assertions every workload shares.
func commonCounterChecks(before, after serve.Stats, timed *tally) []string {
	var bad []string
	eq := func(name string, got uint64, want int64) {
		if int64(got) != want {
			bad = append(bad, fmt.Sprintf("%s: server counted %d, client sent %d", name, got, want))
		}
	}
	eq("requests", after.Requests-before.Requests, timed.httpReqs)
	eq("bin_requests", after.BinRequests-before.BinRequests, timed.binReqs)
	eq("probes", after.Probes-before.Probes, timed.pairs[opConnected])
	eq("route_plans", after.RoutePlans-before.RoutePlans, timed.pairs[opRoute])
	eq("vprobes", after.VProbes-before.VProbes, timed.pairs[opVConnected])
	eq("frame_decode_errors", after.FrameErrors, 0)
	eq("requests_shed_http", after.ShedHTTP, 0)
	eq("requests_shed_bin", after.ShedBin, 0)
	eq("requests_shed_deadline", after.ShedDeadline, 0)
	return bad
}

// bits packs up to 32 answers into a bitmap.
func bits(xs []bool) uint32 {
	var b uint32
	for i, x := range xs {
		if x {
			b |= 1 << i
		}
	}
	return b
}

func unbits(b uint32, n int, out []bool) []bool {
	out = out[:0]
	for i := range n {
		out = append(out, b&(1<<i) != 0)
	}
	return out
}

// openLoop calls fn(k) at start + k·period for every k due before
// deadline, sleeping when ahead and running at once when behind. It
// returns each call's latency measured from when it was due, which
// charges a slow call's delay to the calls queued behind it, and how late
// each call started. It stops at the first error.
func openLoop(start time.Time, period time.Duration, deadline time.Time,
	sleep func(time.Duration), now func() time.Time, fn func(k int) error) (lat, late []time.Duration) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(deadline) {
			return lat, late
		}
		if t := now(); t.Before(due) {
			sleep(due.Sub(t))
		}
		late = append(late, now().Sub(due))
		if err := fn(k); err != nil {
			return lat, late
		}
		lat = append(lat, now().Sub(due))
	}
}

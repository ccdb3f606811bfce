package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the code under test sleeps or works.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }
func (c *fakeClock) work(d time.Duration)  { c.now = c.now.Add(d) }

// TestOpenLoopTimesFromDue checks the writer's accounting: a commit that
// overruns its period delays the next one, and that delay is charged to
// the next commit's latency because latency runs from when it was due.
func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	period := 500 * time.Millisecond
	// Commit 0 takes 700ms, the rest 100ms.
	cost := []time.Duration{700 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond}
	var calls []int
	lat, late := openLoop(start, period, start.Add(2*time.Second), clk.Sleep, clk.Now, func(k int) error {
		calls = append(calls, k)
		clk.work(cost[k])
		return nil
	})
	if len(calls) != 4 {
		t.Fatalf("ran %d commits in 2s at 500ms, want 4", len(calls))
	}
	wantLate := []time.Duration{0, 200 * time.Millisecond, 0, 0}
	wantLat := []time.Duration{700 * time.Millisecond, 300 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond}
	for k := range calls {
		if late[k] != wantLate[k] {
			t.Errorf("commit %d late %v, want %v", k, late[k], wantLate[k])
		}
		if lat[k] != wantLat[k] {
			t.Errorf("commit %d latency %v, want %v (from due)", k, lat[k], wantLat[k])
		}
	}
}

func TestOpenLoopStopsAtDeadline(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	n := 0
	openLoop(clk.now, time.Second, clk.now.Add(3*time.Second), clk.Sleep, clk.Now, func(int) error {
		n++
		return nil
	})
	if n != 3 {
		t.Fatalf("%d calls due before a 3s deadline at 1/s, want 3", n)
	}
}

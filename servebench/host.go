package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFacts are recorded with every run so a number can be tied to the
// machine and code that produced it.
type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func facts(seed int64) hostFacts {
	h := hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// refKernel times a fixed CPU-bound loop and returns the fastest of three
// tries in milliseconds. It moves with host speed and steal, not with this
// repository's code, so a shift in it marks host drift.
func refKernel() float64 {
	best := time.Duration(1 << 62)
	for range 3 {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for range 20_000_000 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refSink = x
		best = min(best, time.Since(t0))
	}
	return float64(best) / 1e6
}

var refSink uint64

// cpuStat is the aggregate line of /proc/stat in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	var st cpuStat
	for i, v := range fields[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		// Fields: user nice system idle iowait irq softirq steal guest
		// guest_nice; guest time is already counted in user.
		if i < 8 {
			st.total += n
		}
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// stealPct is the share of host CPU time stolen between a and b.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

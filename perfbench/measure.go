package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is one reading of the process-wide cost counters a pass or
// window is charged against.
type procSnap struct {
	wall  time.Time
	cpu   time.Duration // user + system CPU time of the whole process
	alloc uint64        // runtime.MemStats.TotalAlloc
}

// settle collects garbage and returns freed memory to the OS, so every
// pass, window and set-up repetition starts from the same heap and
// resident size: with the engine's GOGC=300 a pass sees only a few
// collections, and where they land (and which pooled buffers they flush)
// otherwise moves CPU time, allocation and peak RSS from pass to pass.
func settle() { debug.FreeOSMemory() }

func snapshot() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// interval is the cost of ops operations between two snapshots.
type interval struct {
	ops   int
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

func between(a, b procSnap, ops int) interval {
	return interval{ops: ops, wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc}
}

// costMetrics turns per-pass (or per-window) intervals into the
// throughput and cost metrics every workload reports, each the fast
// quarter over the intervals (see fastQuarter).
func costMetrics(ivs []interval, m map[string]float64) {
	var wall, cpu, alloc []float64
	for _, iv := range ivs {
		n := float64(iv.ops)
		wall = append(wall, iv.wall.Seconds()/n)
		cpu = append(cpu, float64(iv.cpu)/1e6/n)
		alloc = append(alloc, float64(iv.alloc)/(1<<20)/n)
	}
	m["ops_per_s"] = 1 / fastQuarter(wall)
	m["cpu_ms_per_op"] = fastQuarter(cpu)
	m["alloc_mb_per_op"] = fastQuarter(alloc)
	m["peak_rss_mb"] = peakRSSMB()
}

// fastQuarter is the lower quartile (nearest rank) of per-pass costs.
// The work of every pass is identical; on a shared host the neighbours'
// load only ever slows a pass, and it drifts over tens of seconds, so
// the median tracks the neighbours while the fast quarter tracks the
// program. With up to four passes it is the cheapest pass.
func fastQuarter(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 25)
	return v
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted and the
// number of samples ranked beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// repeatSetup runs a set-up step k times and returns the median wall
// time in seconds, so one slow repetition cannot move setup_s. Each
// repetition starts after a collection, but with the freed pages still
// mapped: returning them first would make a millisecond set-up measure
// page faults.
func repeatSetup(k int, step func() error) (float64, error) {
	var ts []float64
	for i := 0; i < k; i++ {
		runtime.GC()
		start := time.Now()
		if err := step(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

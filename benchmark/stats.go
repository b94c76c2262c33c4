package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. An empty sample
// yields 0, which is how a metric a workload does not exercise reads.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// ratio is a/b, or 0 when b is 0 (a per-op figure of a phase with no
// such op).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSnap is the whole-process state the runtime.* metrics are deltas
// of.
type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	pauseNS uint64
	numGC   uint32
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{cpu: cpuTime(), mallocs: ms.Mallocs, pauseNS: ms.PauseTotalNs, numGC: ms.NumGC}
}

// heapInuseAfterGC forces a collection and returns HeapInuse.
func heapInuseAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

var calibSink uint64

// hostCalib times a fixed integer loop: a slow or busy host shows here
// before it shows in a workload.
func hostCalib() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(start).Nanoseconds())
}

// tick is one sample of a phase's progress: units of work done and CPU
// time used by the process so far.
type tick struct {
	at    time.Time
	units float64
	cpu   time.Duration
}

// steady cuts a tick series into consecutive buckets at least span long
// and returns each bucket's rate (units per second) and cost (CPU
// microseconds per unit). Medians over the buckets are the run's
// steady-state figures: a stall of the host inside one bucket does not
// move them, a slowdown that lasts does.
func steady(ticks []tick, span time.Duration) (rates, costs []float64) {
	for i := 0; i < len(ticks); {
		j := i + 1
		for j < len(ticks) && ticks[j].at.Sub(ticks[i].at) < span {
			j++
		}
		if j >= len(ticks) {
			break
		}
		du := ticks[j].units - ticks[i].units
		rates = append(rates, du/ticks[j].at.Sub(ticks[i].at).Seconds())
		if du > 0 {
			costs = append(costs, float64((ticks[j].cpu-ticks[i].cpu).Microseconds())/du)
		}
		i = j
	}
	return rates, costs
}

// steadyRate and steadyCost are the medians of a phase's per-slice rates
// and costs.
func steadyRate(ticks []tick, wall time.Duration) float64 {
	rates, _ := steady(ticks, wall/steadyBuckets)
	return quantile(rates, 0.5)
}

func steadyCost(ticks []tick, wall time.Duration) float64 {
	_, costs := steady(ticks, wall/steadyBuckets)
	return quantile(costs, 0.5)
}

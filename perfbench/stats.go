package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
)

// pct is one latency percentile with the sample count behind it. Beyond is
// how many samples lie above the reported one: a percentile is only worth
// reporting when at least ten samples lie beyond it.
type pct struct {
	Value  float64
	N      int
	Beyond int
}

// minBeyond is the fewest samples that must lie beyond a reported percentile.
const minBeyond = 10

func (p pct) ok() bool { return p.Beyond >= minBeyond }

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, which it
// sorts in place.
func percentile(xs []float64, p float64) pct {
	if len(xs) == 0 {
		return pct{}
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	i = max(0, min(i, len(xs)-1))
	return pct{Value: xs[i], N: len(xs), Beyond: len(xs) - 1 - i}
}

func median(xs []float64) float64 {
	ys := slices.Clone(xs)
	slices.Sort(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// runtimeSample is a snapshot of the Go runtime counters read over a timed
// window.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	numGC      uint32
	pauseNs    [256]uint64 // runtime.MemStats' ring of recent GC pauses
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSample{
		allocBytes: ms[0].Value.Uint64(),
		gcCPU:      ms[1].Value.Float64(),
		totalCPU:   ms[2].Value.Float64(),
		numGC:      m.NumGC,
		pauseNs:    m.PauseNs,
	}
}

// runtimeWindow is what the runtime did between two samples.
type runtimeWindow struct {
	allocBytes uint64
	gcCPUShare float64
	gcPauseP99 pct // in ms, over the window's last 256 collections at most
}

func diffRuntime(a, b runtimeSample) runtimeWindow {
	w := runtimeWindow{allocBytes: b.allocBytes - a.allocBytes}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		w.gcCPUShare = (b.gcCPU - a.gcCPU) / cpu
	}
	n := min(b.numGC-a.numGC, uint32(len(b.pauseNs)))
	pauses := make([]float64, 0, n)
	for i := uint32(0); i < n; i++ {
		pauses = append(pauses, float64(b.pauseNs[(b.numGC-1-i)%uint32(len(b.pauseNs))])/1e6)
	}
	w.gcPauseP99 = percentile(pauses, 0.99)
	return w
}

// liveHeapBytes forces collections and returns the heap still in use. The
// second collection frees what the first moved to sync.Pool victim caches.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	return ms[0].Value.Uint64()
}

package metrics

import (
	"fmt"
	"io"
	"math"
	rm "runtime/metrics"
	"sync"
)

// The runtime sampler reads a fixed set of runtime/metrics samples into
// the go_* gauges and keeps the latest GC pause distribution for
// exposition. Sampling is explicit (SampleRuntime) — the snapshot writer
// calls it before every export, at startup and at exit.

var runtimeState struct {
	mu      sync.Mutex
	samples []rm.Sample
	pauses  *rm.Float64Histogram // copy of the latest GC pause distribution
}

// runtimeSampleNames are the runtime/metrics series we export. Unknown
// names (older toolchains) read as KindBad and are skipped.
var runtimeSampleNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

// SampleRuntime refreshes the go_* gauges from runtime/metrics. Safe for
// concurrent use; cheap enough to call per snapshot, not per operation.
func SampleRuntime() {
	runtimeState.mu.Lock()
	defer runtimeState.mu.Unlock()
	if runtimeState.samples == nil {
		runtimeState.samples = make([]rm.Sample, len(runtimeSampleNames))
		for i, n := range runtimeSampleNames {
			runtimeState.samples[i].Name = n
		}
	}
	rm.Read(runtimeState.samples)
	for _, s := range runtimeState.samples {
		switch s.Value.Kind() {
		case rm.KindUint64:
			v := int64(s.Value.Uint64())
			switch s.Name {
			case "/sched/goroutines:goroutines":
				RuntimeGoroutines.Set(v)
			case "/memory/classes/heap/objects:bytes":
				RuntimeHeapBytes.Set(v)
			case "/gc/heap/allocs:bytes":
				RuntimeHeapAllocBytes.Set(v)
			case "/gc/cycles/total:gc-cycles":
				RuntimeGCCycles.Set(v)
			}
		case rm.KindFloat64Histogram:
			if s.Name == "/sched/pauses/total/gc:seconds" {
				h := s.Value.Float64Histogram()
				runtimeState.pauses = copyFloatHist(h)
				RuntimeGCPause.Set(int64(pauseEstimateSeconds(h) * 1e9))
			}
		}
	}
}

// copyFloatHist deep-copies a runtime histogram so the exposition path
// never aliases runtime-owned memory.
func copyFloatHist(h *rm.Float64Histogram) *rm.Float64Histogram {
	out := &rm.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
	return out
}

// pauseEstimateSeconds estimates total GC pause time from the pause
// distribution: each bucket contributes count × bucket midpoint. The
// runtime's buckets are log-spaced, so the estimate is within ~2× per
// bucket — plenty for "is GC pressure a factor" triage.
func pauseEstimateSeconds(h *rm.Float64Histogram) float64 {
	var total float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := 0.0
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		total += float64(c) * mid
	}
	return total
}

// writeRuntimePauses emits the latest GC pause distribution as a
// Prometheus histogram, or nothing when SampleRuntime has not run.
func writeRuntimePauses(w io.Writer) error {
	runtimeState.mu.Lock()
	h := runtimeState.pauses
	runtimeState.mu.Unlock()
	if h == nil {
		return nil
	}
	const name = "go_gc_pauses_seconds"
	if _, err := fmt.Fprintf(w, "# HELP %s Distribution of stop-the-world GC pause latencies, from /sched/pauses/total/gc.\n# TYPE %s histogram\n", name, name); err != nil {
		return err
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if c == 0 || math.IsInf(h.Buckets[i+1], 1) {
			// Empty buckets are elided; an infinite upper bound folds into
			// the single +Inf bucket emitted below.
			continue
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatValue(h.Buckets[i+1]), cum); err != nil {
			return err
		}
	}
	total := cum
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatValue(pauseEstimateSeconds(h))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, total)
	return err
}

package sim

import (
	"math"
	"math/bits"
	"time"
)

// histBuckets is the number of log-spaced latency buckets. Bucket b holds
// durations whose nanosecond count has bit length b (bucket 0 holds exactly
// zero), so the buckets cover [0, ~292 years] with power-of-two resolution.
const histBuckets = 64

// Histogram is a log-bucketed latency histogram on the virtual clock. It is
// integer-only — bucket counts plus exact min/max/sum — so two runs that
// observe the same durations in any order produce bit-identical histograms,
// which is what lets the observability layer promise identical contents for
// any host parallelism. The zero value is ready to use. Not safe for
// concurrent use; all recording happens on the sequential commit path.
type Histogram struct {
	counts   [histBuckets]int64
	n        int64
	sum      time.Duration
	min, max time.Duration
}

// Observe records one latency sample. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.n == 0 {
		h.min, h.max = d, d
	} else {
		if d < h.min {
			h.min = d
		}
		if d > h.max {
			h.max = d
		}
	}
	h.n++
	h.sum += d
	h.counts[bits.Len64(uint64(d))]++
}

// Merge folds o's samples into h: bucket counts, sample counts, and sums
// add; min/max combine. Because the buckets are order-independent, merging
// per-shard histograms in any order yields bit-identical contents — the
// property the sharded serving front-end relies on for deterministic
// report merges.
func (h *Histogram) Merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	if h.n == 0 {
		*h = *o
		return
	}
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	for b := range h.counts {
		h.counts[b] += o.counts[b]
	}
}

// bucketUpper returns the largest duration bucket b can hold.
func bucketUpper(b int) time.Duration {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(int64(1)<<b - 1)
}

// Quantile returns the p-quantile (p in [0,1]) by nearest rank over the
// buckets: the upper bound of the bucket holding the ranked sample, clamped
// to the exact observed [min, max]. With no samples it returns 0.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if p >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(p * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += h.counts[b]
		if cum >= rank {
			ub := bucketUpper(b)
			if ub > h.max {
				ub = h.max
			}
			if ub < h.min {
				ub = h.min
			}
			return ub
		}
	}
	return h.max
}

// LatencySummary is the exportable digest of a Histogram: exact count, min,
// mean, and max plus log-bucket quantiles. All fields are integers
// (durations in nanoseconds under encoding/json), so the JSON encoding is
// stable and two deterministic runs compare bit-for-bit.
type LatencySummary struct {
	Count int64         `json:"count"`
	Min   time.Duration `json:"min_ns"`
	Mean  time.Duration `json:"mean_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// Summary digests the histogram. The zero histogram yields the zero summary.
func (h *Histogram) Summary() LatencySummary {
	if h.n == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: h.n,
		Min:   h.min,
		Mean:  h.sum / time.Duration(h.n),
		Max:   h.max,
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

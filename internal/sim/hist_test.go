package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestHistogramZeroValue checks the zero histogram digests to the zero
// summary.
func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	if s := h.Summary(); s != (LatencySummary{}) {
		t.Fatalf("zero histogram summary not zero: %+v", s)
	}
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("zero histogram quantile = %v, want 0", q)
	}
}

// TestHistogramBasics checks count/min/mean/max are exact and quantiles are
// bounded by the observed range.
func TestHistogramBasics(t *testing.T) {
	var h Histogram
	samples := []time.Duration{
		100 * time.Nanosecond,
		200 * time.Nanosecond,
		400 * time.Nanosecond,
		80 * time.Microsecond,
		-time.Second, // clamps to 0
	}
	for _, d := range samples {
		h.Observe(d)
	}
	s := h.Summary()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Min != 0 {
		t.Fatalf("Min = %v, want 0 (negative clamps)", s.Min)
	}
	if s.Max != 80*time.Microsecond {
		t.Fatalf("Max = %v, want 80µs", s.Max)
	}
	wantMean := (100*time.Nanosecond + 200*time.Nanosecond + 400*time.Nanosecond + 80*time.Microsecond) / 5
	if s.Mean != wantMean {
		t.Fatalf("Mean = %v, want %v", s.Mean, wantMean)
	}
	for _, q := range []time.Duration{s.P50, s.P95, s.P99} {
		if q < s.Min || q > s.Max {
			t.Fatalf("quantile %v outside [%v, %v]", q, s.Min, s.Max)
		}
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
}

// TestHistogramOrderIndependent checks that observation order does not
// change the digest — the property that makes histograms safe to compare
// across runs with different wall-clock interleavings.
func TestHistogramOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
	}
	var fwd, rev Histogram
	for _, d := range samples {
		fwd.Observe(d)
	}
	for i := len(samples) - 1; i >= 0; i-- {
		rev.Observe(samples[i])
	}
	if fwd.Summary() != rev.Summary() {
		t.Fatalf("summaries differ by order:\n%+v\n%+v", fwd.Summary(), rev.Summary())
	}
	if fwd.counts != rev.counts {
		t.Fatalf("bucket counts differ by order")
	}
}

// TestHistogramMerge checks that merging sharded histograms in any order
// reproduces the histogram a single observer would have built — the
// deterministic-merge property the serving front-end relies on.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	samples := make([]time.Duration, 500)
	for i := range samples {
		samples[i] = time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
	}
	var whole Histogram
	shards := make([]Histogram, 4)
	for i, d := range samples {
		whole.Observe(d)
		shards[i%len(shards)].Observe(d)
	}
	var fwd, rev Histogram
	for i := range shards {
		fwd.Merge(&shards[i])
		rev.Merge(&shards[len(shards)-1-i])
	}
	if fwd != whole || rev != whole {
		t.Fatalf("merged histograms diverge from the single observer:\nfwd  %+v\nrev  %+v\nwant %+v",
			fwd.Summary(), rev.Summary(), whole.Summary())
	}
	// Merging the empty histogram is the identity in both directions.
	var empty Histogram
	fwd.Merge(&empty)
	if fwd != whole {
		t.Fatal("merging an empty histogram changed the digest")
	}
	empty.Merge(&whole)
	if empty != whole {
		t.Fatal("merging into an empty histogram did not copy it")
	}
}

// TestHistogramSingleSample checks every quantile of a one-sample histogram
// is that sample.
func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(42 * time.Microsecond)
	s := h.Summary()
	want := 42 * time.Microsecond
	if s.Min != want || s.Max != want || s.Mean != want || s.P50 != want || s.P99 != want {
		t.Fatalf("single-sample summary wrong: %+v", s)
	}
	// Out-of-range p clamps to the extremes rather than panicking.
	if q := h.Quantile(-0.5); q != want {
		t.Fatalf("Quantile(-0.5) = %v, want %v", q, want)
	}
	if q := h.Quantile(0); q != want {
		t.Fatalf("Quantile(0) = %v, want %v", q, want)
	}
	if q := h.Quantile(1); q != want {
		t.Fatalf("Quantile(1) = %v, want %v", q, want)
	}
	if q := h.Quantile(2); q != want {
		t.Fatalf("Quantile(2) = %v, want %v", q, want)
	}
}

// TestHistogramExtremeDurations checks the top bucket holds the largest
// representable duration and the digest stays exact at the extremes.
func TestHistogramExtremeDurations(t *testing.T) {
	var h Histogram
	huge := time.Duration(math.MaxInt64)
	h.Observe(0)
	h.Observe(huge)
	s := h.Summary()
	if s.Min != 0 || s.Max != huge || s.Count != 2 {
		t.Fatalf("extreme summary wrong: %+v", s)
	}
	// P99 ranks to the top sample; the bucket upper bound saturates at
	// MaxInt64 and then clamps to the observed max.
	if s.P99 != huge {
		t.Fatalf("P99 = %v, want MaxInt64", s.P99)
	}
	c := h.counts
	if c[0] != 1 {
		t.Fatalf("zero sample not in bucket 0: %v", c[0])
	}
	if c[histBuckets-1] != 1 {
		t.Fatalf("MaxInt64 sample not in the top bucket")
	}
}

// TestHistogramMergeDisjointShuffled merges shards whose sample ranges do
// not overlap, in several shuffled orders, and checks min/max/digest all
// land identically — the general form of the order-independence the
// report merger relies on.
func TestHistogramMergeDisjointShuffled(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shards := make([]Histogram, 5)
	var whole Histogram
	for s := range shards {
		base := time.Duration(s) * time.Millisecond
		for i := 0; i < 100; i++ {
			d := base + time.Duration(rng.Int63n(int64(time.Millisecond)))
			shards[s].Observe(d)
			whole.Observe(d)
		}
	}
	for trial := 0; trial < 10; trial++ {
		order := rng.Perm(len(shards))
		var m Histogram
		for _, s := range order {
			m.Merge(&shards[s])
		}
		if m != whole {
			t.Fatalf("trial %d (order %v): merged digest diverges:\ngot  %+v\nwant %+v",
				trial, order, m.Summary(), whole.Summary())
		}
	}
}

// Package metrics is the wall-clock observability layer of the runtime:
// lock-free counters, gauges, and log-bucket histograms that measure where
// HOST time goes — worker busy/idle, batch-claim latency, per-stage wall
// clock, journal-flush cost — plus Go runtime telemetry sampled through
// runtime/metrics.
//
// It is the real-time twin of internal/obs: obs records the *virtual*
// clock (deterministic, part of every report), metrics records the *wall*
// clock (host-dependent, never part of any report). The contract is
// strict: metrics are a side channel. Nothing in this package feeds back
// into the data plane — enabling or disabling metrics must leave every
// virtual-time report, trace, and golden file bit-identical (enforced by
// TestMetricsSideChannelDeterminism at the repo root).
//
// Hot-path design: instrumentation sites hold package-level handles (no
// map lookups, no interface boxing), every mutation is a single atomic
// op, and all timing is gated on one atomic enabled flag — Clock()
// returns -1 when metrics are off, and every Observe*/Add* helper treats
// a negative start as "skip". Steady-state recording allocates nothing
// (enforced by TestMapZeroAllocWithMetrics in internal/parallel).
package metrics

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates all wall-clock measurement. Off by default: library users
// and the deterministic test suite pay one atomic load per site.
var enabled atomic.Bool

// Enable turns wall-clock metric collection on. Safe to call multiple
// times and from any goroutine.
func Enable() { enabled.Store(true) }

// Disable turns collection off. Recorded values are kept (snapshots still
// export them); new observations are skipped.
func Disable() { enabled.Store(false) }

// Enabled reports whether collection is on.
func Enabled() bool { return enabled.Load() }

// clockBase anchors the monotonic clock. time.Since on a time.Time that
// carries a monotonic reading never observes wall-clock jumps.
var clockBase = time.Now()

// Clock returns nanoseconds on the host's monotonic clock, or -1 when
// metrics are disabled. Instrumentation sites capture a start with Clock
// and hand it to ObserveSince/AddSince; the -1 sentinel rides through so
// a disabled run performs no further clock reads.
func Clock() int64 {
	if !enabled.Load() {
		return -1
	}
	return int64(time.Since(clockBase))
}

// counterShards is the number of independently-padded accumulation slots a
// Counter spreads concurrent writers across. Power of two; slot selection
// is a mask, not a division.
const counterShards = 16

// paddedInt64 keeps each shard on its own cache line so concurrent
// workers do not false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [7]int64
}

// Counter is a monotonically increasing, lock-free sharded counter.
// Build with NewCounter/NewSecondsCounter; the zero value works but is
// not registered for export.
type Counter struct {
	shards [counterShards]paddedInt64
}

// Add increments the counter on slot 0 — for single-writer call sites
// (the sequential commit path).
func (c *Counter) Add(n int64) { c.shards[0].v.Add(n) }

// AddAt increments the counter on the slot for the given worker id, so N
// pool workers accumulate without bouncing one cache line.
func (c *Counter) AddAt(slot int, n int64) {
	c.shards[slot&(counterShards-1)].v.Add(n)
}

// AddSince accumulates the elapsed monotonic time since start (a Clock()
// result) on the given slot. A negative start — metrics were off at
// capture time — or metrics being off now skips the add.
func (c *Counter) AddSince(slot int, start int64) {
	if start < 0 {
		return
	}
	if now := Clock(); now >= 0 {
		c.AddAt(slot, now-start)
	}
}

// Value returns the summed count across shards.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous value (heap bytes, goroutines). Lock-free.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets mirrors sim.Histogram's log-bucket layout: bucket b holds
// values whose bit length is b (bucket 0 holds exactly zero), covering
// [0, 2^63) with power-of-two resolution.
const histBuckets = 64

// Histogram is a lock-free log-bucket histogram of nanosecond durations
// (or raw values, for size distributions). Unlike sim.Histogram it is
// safe for concurrent use: bucket counts, n, and sum are atomic adds.
// Build with NewSecondsHistogram or NewValueHistogram.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	n      atomic.Int64
	sum    atomic.Int64
}

// Observe records one sample. Negative values clamp to zero. Safe for
// concurrent use; allocation-free.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed monotonic time since start (a Clock()
// result). A negative start — metrics were off at capture time — or
// metrics being off now skips the observation entirely.
func (h *Histogram) ObserveSince(start int64) {
	if start < 0 {
		return
	}
	if now := Clock(); now >= 0 {
		h.Observe(now - start)
	}
}

// Sum returns the sample sum (nanoseconds for duration histograms).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// snapshot copies the histogram's state at one moment. Buckets are read
// without a global lock, so a snapshot taken during concurrent writes may
// be mid-update by one sample; exposition tolerates that (counts are
// monotone and the sum is reported separately).
func (h *Histogram) snapshot() (counts [histBuckets]int64, n, sum int64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.n.Load(), h.sum.Load()
}

// metricKind is the Prometheus type of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family.
type series struct {
	labels string // pre-rendered {a="b",c="d"} block, or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one exported metric name: HELP + TYPE + its labeled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	scale  float64 // multiplier applied at export (1e-9 turns stored ns into seconds)
	series []*series
}

// registry holds every registered family in registration order, which
// fixes the exposition order (deterministic output for tests and diffs).
var registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// renderLabels turns ("subsystem","core","stage","chunk") into
// `{subsystem="core",stage="chunk"}`. Pairs must be complete.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("metrics: label pairs must be key,value,...")
	}
	s := "{"
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			s += ","
		}
		s += pairs[i] + `="` + pairs[i+1] + `"`
	}
	return s + "}"
}

// register files one series under its family, creating the family on
// first use. Panics on a (name, labels) collision or a kind mismatch —
// both are programming errors in this package's handle table.
func register(name, help string, kind metricKind, scale float64, s *series, labelPairs []string) {
	s.labels = renderLabels(labelPairs)
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.byName == nil {
		registry.byName = make(map[string]*family)
	}
	f := registry.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, scale: scale}
		registry.byName[name] = f
		registry.families = append(registry.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.kind, kind))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// NewCounter registers a raw-valued counter series.
func NewCounter(name, help string, labelPairs ...string) *Counter {
	c := &Counter{}
	register(name, help, kindCounter, 1, &series{c: c}, labelPairs)
	return c
}

// NewSecondsCounter registers a counter that accumulates nanoseconds and
// exports seconds (Prometheus base-unit convention).
func NewSecondsCounter(name, help string, labelPairs ...string) *Counter {
	c := &Counter{}
	register(name, help, kindCounter, 1e-9, &series{c: c}, labelPairs)
	return c
}

// NewGauge registers a raw-valued gauge series.
func NewGauge(name, help string, labelPairs ...string) *Gauge {
	g := &Gauge{}
	register(name, help, kindGauge, 1, &series{g: g}, labelPairs)
	return g
}

// NewSecondsGauge registers a gauge that stores nanoseconds and exports
// seconds.
func NewSecondsGauge(name, help string, labelPairs ...string) *Gauge {
	g := &Gauge{}
	register(name, help, kindGauge, 1e-9, &series{g: g}, labelPairs)
	return g
}

func newHistogram(name, help string, scale float64, labelPairs []string) *Histogram {
	h := &Histogram{}
	register(name, help, kindHistogram, scale, &series{h: h}, labelPairs)
	return h
}

// NewSecondsHistogram registers a duration histogram: samples are
// nanoseconds, exposition buckets and sums are seconds.
func NewSecondsHistogram(name, help string, labelPairs ...string) *Histogram {
	return newHistogram(name, help, 1e-9, labelPairs)
}

// NewValueHistogram registers a raw-valued histogram (batch sizes).
func NewValueHistogram(name, help string, labelPairs ...string) *Histogram {
	return newHistogram(name, help, 1, labelPairs)
}

// families returns a stable copy of the registered family list.
func familiesSnapshot() []*family {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]*family, len(registry.families))
	copy(out, registry.families)
	return out
}

package volume

import (
	"encoding/binary"
	"testing"

	"inlinered/internal/dedup"
)

// tfp builds a distinct fingerprint whose sketch slots are also distinct
// (the sketch hashes words [0:8) and [8:16) of the digest).
func tfp(i uint64) dedup.Fingerprint {
	var fp dedup.Fingerprint
	binary.LittleEndian.PutUint64(fp[0:8], i+1)
	binary.LittleEndian.PutUint64(fp[8:16], (i+1)*0x9E3779B97F4A7C15)
	return fp
}

// hit and fill are the read path's two cache calls: planRead's lookup, and
// its reserve on a miss with the caller's fill of the slot.
func hit(c *blockCache, fp dedup.Fingerprint) bool {
	_, ok := c.getRef(fp)
	return ok
}

func fill(c *blockCache, fp dedup.Fingerprint, data []byte) {
	copy(c.reserve(fp, len(data)), data)
}

func TestFreqSketchEstimateAndAging(t *testing.T) {
	var s freqSketch
	s.init(64)
	a, b := tfp(1), tfp(2)
	if s.estimate(a) != 0 {
		t.Fatalf("fresh sketch estimate: %d", s.estimate(a))
	}
	for i := 0; i < 5; i++ {
		s.increment(a)
	}
	s.increment(b)
	if got := s.estimate(a); got != 5 {
		t.Fatalf("estimate after 5 increments: %d", got)
	}
	if got := s.estimate(b); got != 1 {
		t.Fatalf("estimate after 1 increment: %d", got)
	}
	// Saturation at 15.
	for i := 0; i < 40; i++ {
		s.increment(a)
	}
	if got := s.estimate(a); got != 15 {
		t.Fatalf("estimate must saturate at 15, got %d", got)
	}
	// Aging halves every counter.
	s.age()
	if got := s.estimate(a); got != 7 {
		t.Fatalf("estimate after aging: %d (want 15/2)", got)
	}
	if got := s.estimate(b); got != 0 {
		t.Fatalf("cold entry after aging: %d (want 1/2)", got)
	}
	if s.samples != 0 {
		t.Fatalf("aging must reset the sample count, got %d", s.samples)
	}
}

func TestFreqSketchAutoAges(t *testing.T) {
	var s freqSketch
	s.init(1) // min size: 1024 counters, sampleLimit 8192
	a := tfp(7)
	for i := 0; i < 20; i++ {
		s.increment(a)
	}
	before := s.estimate(a)
	// Drive unrelated fingerprints until the sample limit trips.
	for i := uint64(0); int(i) < s.sampleLimit; i++ {
		s.increment(tfp(100 + i))
	}
	if got := s.estimate(a); got >= before {
		t.Fatalf("hot estimate must decay after the sample window: %d -> %d", before, got)
	}
}

func TestGhostListBoundedFIFO(t *testing.T) {
	var g ghostList
	g.init(4)              // below the floor:
	if cap(g.ring) != 16 { // bounded, but never degenerate
		t.Fatalf("ghost floor: cap %d, want 16", cap(g.ring))
	}
	for i := uint64(0); i < 20; i++ {
		g.push(tfp(i))
	}
	if g.contains(tfp(0)) || g.contains(tfp(3)) {
		t.Fatal("oldest ghosts must be overwritten")
	}
	for i := uint64(4); i < 20; i++ {
		if !g.contains(tfp(i)) {
			t.Fatalf("recent ghost %d missing", i)
		}
	}
	g.removeIfPresent(tfp(10))
	if g.contains(tfp(10)) {
		t.Fatal("removed ghost still reported")
	}
	// Re-pushing an already-present fingerprint must not duplicate it.
	g.push(tfp(19))
	g.push(tfp(19))
	if !g.contains(tfp(19)) {
		t.Fatal("re-push lost membership")
	}
}

// TestCacheScanResistance is the policy's reason to exist, in miniature: a
// small hot set accessed repeatedly, then a long one-touch scan several
// times the cache's size. A pure LRU forgets the hot set (every scan
// entry evicts one resident); the admission policy must keep it — scans
// only churn the probation segment, and a one-touch fingerprint never
// qualifies for the protected one.
func TestCacheScanResistance(t *testing.T) {
	const bs = 64
	c := newBlockCache(8 * bs)
	data := make([]byte, bs)
	hot := []dedup.Fingerprint{tfp(1), tfp(2)}
	// Serial-path access pattern: lookup, insert on miss.
	touch := func(fp dedup.Fingerprint) bool {
		if hit(c, fp) {
			return true
		}
		fill(c, fp, data)
		return false
	}
	for round := 0; round < 4; round++ {
		for _, fp := range hot {
			touch(fp)
		}
	}
	if c.admissions == 0 {
		t.Fatal("re-accessed entries must be promoted to the protected segment")
	}
	for i := uint64(100); i < 200; i++ {
		if touch(tfp(i)) {
			t.Fatalf("one-touch scan entry %d cannot hit", i)
		}
	}
	for _, fp := range hot {
		if !hit(c, fp) {
			t.Fatal("scan evicted the hot set — admission policy not scan-resistant")
		}
	}
	if c.usedBytes > c.capBytes {
		t.Fatalf("over capacity: %d > %d", c.usedBytes, c.capBytes)
	}
}

// TestCacheCyclicScanConverges is the failing-before/passing-after
// boot-storm kernel: a strict cyclic scan over a working set 4× the cache.
// Under the old pure-LRU cache this access pattern NEVER hits — every
// block is evicted strictly before its reuse, on every pass, forever.
// Under the admission policy the ghost list recognizes second-pass inserts
// as re-references and pins a protected set, so later passes hit.
func TestCacheCyclicScanConverges(t *testing.T) {
	const bs, blocks, workingSet, passes = 64, 8, 32, 5
	c := newBlockCache(blocks * bs)
	data := make([]byte, bs)
	perPass := make([]int64, passes)
	for p := 0; p < passes; p++ {
		before := c.hits
		for i := uint64(0); i < workingSet; i++ {
			if !hit(c, tfp(i)) {
				fill(c, tfp(i), data)
			}
		}
		perPass[p] = c.hits - before
	}
	if perPass[0] != 0 {
		t.Fatalf("cold pass cannot hit, got %d", perPass[0])
	}
	if c.ghostHits == 0 {
		t.Fatal("cyclic re-inserts must register as ghost hits")
	}
	last := perPass[passes-1]
	if last == 0 {
		t.Fatalf("steady-state pass still hits nothing (LRU behavior): %v", perPass)
	}
	// The protected segment is ~3/4 of capacity; a converged pass should
	// hit about that many blocks each cycle.
	if want := int64(blocks/2) + 1; last < want {
		t.Fatalf("converged pass hit %d blocks, want >= %d of %d: %v", last, want, blocks, perPass)
	}
	if c.len() > blocks {
		t.Fatalf("cache exceeded capacity: %d blocks", c.len())
	}
}

// TestCacheCountersConsistent checks the counter algebra the reports rely
// on: every enabled lookup is a hit or a miss, admissions never exceed
// inserts + promotions, and the disabled cache counts nothing.
func TestCacheCountersConsistent(t *testing.T) {
	const bs = 64
	c := newBlockCache(4 * bs)
	data := make([]byte, bs)
	lookups := int64(0)
	for i := uint64(0); i < 50; i++ {
		fp := tfp(i % 10)
		lookups++
		if !hit(c, fp) {
			fill(c, fp, data)
		}
	}
	if c.hits+c.misses != lookups {
		t.Fatalf("hits %d + misses %d != lookups %d", c.hits, c.misses, lookups)
	}
	if c.hits == 0 || c.misses == 0 {
		t.Fatalf("mixed trace must produce both hits (%d) and misses (%d)", c.hits, c.misses)
	}

	off := newBlockCache(0)
	if hit(off, tfp(1)) {
		t.Fatal("disabled cache returned data")
	}
	fill(off, tfp(1), data)
	if off.hits != 0 || off.misses != 0 || off.len() != 0 {
		t.Fatal("disabled cache must count nothing")
	}
}

package volume

import (
	"encoding/binary"

	"inlinered/internal/dedup"
	"inlinered/internal/metrics"
)

// blockCache is a content-addressed, scan-resistant read cache over
// decompressed chunks. Keying by fingerprint rather than LBA has two nice
// properties in a deduplicating array: a cached chunk serves reads of
// *every* block that maps to it, and entries can never go stale — an
// overwrite changes the block's fingerprint mapping, it never mutates
// chunk content.
//
// Admission is a deterministic 2Q/TinyLFU hybrid rather than a pure LRU,
// because the cache's worst enemy is the VDI boot storm: a one-touch
// cyclic scan over a working set larger than the cache defeats LRU
// completely (every block is evicted strictly before its next use — the
// second storm pass hits 0%). The policy splits the capacity, counted in
// blocks since every entry is one block, into
//
//	probation — a small FIFO (about a quarter of the budget) that absorbs
//	            first-touch entries, so a scan churns only this segment;
//	protected — an LRU holding entries that proved reuse. New entries are
//	            admitted here only when the ghost list or the frequency
//	            sketch vouches for them, and once the segment is full a
//	            candidate must be strictly more frequent than the LRU
//	            victim to displace it — equally-good candidates are turned
//	            away, so a uniform scan cannot rotate the hot set.
//
// Two cheap structures provide the evidence: a ghost list remembers the
// fingerprints of recently evicted entries (a re-reference after eviction
// is the classic 2Q promotion signal), and a 4-bit count-min sketch
// estimates each fingerprint's recent access frequency, halved
// periodically so stale popularity ages out. Everything is a pure function
// of the access sequence — no randomness, no host time — so cache state
// (and therefore every virtual-time report) is bit-identical for any
// Parallelism, client count, or GOMAXPROCS.
type blockCache struct {
	// on is false when the volume has no cache bytes at all; a cache
	// smaller than one block is on but holds nothing. capBlocks bounds the
	// entries and protCap the protected segment's; the probation FIFO uses
	// whatever the protected segment does not.
	on                            bool
	capBlocks, protCap, blockSize int

	// Intrusive doubly-linked lists (front = most recent / newest) plus
	// free lists of recycled nodes and payload buffers, so steady-state
	// cache maintenance allocates nothing.
	prot cacheList // protected LRU
	prob cacheList // probation FIFO
	byFP map[dedup.Fingerprint]*cacheEntry
	free *cacheEntry
	bufs [][]byte

	ghost  ghostList
	sketch freqSketch

	// Leases: a batch read aliases entry bytes under one, from its Plan to
	// its next Plan or Release. Every live lease was granted at or after
	// epoch. retired holds evicted buffers a live lease may still alias, at
	// most retiredCap of them: the largest batch planned.
	lastLease, epoch uint64
	live, retiredCap int
	retired          [][]byte

	CacheCounters
}

// CacheCounters is the read cache's accounting, from the scan-resistant
// admission policy: hits and misses count lookups, admissions counts
// entries placed in (or promoted into) the protected segment, and ghost
// hits count inserts whose fingerprint was recently evicted — the 2Q
// re-admission signal.
type CacheCounters struct {
	CacheHits       int64 `json:"cache_hits"` // a batch's pending hits on entries it reserved included
	CacheMisses     int64 `json:"cache_misses"`
	CacheAdmissions int64 `json:"cache_admissions"`
	CacheGhostHits  int64 `json:"cache_ghost_hits"`
}

// add sums o into c.
func (c *CacheCounters) add(o CacheCounters) {
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.CacheAdmissions += o.CacheAdmissions
	c.CacheGhostHits += o.CacheGhostHits
}

// since returns what c counted after the snapshot o.
func (c CacheCounters) since(o CacheCounters) CacheCounters {
	return CacheCounters{c.CacheHits - o.CacheHits, c.CacheMisses - o.CacheMisses,
		c.CacheAdmissions - o.CacheAdmissions, c.CacheGhostHits - o.CacheGhostHits}
}

// segment tags for cacheEntry.where.
const (
	inProbation = int8(iota)
	inProtected
)

type cacheEntry struct {
	fp         dedup.Fingerprint
	data       []byte
	lease      uint64 // newest lease that aliased data, 0 if none
	where      int8
	prev, next *cacheEntry
}

// cacheList is an intrusive doubly-linked list over cacheEntry.
type cacheList struct {
	head, tail *cacheEntry
	n          int
}

func (l *cacheList) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.n++
}

func (l *cacheList) remove(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

func (l *cacheList) moveToFront(e *cacheEntry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// ghostList remembers the fingerprints of recently evicted entries in a
// bounded FIFO ring with O(1) membership. It holds no payload — just the
// fact that a fingerprint was here recently, the 2Q re-admission signal.
// Sized on the cache's first insert, so a cache that never admits a block
// allocates nothing for it.
type ghostList struct {
	ring []dedup.Fingerprint
	in   map[dedup.Fingerprint]struct{}
	head int // next overwrite position
}

func (g *ghostList) init(entries int) {
	if g.ring != nil {
		return
	}
	if entries < 16 {
		entries = 16
	}
	if entries > 1<<16 {
		entries = 1 << 16
	}
	g.ring = make([]dedup.Fingerprint, 0, entries)
	g.in = make(map[dedup.Fingerprint]struct{}, entries)
}

func (g *ghostList) contains(fp dedup.Fingerprint) bool {
	if g.in == nil {
		return false
	}
	_, ok := g.in[fp]
	return ok
}

func (g *ghostList) removeIfPresent(fp dedup.Fingerprint) {
	// The ring slot keeps the stale fingerprint until overwritten; only the
	// membership map decides hits, and a stale slot deletes a key that is
	// simply absent — harmless and still O(1).
	if g.in != nil {
		delete(g.in, fp)
	}
}

func (g *ghostList) push(fp dedup.Fingerprint) {
	if g.ring == nil {
		return
	}
	if _, ok := g.in[fp]; ok {
		return
	}
	if len(g.ring) < cap(g.ring) {
		g.ring = append(g.ring, fp)
	} else {
		delete(g.in, g.ring[g.head])
		g.ring[g.head] = fp
		g.head++
		if g.head == len(g.ring) {
			g.head = 0
		}
	}
	g.in[fp] = struct{}{}
}

// freqSketch is a 4-bit two-row count-min sketch over fingerprints. It
// estimates how often a fingerprint was touched recently; every
// sampleLimit increments, all counters halve, so the estimate is a
// recency-weighted frequency rather than an all-time count (the TinyLFU
// aging rule). Counters saturate at 15.
type freqSketch struct {
	nibbles     []uint8 // two 4-bit counters per byte, rows interleaved
	mask        uint32  // counters per row - 1 (power of two)
	samples     int
	sampleLimit int
}

func (s *freqSketch) init(counters int) {
	if s.nibbles != nil {
		return
	}
	n := 1024
	for n < counters {
		n <<= 1
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	s.nibbles = make([]uint8, n) // n counters per row × 2 rows, 2 per byte
	s.mask = uint32(n - 1)
	s.sampleLimit = n * 8
}

// slots derives the two row positions from the fingerprint. Fingerprints
// are SHA-1 sums, so independent words of the digest are as good as two
// hash functions.
func (s *freqSketch) slots(fp dedup.Fingerprint) (uint32, uint32) {
	return uint32(binary.LittleEndian.Uint64(fp[0:8])) & s.mask,
		uint32(binary.LittleEndian.Uint64(fp[8:16])) & s.mask
}

// Counter addressing: row r, slot i lives in nibbles[i] (row 0 = low
// nibble, row 1 = high nibble). Packing both rows into one byte array
// keeps the sketch at one byte per slot.
func (s *freqSketch) get(row int, slot uint32) uint8 {
	b := s.nibbles[slot]
	if row == 0 {
		return b & 0x0F
	}
	return b >> 4
}

func (s *freqSketch) bump(row int, slot uint32) {
	b := s.nibbles[slot]
	if row == 0 {
		if b&0x0F < 15 {
			s.nibbles[slot] = b + 1
		}
	} else {
		if b>>4 < 15 {
			s.nibbles[slot] = b + 0x10
		}
	}
}

func (s *freqSketch) increment(fp dedup.Fingerprint) {
	if s.nibbles == nil {
		return
	}
	i, j := s.slots(fp)
	s.bump(0, i)
	s.bump(1, j)
	s.samples++
	if s.samples >= s.sampleLimit {
		s.age()
	}
}

func (s *freqSketch) estimate(fp dedup.Fingerprint) uint8 {
	if s.nibbles == nil {
		return 0
	}
	i, j := s.slots(fp)
	a, b := s.get(0, i), s.get(1, j)
	if a < b {
		return a
	}
	return b
}

// age halves every counter — the deterministic TinyLFU reset that turns
// the sketch into a sliding-window frequency estimate.
func (s *freqSketch) age() {
	for i, b := range s.nibbles {
		s.nibbles[i] = (b >> 1) & 0x77 // halve both nibbles in place
	}
	s.samples = 0
}

// admitEstimateMin is the sketch estimate at which a first-touch entry
// qualifies for the protected segment: 2 means "seen at least once before
// this access" (the access itself already incremented the sketch).
const admitEstimateMin = 2

// newBlockCache returns a cache of blockSize-byte blocks bounded to capBytes
// of payload (zero or negative capacity disables caching).
func newBlockCache(capBytes int64, blockSize int) *blockCache {
	return &blockCache{
		on:        capBytes > 0,
		capBlocks: int(max(capBytes, 0) / int64(blockSize)),
		protCap:   int((capBytes - capBytes/4) / int64(blockSize)),
		blockSize: blockSize,
		byFP:      make(map[dedup.Fingerprint]*cacheEntry),
	}
}

// getRef looks fp up, counts the hit or miss, feeds the sketch and promotes
// a probation hit, stamping it with lease (the planning batch's, 0 for a
// read that copies out at once). It returns the entry rather than its
// bytes: one reserved earlier in the same batch holds its data only after
// its decode.
func (c *blockCache) getRef(fp dedup.Fingerprint, lease uint64) (*cacheEntry, bool) {
	if !c.on {
		return nil, false
	}
	c.sketch.increment(fp)
	e, ok := c.byFP[fp]
	if !ok {
		c.CacheMisses++
		return nil, false
	}
	c.CacheHits++
	e.lease = max(e.lease, lease)
	if e.where == inProtected {
		c.prot.moveToFront(e)
	} else {
		// A hit while still on probation is proof of reuse: promote to the
		// protected segment (2Q's A1in → Am move), demoting from the
		// protected tail if the promotion pushes it over budget.
		c.prob.remove(e)
		e.where = inProtected
		c.prot.pushFront(e)
		c.CacheAdmissions++
		c.rebalance()
	}
	return e, true
}

// rebalance demotes protected-tail entries into probation until the
// protected segment is back under its cap. Demotion moves entries
// between segments; the total is unchanged.
func (c *blockCache) rebalance() {
	for c.prot.n > c.protCap {
		e := c.prot.tail
		c.prot.remove(e)
		e.where = inProbation
		c.prob.pushFront(e)
	}
}

// evictOne removes the best victim to free space: the probation tail when
// probation holds anything (first-touch entries go first — the scan
// resistance), else the protected tail. The victim's fingerprint goes to
// the ghost list so a re-reference can earn direct re-admission.
func (c *blockCache) evictOne() {
	e := c.prob.tail
	if e != nil {
		c.prob.remove(e)
	} else {
		e = c.prot.tail
		if e == nil {
			return
		}
		c.prot.remove(e)
	}
	delete(c.byFP, e.fp)
	c.ghost.push(e.fp)
	if metrics.Enabled() {
		metrics.CacheEvictionsM.Add(1)
	}
	c.recycle(e)
}

// recycle returns a node to the free list, and its payload to the buffer
// free list unless a live lease may still alias it (a batch's hit, or its
// pending decode into the slot). Such a buffer is retired until no lease
// is live — or, past retiredCap, dropped: the aliases keep it alive, and
// nothing reuses it, so the GC is always safe; only reuse needs the lease.
func (c *blockCache) recycle(e *cacheEntry) {
	switch {
	case c.live == 0 || e.lease < c.epoch:
		c.bufs = append(c.bufs, e.data)
	case len(c.retired) < c.retiredCap:
		c.retired = append(c.retired, e.data)
	}
	e.data, e.lease = nil, 0
	e.prev = nil
	e.next = c.free
	c.free = e
}

// acquire grants a lease to a batch about to plan n reads.
func (c *blockCache) acquire(n int) uint64 {
	c.lastLease++
	if c.live == 0 {
		c.epoch = c.lastLease
	}
	c.live++
	c.retiredCap = max(c.retiredCap, n)
	return c.lastLease
}

// release ends a lease. Once none is live, nothing can alias a retired
// buffer.
func (c *blockCache) release() {
	if c.live--; c.live == 0 {
		c.bufs = append(c.bufs, c.retired...)
		clear(c.retired)
		c.retired = c.retired[:0]
	}
}

func (c *blockCache) node() *cacheEntry {
	if e := c.free; e != nil {
		c.free = e.next
		e.next = nil
		return e
	}
	return &cacheEntry{}
}

// reserve places a new entry for fp, which a getRef just missed, stamped
// with lease, and returns its block-sized data slice for the caller to fill
// (nil when the cache holds no block). planRead reserves at decision time,
// so admission, eviction and segment state advance in request order even
// when the decoded bytes only land after a batch's plan. The slice stays
// valid if the entry is evicted before the fill: filling an orphan is
// harmless, because a buffer the lease may alias is never reassigned. The
// buffer comes off the free list when it has one.
func (c *blockCache) reserve(fp dedup.Fingerprint, lease uint64) []byte {
	if c.capBlocks == 0 {
		return nil
	}
	if c.ghost.ring == nil {
		c.ghost.init(c.capBlocks * 4)
		c.sketch.init(c.capBlocks * 8)
	}

	// Admission evidence, gathered before any eviction disturbs it.
	ghostHit := c.ghost.contains(fp)
	qualified := ghostHit || c.sketch.estimate(fp) >= admitEstimateMin
	if ghostHit {
		c.CacheGhostHits++
		c.ghost.removeIfPresent(fp)
	}

	toProtected := false
	if qualified {
		if c.prot.n < c.protCap {
			toProtected = true
		} else if v := c.prot.tail; v != nil &&
			c.sketch.estimate(fp) > c.sketch.estimate(v.fp) {
			// TinyLFU victim comparison: displace the protected tail only
			// for a strictly more frequent candidate. Ties lose, so a
			// uniform scan (every block equally frequent) cannot rotate
			// the protected set once it is full — that pinning is what
			// makes the second storm pass hit.
			toProtected = true
		}
	}

	for c.len() >= c.capBlocks {
		c.evictOne()
	}

	e := c.node()
	e.fp, e.lease = fp, lease
	if k := len(c.bufs); k > 0 {
		e.data = c.bufs[k-1]
		c.bufs[k-1], c.bufs = nil, c.bufs[:k-1]
	} else {
		e.data = make([]byte, c.blockSize)
	}
	if toProtected {
		e.where = inProtected
		c.prot.pushFront(e)
		c.CacheAdmissions++
		c.rebalance()
	} else {
		e.where = inProbation
		c.prob.pushFront(e)
	}
	c.byFP[fp] = e
	return e.data
}

// remove drops fp's entry if present (a failed decode un-reserves its
// slot so a garbage block can never serve later reads). Deliberately no
// ghost-list push: the entry was never valid, so its fingerprint has
// earned no re-admission credit.
func (c *blockCache) remove(fp dedup.Fingerprint) {
	e, ok := c.byFP[fp]
	if !ok {
		return
	}
	if e.where == inProtected {
		c.prot.remove(e)
	} else {
		c.prob.remove(e)
	}
	delete(c.byFP, e.fp)
	c.recycle(e)
}

// len returns the number of cached blocks.
func (c *blockCache) len() int { return c.prot.n + c.prob.n }

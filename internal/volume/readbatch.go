package volume

import (
	"fmt"
	"sync"
	"time"

	"inlinered/internal/dedup"
	"inlinered/internal/lz"
	"inlinered/internal/parallel"
)

// The batch read path splits a group of reads into the same three phases
// the write-side pipeline uses:
//
//	Plan   — sequential decision phase: planRead per LBA, in request
//	         order — the same ordered half the serial ReadInto runs, so
//	         every charge on the virtual clock is made here. Decode work is
//	         recorded as jobs instead of executed.
//	Run    — parallel work phase: decode items (one per sub-block of an
//	         indexed container, one per whole blob otherwise) execute in
//	         any order, on any number of goroutines, writing only their
//	         own disjoint output ranges.
//	Commit — sequential commit phase: per-job deferred overlap copies are
//	         patched in job order, reserved cache slots are filled (or
//	         un-reserved on decode failure), and reads that hit a
//	         pending-decode cache entry copy their bytes out.
//
// Because every virtual-clock mutation happens in Plan, in request order,
// the report is bit-identical to the serial loop for any worker count. The
// one divergence from N serial ReadInto calls is documented on ReadBatch.

type batchOp struct {
	lba int64
	src int8
	job int32 // decode job index (srcDecode/srcPending), -1 otherwise
	lat time.Duration
	err error
}

// batchJob is one blob decode charged at plan time and executed in the
// parallel phase.
type batchJob struct {
	op        int // owning op: the job decodes into that op's buffer region
	fp        dedup.Fingerprint
	blob      []byte
	lay       lz.SubLayout // indexed container: one item per sub-block
	cacheSlot []byte       // reserved cache entry bytes, nil when not cached
	firstItem int
	items     int
	err       error
}

// batchItem is one unit of parallel decode work: a (job, sub-block) pair,
// or a whole-blob serial decode when part < 0.
type batchItem struct {
	job      int32
	part     int32
	deferred []lz.DeferredCopy
	err      error
}

// ReadBatch executes batches of reads through the phased plan / run /
// commit split. A ReadBatch is reusable: each Plan call resets it, and its
// buffers (including sub-block layouts and deferred-copy lists) are
// recycled across batches. Between Plan and Commit, RunItem calls for
// distinct items are safe to run concurrently; everything else must be
// called from one goroutine.
//
// The one divergence from the serial path is inherent to batching, and
// needs a corrupt blob (healthy volumes are bit-identical): a read hitting
// the cache entry an earlier read of the same batch reserved is priced as a
// cache hit, and when that decode then fails it reports the decode error —
// serially the first read would have un-reserved the entry and the second
// would have missed.
type ReadBatch struct {
	v       *Volume
	buf     []byte // len(ops) × BlockSize output regions
	ops     []batchOp
	jobs    []batchJob
	items   []batchItem
	pending map[dedup.Fingerprint]int32 // fp -> job decoding it this batch

	// What the last Plan moved: the cache counters and the clock.
	cacheHits, cacheMisses, cacheAdmissions, cacheGhostHits int64
	elapsed                                                 time.Duration
}

// ReadTotals is the accounting every level of a batch-read report carries
// — one volume's batch, one shard's, one array's, one node's — and the unit
// the levels merge by. The cache counters are all taken during the
// sequential plan phases, so they are as deterministic as the virtual
// clock. Hits + misses can undercount Reads: unmapped reads never consult
// the cache.
type ReadTotals struct {
	Reads           int           `json:"reads"`
	Errors          int64         `json:"errors"`
	DecodedBlobs    int64         `json:"decoded_blobs"` // blob decodes executed (misses)
	DecodedParts    int64         `json:"decoded_parts"` // parallel decode items (sub-blocks; a whole-blob decode counts one)
	CacheHits       int64         `json:"cache_hits"`    // pending hits on entries reserved earlier in the batch included
	CacheMisses     int64         `json:"cache_misses"`
	CacheAdmissions int64         `json:"cache_admissions"` // entries admitted to (or promoted into) the protected segment
	CacheGhostHits  int64         `json:"cache_ghost_hits"` // inserts that re-referenced a recently evicted fingerprint
	Elapsed         time.Duration `json:"elapsed_ns"`       // virtual; the slowest child's once merged
}

// Add merges a child's totals into t: counters sum, and Elapsed is the
// slowest child's (children run concurrently in simulated time).
func (t *ReadTotals) Add(o ReadTotals) {
	t.Reads += o.Reads
	t.Errors += o.Errors
	t.DecodedBlobs += o.DecodedBlobs
	t.DecodedParts += o.DecodedParts
	t.CacheHits += o.CacheHits
	t.CacheMisses += o.CacheMisses
	t.CacheAdmissions += o.CacheAdmissions
	t.CacheGhostHits += o.CacheGhostHits
	t.Elapsed = max(t.Elapsed, o.Elapsed)
}

// HitRate returns the cache hit fraction over lookups (0 when nothing was
// looked up).
func (t ReadTotals) HitRate() float64 {
	lookups := t.CacheHits + t.CacheMisses
	if lookups == 0 {
		return 0
	}
	return float64(t.CacheHits) / float64(lookups)
}

// Totals returns the committed batch's accounting.
func (b *ReadBatch) Totals() ReadTotals {
	return ReadTotals{
		Reads: len(b.ops), Errors: int64(b.Errors()),
		DecodedBlobs: int64(len(b.jobs)), DecodedParts: int64(len(b.items)),
		CacheHits: b.cacheHits, CacheMisses: b.cacheMisses,
		CacheAdmissions: b.cacheAdmissions, CacheGhostHits: b.cacheGhostHits,
		Elapsed: b.elapsed,
	}
}

// batchPool recycles whole ReadBatch values — backing buffer, op/job/item
// arrays, sub-block layouts, deferred-copy lists, and the pending map all
// survive from one batch's lifetime to the next, so a fresh
// NewReadBatch/Release cycle costs no steady-state allocations. Entries
// carry no volume affinity: Release scrubs every reference into the old
// volume's data.
var batchPool = sync.Pool{New: func() any { return new(ReadBatch) }}

// NewReadBatch returns an empty batch bound to v, recycled from the
// package pool when one is available. Pass it back to Release when done
// with it (serve shards do this on Array.Close) — or don't: an unreleased
// batch is ordinary garbage.
func (v *Volume) NewReadBatch() *ReadBatch {
	b := batchPool.Get().(*ReadBatch)
	b.v = v
	return b
}

// Release scrubs the batch's references into volume-owned memory (blobs,
// cache slots, token streams) and returns it to the package pool. The
// capacities that make reuse cheap — buffer, op/job/item arrays, layouts,
// deferred lists, the pending map — are kept. The batch must not be used
// after Release.
func (b *ReadBatch) Release() {
	if b == nil {
		return
	}
	jobs := b.jobs[:cap(b.jobs)]
	for i := range jobs {
		jb := &jobs[i]
		jb.blob = nil
		jb.cacheSlot = nil
		jb.err = nil
		parts := jb.lay.Parts[:cap(jb.lay.Parts)]
		for p := range parts {
			parts[p].Tokens = nil
		}
	}
	items := b.items[:cap(b.items)]
	for i := range items {
		items[i].err = nil
	}
	ops := b.ops[:cap(b.ops)]
	for i := range ops {
		ops[i].err = nil
	}
	b.ops = b.ops[:0]
	b.jobs = b.jobs[:0]
	b.items = b.items[:0]
	clear(b.pending)
	b.v = nil
	batchPool.Put(b)
}

// grow extends sl by one without clearing the recycled element's backing
// arrays (layouts, deferred lists). Callers must reset every scalar field.
func growJob(sl []batchJob) []batchJob {
	if len(sl) < cap(sl) {
		return sl[:len(sl)+1]
	}
	return append(sl, batchJob{})
}

func growItem(sl []batchItem) []batchItem {
	if len(sl) < cap(sl) {
		return sl[:len(sl)+1]
	}
	return append(sl, batchItem{})
}

// Plan is the sequential decision phase. It validates every LBA up front
// (an invalid LBA fails the whole batch before any accounting, mirroring
// the serial path's pre-validation), then runs planRead per read — the
// ordered half ReadInto runs — recording decode work as items for the
// parallel phase. After Plan returns, Items reports how much parallel work
// there is.
func (b *ReadBatch) Plan(lbas []int64) error {
	v := b.v
	for _, lba := range lbas {
		if lba < 0 || lba >= v.cfg.Blocks {
			return fmt.Errorf("volume: lba %d outside [0,%d)", lba, v.cfg.Blocks)
		}
	}
	b.ops = b.ops[:0]
	b.jobs = b.jobs[:0]
	b.items = b.items[:0]
	clear(b.pending) // no-op on the nil map of a batch that never missed
	h0, m0 := v.cache.hits, v.cache.misses
	a0, g0 := v.cache.admissions, v.cache.ghostHits
	start := v.now
	bs := v.cfg.BlockSize
	if need := len(lbas) * bs; cap(b.buf) < need {
		b.buf = make([]byte, need)
	} else {
		b.buf = b.buf[:need]
	}
	for i, lba := range lbas {
		region := b.buf[i*bs : (i+1)*bs]
		p := v.planRead(lba)
		op := batchOp{lba: lba, src: p.src, job: -1, lat: p.lat, err: p.err}
		switch {
		case p.src == srcZero:
			clear(region)
		case p.src == srcCache:
			if j, pend := b.pending[p.fp]; pend {
				// The entry was reserved by an earlier read in this batch;
				// its bytes exist only after that job decodes. Copy at
				// commit.
				op.src, op.job = srcPending, j
			} else {
				copy(region, p.cached)
			}
		case p.err == nil:
			op.job = b.addJob(i, &p)
		}
		b.ops = append(b.ops, op)
	}
	b.cacheHits = v.cache.hits - h0
	b.cacheMisses = v.cache.misses - m0
	b.cacheAdmissions = v.cache.admissions - a0
	b.cacheGhostHits = v.cache.ghostHits - g0
	b.elapsed = v.now - start
	return nil
}

// addJob records read i's planned miss as a decode job and returns its index.
func (b *ReadBatch) addJob(i int, p *readPlan) int32 {
	j := int32(len(b.jobs))
	b.jobs = growJob(b.jobs)
	jb := &b.jobs[j]
	jb.op = i
	jb.fp = p.fp
	jb.blob = p.blob
	jb.firstItem = len(b.items)
	// Only a reserved slot can produce a pending hit, so the map (allocated
	// lazily, on the first cached miss ever) stays empty — and untouched —
	// on cache-disabled volumes.
	jb.cacheSlot = p.slot
	if p.slot != nil {
		if b.pending == nil {
			b.pending = make(map[dedup.Fingerprint]int32, 64)
		}
		b.pending[p.fp] = j
	}
	// Boundary resolution (pass 1 of the two-pass decode): table-only,
	// cheap, and sequential — it decides how many parallel items the blob
	// contributes: none for a corrupt table (the error surfaces at commit),
	// one on the serial decoder for a raw, single-stream or wrong-size blob.
	indexed, err := lz.ResolveSubBlocks(&jb.lay, p.blob)
	sub := err == nil && indexed && jb.lay.SrcLen == b.v.cfg.BlockSize
	jb.err = err
	switch {
	case err != nil:
		jb.items = 0
	case sub:
		jb.items = len(jb.lay.Parts)
	default:
		jb.items = 1
	}
	for part := int32(0); int(part) < jb.items; part++ {
		b.items = growItem(b.items)
		it := &b.items[len(b.items)-1]
		it.job = j
		it.part = -1
		if sub {
			it.part = part
		}
		it.err = nil
	}
	return j
}

// Items returns the number of parallel decode items Plan produced.
func (b *ReadBatch) Items() int { return len(b.items) }

// RunItem executes decode item i. Distinct items may run concurrently:
// each writes only its own output range and its own item record.
func (b *ReadBatch) RunItem(i int) {
	it := &b.items[i]
	jb := &b.jobs[it.job]
	if jb.err != nil {
		return // boundary resolution already failed at plan time
	}
	bs := b.v.cfg.BlockSize
	region := b.buf[jb.op*bs : (jb.op+1)*bs]
	if it.part >= 0 {
		if it.deferred == nil {
			// Presize cold slots: deferred lists are short (overlap history
			// plus hole chains), so one up-front block replaces append's
			// doubling walk on the first batch through this slot.
			it.deferred = make([]lz.DeferredCopy, 0, 16)
		}
		it.deferred = it.deferred[:0]
		it.deferred, _, it.err = lz.DecodeSubPart(region, &jb.lay, int(it.part), it.deferred)
		return
	}
	// A recycled item slot may hold deferred copies from an earlier batch's
	// sub-part decode; Commit patches deferred unconditionally, so a stale
	// list here would corrupt the freshly decoded block.
	it.deferred = it.deferred[:0]
	// Three-index slice: region's capacity must not leak into the next
	// op's region if a corrupt blob over-decodes (append reallocates
	// instead, and decodeBlock rejects the size).
	out, err := decodeBlock(region[0:0:bs], jb.blob, bs)
	if err != nil {
		it.err = err
	} else if &out[0] != &region[0] {
		copy(region, out)
	}
}

// Commit is the sequential commit phase: deferred overlap copies are
// patched per job in item order, reserved cache entries are filled (or
// removed when their decode failed), and pending-hit reads copy out of the
// decoding op's region. After Commit, Block/Err/Latency are valid.
func (b *ReadBatch) Commit() {
	v := b.v
	bs := v.cfg.BlockSize
	for j := range b.jobs {
		jb := &b.jobs[j]
		region := b.buf[jb.op*bs : (jb.op+1)*bs]
		if jb.err == nil {
			for k := jb.firstItem; k < jb.firstItem+jb.items; k++ {
				it := &b.items[k]
				if it.err != nil {
					jb.err = it.err
					break
				}
				// Per-part deferred lists patched in part order are exactly
				// the concatenated global list.
				lz.ResolveDeferred(region, it.deferred)
			}
		}
		if jb.err != nil {
			op := &b.ops[jb.op]
			op.err = fmt.Errorf("volume: lba %d: %w", op.lba, jb.err)
			// Un-reserve: a garbage block must never serve later reads.
			v.cache.remove(jb.fp)
		} else if jb.cacheSlot != nil {
			copy(jb.cacheSlot, region)
		}
	}
	for i := range b.ops {
		op := &b.ops[i]
		if op.src != srcPending {
			continue
		}
		jb := &b.jobs[op.job]
		if jb.err != nil {
			op.err = fmt.Errorf("volume: lba %d: %w", op.lba, jb.err)
			continue
		}
		copy(b.buf[i*bs:(i+1)*bs], b.buf[jb.op*bs:(jb.op+1)*bs])
	}
}

// Block returns read i's bytes (zeros when unmapped, garbage when Err(i)
// is non-nil). The slice aliases the batch's buffer and is valid until the
// next Plan.
func (b *ReadBatch) Block(i int) []byte {
	bs := b.v.cfg.BlockSize
	return b.buf[i*bs : (i+1)*bs]
}

// Latency returns read i's virtual latency.
func (b *ReadBatch) Latency(i int) time.Duration { return b.ops[i].lat }

// Err returns read i's error, nil on success.
func (b *ReadBatch) Err(i int) error { return b.ops[i].err }

// Errors counts failed reads in the batch.
func (b *ReadBatch) Errors() int {
	n := 0
	for i := range b.ops {
		if b.ops[i].err != nil {
			n++
		}
	}
	return n
}

// DecodedBlobs returns how many blob decodes the batch executed (cache
// hits, pending hits, and unmapped reads decode nothing).
func (b *ReadBatch) DecodedBlobs() int { return len(b.jobs) }

// ReadBatch plans, decodes, and commits lbas in one call. The parallel
// phase fans out over pool when it is non-nil (a nil pool decodes inline,
// the determinism baseline). b may be nil to allocate a fresh batch;
// passing a previous batch back in — this volume's or another's — recycles
// its buffers and binds it to v. The returned batch holds the per-read
// results.
//
// Virtual-time accounting is bit-identical to calling ReadInto per LBA in
// order, for any pool size — the clock only advances in Plan.
func (v *Volume) ReadBatch(b *ReadBatch, lbas []int64, pool *parallel.Pool) (*ReadBatch, error) {
	if b == nil {
		b = v.NewReadBatch()
	}
	b.v = v // Plan resets everything else
	if err := b.Plan(lbas); err != nil {
		return b, err
	}
	if pool != nil {
		pool.Map(b.Items(), b.RunItem)
	} else {
		for i := 0; i < b.Items(); i++ {
			b.RunItem(i)
		}
	}
	b.Commit()
	return b, nil
}

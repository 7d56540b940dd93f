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
//	         every charge on the virtual clock is made here. Each miss is
//	         recorded as a decode job instead of executed.
//	Run    — parallel work phase: one item per job, in any order, on any
//	         number of goroutines. An item owns its blob's whole decode —
//	         table parse, part-by-part decode, overlap patch-up — and the
//	         fill of its reserved cache slot, writing only its own region.
//	Commit — sequential commit phase: failed jobs' errors are wrapped and
//	         their slots un-reserved, and reads that hit a pending-decode
//	         cache entry copy their bytes out.
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

// batchJob is one blob decode charged at plan time and executed by RunItem.
type batchJob struct {
	op        int // owning op: the job decodes into that op's buffer region
	fp        dedup.Fingerprint
	blob      []byte
	cacheSlot []byte // reserved cache entry bytes, nil when not cached
	// Decode scratch, recycled across batches and reset by every RunItem.
	lay      lz.SubLayout
	deferred []lz.DeferredCopy
	parts    int // sub-blocks decoded: 1 for a whole-blob decode, 0 for a corrupt table
	err      error
}

// ReadBatch executes batches of reads through the phased plan / run /
// commit split. A ReadBatch is reusable: each Plan call resets it, and its
// buffers (including sub-block layouts and deferred-copy lists) are
// recycled across batches. Between Plan and Commit, RunItem calls for
// distinct items — one per blob to decode — are safe to run concurrently;
// everything else must be called from one goroutine.
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
	pending map[dedup.Fingerprint]int32 // fp -> job decoding it this batch

	// What the last Plan moved: the cache counters and the clock.
	cacheHits, cacheMisses, cacheAdmissions, cacheGhostHits int64
	elapsed                                                 time.Duration
	parts                                                   int64 // summed by Commit
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
	DecodedParts    int64         `json:"decoded_parts"` // sub-blocks decoded (a whole-blob decode counts one, a corrupt table zero)
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
		DecodedBlobs: int64(len(b.jobs)), DecodedParts: b.parts,
		CacheHits: b.cacheHits, CacheMisses: b.cacheMisses,
		CacheAdmissions: b.cacheAdmissions, CacheGhostHits: b.cacheGhostHits,
		Elapsed: b.elapsed,
	}
}

// batchPool recycles whole ReadBatch values — backing buffer, op/job
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
// capacities that make reuse cheap — buffer, op/job arrays, layouts,
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
	ops := b.ops[:cap(b.ops)]
	for i := range ops {
		ops[i].err = nil
	}
	b.ops = b.ops[:0]
	b.jobs = b.jobs[:0]
	clear(b.pending)
	b.v = nil
	batchPool.Put(b)
}

// growJob extends sl by one without clearing the recycled element's backing
// arrays (layout, deferred list). Callers must reset every scalar field.
func growJob(sl []batchJob) []batchJob {
	if len(sl) < cap(sl) {
		return sl[:len(sl)+1]
	}
	return append(sl, batchJob{})
}

// Plan is the sequential decision phase. It validates every LBA up front
// (an invalid LBA fails the whole batch before any accounting, mirroring
// the serial path's pre-validation), then runs planRead per read — the
// ordered half ReadInto runs — recording each miss as a decode job for the
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
			op.job = int32(len(b.jobs))
			b.jobs = growJob(b.jobs)
			jb := &b.jobs[op.job]
			jb.op, jb.fp, jb.blob, jb.cacheSlot = i, p.fp, p.blob, p.slot
			// Only a reserved slot can produce a pending hit, so the map
			// (allocated lazily, on the first cached miss ever) stays empty —
			// and untouched — on cache-disabled volumes.
			if p.slot != nil {
				if b.pending == nil {
					b.pending = make(map[dedup.Fingerprint]int32, 64)
				}
				b.pending[p.fp] = op.job
			}
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

// Items returns the number of parallel decode items Plan produced: one per
// blob to decode, so it equals DecodedBlobs.
func (b *ReadBatch) Items() int { return len(b.jobs) }

// RunItem decodes job j's blob into its op's region and, on success, fills
// the job's reserved cache slot. Distinct items may run concurrently: each
// writes only its own region, slot and job record.
func (b *ReadBatch) RunItem(j int) {
	jb := &b.jobs[j]
	bs := b.v.cfg.BlockSize
	region := b.buf[jb.op*bs : (jb.op+1)*bs]
	jb.parts, jb.err = jb.decode(region)
	if jb.err == nil {
		copy(jb.cacheSlot, region) // no-op on a nil slot
	}
}

// decode writes jb's block into region and returns how many sub-blocks it
// decoded. An indexed container of the block's size decodes part by part
// (the indexed decoder beats the serial one even on one goroutine), its
// overlap copies patched after the last part; a corrupt table decodes
// nothing; anything else — raw, single-stream, a wrong-size container —
// goes whole to the serial decoder.
func (jb *batchJob) decode(region []byte) (int, error) {
	bs := len(region)
	indexed, err := lz.ResolveSubBlocks(&jb.lay, jb.blob)
	if err != nil {
		return 0, err
	}
	if indexed && jb.lay.SrcLen == bs {
		if jb.deferred == nil {
			// Presize a cold job: deferred lists are short (overlap history
			// plus hole chains), so one up-front block replaces append's
			// doubling walk on the first batch through this slot.
			jb.deferred = make([]lz.DeferredCopy, 0, 64)
		}
		jb.deferred = jb.deferred[:0]
		for p := range jb.lay.Parts {
			if jb.deferred, _, err = lz.DecodeSubPart(region, &jb.lay, p, jb.deferred); err != nil {
				return len(jb.lay.Parts), err
			}
		}
		lz.ResolveDeferred(region, jb.deferred)
		return len(jb.lay.Parts), nil
	}
	// Three-index slice: region's capacity must not leak into the next
	// op's region if a corrupt blob over-decodes (append reallocates
	// instead, and decodeBlock rejects the size).
	out, err := decodeBlock(region[0:0:bs], jb.blob, bs)
	if err == nil && &out[0] != &region[0] {
		copy(region, out)
	}
	return 1, err
}

// Commit is the sequential commit phase: failed decodes' errors are
// wrapped onto their reads and their reserved cache entries removed, and
// pending-hit reads copy out of the decoding op's region. After Commit,
// Block/Err/Latency/Totals are valid.
func (b *ReadBatch) Commit() {
	v := b.v
	bs := v.cfg.BlockSize
	b.parts = 0
	for j := range b.jobs {
		jb := &b.jobs[j]
		b.parts += int64(jb.parts)
		if jb.err != nil {
			op := &b.ops[jb.op]
			op.err = fmt.Errorf("volume: lba %d: %w", op.lba, jb.err)
			// Un-reserve: a garbage block must never serve later reads.
			v.cache.remove(jb.fp)
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
// phase — one item per blob to decode — fans out over pool when it is
// non-nil (a nil pool decodes inline, the determinism baseline). b may be
// nil to allocate a fresh batch;
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

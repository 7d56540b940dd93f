package volume

import (
	"fmt"
	"sync"
	"time"

	"inlinered/internal/dedup"
	"inlinered/internal/parallel"
)

// The batch read path splits a group of reads into the same three phases
// the write-side pipeline uses:
//
//	Plan   — sequential decision phase: planRead per LBA, in request
//	         order — the same ordered half the serial ReadInto runs, so
//	         every charge on the virtual clock is made here. Each miss is
//	         recorded as a decode job instead of executed; a repeat miss
//	         on a fingerprint the batch already decodes is linked to that
//	         fingerprint's first job.
//	Run    — parallel work phase: one item per distinct blob, in any
//	         order, on any number of goroutines. An item decodes its blob
//	         whole, the call ReadInto makes, straight into its first
//	         job's bytes, then fills the linked repeats: a copy into a
//	         repeat's own cache slot, the first job's error for all.
//	Commit — sequential commit phase: failed jobs' errors are wrapped onto
//	         their reads (pending hits included) and their slots
//	         un-reserved.
//
// Only a repeat miss with a slot of its own copies a block. A read's bytes
// are where they already live: the cache entry a hit found or a miss
// reserved (the miss decodes into it), a block of zeros, or — for a miss
// the cache did not take — its first job's bytes or a region of the batch
// buffer. The batch holds a lease on the cache from Plan to its next
// Plan or Release, so no buffer it aliases is handed to another fingerprint
// meanwhile (blockCache.recycle).
//
// Because every virtual-clock mutation happens in Plan, in request order,
// the report is bit-identical to the serial loop for any worker count. The
// one divergence from N serial ReadInto calls is documented on ReadBatch.

type batchOp struct {
	lba  int64
	data []byte // the read's bytes: a cache entry, zeros, or a buf region
	src  int8
	job  int32 // decode job index (srcDecode/srcPending), -1 otherwise
	lat  time.Duration
	err  error
}

// batchJob is one blob decode charged at plan time. RunItem decodes the
// first job per fingerprint into its op's bytes and fills the repeats
// chained after it from those.
type batchJob struct {
	op   int   // owning op
	next int32 // next job on the same fingerprint, -1 at the chain's end
	fp   dedup.Fingerprint
	blob []byte
	err  error
}

// ReadBatch executes batches of reads through the phased plan / run /
// commit split. A ReadBatch is reusable: each Plan call resets it, and its
// buffers are recycled across batches. Between Plan and Commit, RunItem
// calls for distinct items — one per distinct blob to decode — are safe to
// run concurrently; everything else must be called from one goroutine.
//
// The one divergence from the serial path is inherent to batching, and
// needs a corrupt blob (healthy volumes are bit-identical): the entry a
// failing decode reserved stays in the cache until Commit. A later read of
// the same batch hitting it is priced as a cache hit and reports the decode
// error — serially the first read would have un-reserved the entry and the
// second would have missed — and meanwhile it takes cache space, so it may
// evict an entry the serial loop would have kept.
type ReadBatch struct {
	v       *Volume
	leased  *blockCache // the cache that granted lease, nil when none is held
	lease   uint64
	buf     []byte // regions for misses with no cache slot
	zero    []byte // one block of zeros: every unmapped read's bytes
	ops     []batchOp
	jobs    []batchJob
	items   []int32                     // each distinct blob's first job
	pending map[dedup.Fingerprint]int32 // fp -> first job decoding it this batch

	// What the last Plan moved: the cache counters and the clock.
	cache   CacheCounters
	elapsed time.Duration
}

// ReadTotals is the accounting every level of a batch-read report carries
// — one volume's batch, one shard's, one array's, one node's — and the unit
// the levels merge by. The cache counters are all taken during the
// sequential plan phases, so they are as deterministic as the virtual
// clock. Hits + misses can undercount Reads: unmapped reads never consult
// the cache.
type ReadTotals struct {
	Reads        int   `json:"reads"`
	Errors       int64 `json:"errors"`
	DecodedBlobs int64 `json:"decoded_blobs"` // blob decodes charged (misses); repeats in a batch run once
	CacheCounters
	Elapsed time.Duration `json:"elapsed_ns"` // virtual; the slowest child's once merged
}

// Add merges a child's totals into t: counters sum, and Elapsed is the
// slowest child's (children run concurrently in simulated time).
func (t *ReadTotals) Add(o ReadTotals) {
	t.Reads += o.Reads
	t.Errors += o.Errors
	t.DecodedBlobs += o.DecodedBlobs
	t.CacheCounters.add(o.CacheCounters)
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
		Reads: len(b.ops), Errors: int64(b.Errors()), DecodedBlobs: int64(len(b.jobs)),
		CacheCounters: b.cache, Elapsed: b.elapsed,
	}
}

// batchPool recycles whole ReadBatch values — backing buffer, op/job
// arrays and the pending map all survive from one batch's lifetime to the
// next, so a fresh NewReadBatch/Release cycle costs no steady-state
// allocations. Entries carry no volume affinity: Release scrubs every
// reference into the old volume's data.
var batchPool = sync.Pool{New: func() any { return new(ReadBatch) }}

// NewReadBatch returns an empty batch bound to v, recycled from the
// package pool when one is available. Pass it back to Release when done
// with it (serve shards do this on Array.Close) — or don't: an unreleased
// batch is ordinary garbage. Its lease then never ends, which costs the
// cache the reuse of buffers it evicts, never memory (blockCache.recycle).
func (v *Volume) NewReadBatch() *ReadBatch {
	b := batchPool.Get().(*ReadBatch)
	b.v = v
	return b
}

// Release ends the batch's lease, scrubs its references into volume-owned
// memory (blobs, cache entries, errors) and returns it to the package pool.
// The capacities that make reuse cheap — buffer, op/job arrays, the pending
// map — are kept. The batch must not be used after Release.
func (b *ReadBatch) Release() {
	if b == nil {
		return
	}
	b.endLease()
	clear(b.jobs[:cap(b.jobs)])
	clear(b.ops[:cap(b.ops)])
	b.ops = b.ops[:0]
	b.jobs = b.jobs[:0]
	b.items = b.items[:0]
	clear(b.pending)
	b.v = nil
	batchPool.Put(b)
}

// endLease ends the batch's lease on the cache that granted it, which is
// not b.v's once the batch has been rebound to another volume.
func (b *ReadBatch) endLease() {
	if b.leased != nil {
		b.leased.release()
		b.leased = nil
	}
}

// Plan is the sequential decision phase. It validates every LBA up front
// (an invalid LBA fails the whole batch before any accounting, mirroring
// the serial path's pre-validation), ends the previous batch's lease and
// takes a new one, then runs planRead per read — the ordered half ReadInto
// runs — recording each miss as a decode job for the parallel phase. After
// Plan returns, Items reports how much parallel work there is.
func (b *ReadBatch) Plan(lbas []int64) error {
	v := b.v
	for _, lba := range lbas {
		if lba < 0 || lba >= v.cfg.Blocks {
			return fmt.Errorf("volume: lba %d outside [0,%d)", lba, v.cfg.Blocks)
		}
	}
	b.endLease()
	b.leased, b.lease = v.cache, v.cache.acquire(len(lbas))
	b.ops = b.ops[:0]
	b.jobs = b.jobs[:0]
	b.items = b.items[:0]
	b.buf = b.buf[:0]
	clear(b.pending) // no-op on the nil map of a batch that never missed
	before := v.cache.CacheCounters
	start := v.now
	bs := v.cfg.BlockSize
	if len(b.zero) != bs {
		b.zero = make([]byte, bs)
	}
	for i, lba := range lbas {
		p := v.planRead(lba, b.lease)
		op := batchOp{lba: lba, data: b.zero, src: p.src, job: -1, lat: p.lat, err: p.err}
		switch {
		case p.src == srcCache:
			op.data = p.cached
			if j, pend := b.pending[p.fp]; pend {
				// The entry was reserved by a read in this batch (the cache
				// held no entry for fp at its first miss): its bytes, and
				// its error, come from that fingerprint's decode.
				op.src, op.job = srcPending, j
			}
		case p.src == srcDecode && p.err == nil:
			op.job, op.data = int32(len(b.jobs)), p.slot
			jb := batchJob{op: i, next: -1, fp: p.fp, blob: p.blob}
			if b.pending == nil { // allocated on the first miss ever
				b.pending = make(map[dedup.Fingerprint]int32, 64)
			}
			if first, seen := b.pending[p.fp]; seen {
				// A repeat: charged like any miss, decoded once. Its bytes
				// are its own slot (filled by a copy) or the first job's.
				jb.next, b.jobs[first].next = b.jobs[first].next, op.job
				if op.data == nil {
					op.data = b.ops[b.jobs[first].op].data
				}
			} else {
				b.pending[p.fp] = op.job
				b.items = append(b.items, op.job)
				if op.data == nil {
					op.data = b.region(bs)
				}
			}
			b.jobs = append(b.jobs, jb)
		}
		b.ops = append(b.ops, op)
	}
	b.cache = v.cache.CacheCounters.since(before)
	b.elapsed = v.now - start
	return nil
}

// region hands out the next bs bytes of the batch buffer. A full buffer is
// replaced rather than grown in place: the regions handed out keep the old
// one alive.
func (b *ReadBatch) region(bs int) []byte {
	n := len(b.buf)
	if n+bs > cap(b.buf) {
		b.buf, n = make([]byte, 0, 2*cap(b.buf)+16*bs), 0
	}
	b.buf = b.buf[:n+bs]
	return b.buf[n : n+bs : n+bs]
}

// Items returns the number of parallel decode items Plan produced: one per
// distinct blob to decode, so it is at most DecodedBlobs.
func (b *ReadBatch) Items() int { return len(b.items) }

// RunItem decodes item i's blob once through decodeBlock, the call
// ReadInto makes, into its first job's bytes — the reserved cache slot, or
// a region of the batch buffer — then gives every repeat chained after it
// the same error and, on success, a copy into the repeat's own slot (a
// repeat without one already aliases the first job's bytes). Distinct
// items may run concurrently: each writes only its own jobs' bytes and
// records.
func (b *ReadBatch) RunItem(i int) {
	jb := &b.jobs[b.items[i]]
	out := b.ops[jb.op].data
	// Decoding appends to out[:0]: out's capacity is one block, so on
	// success the bytes are in out. A corrupt blob that over-decodes moves
	// to a new array instead, and decodeBlock rejects the size.
	_, jb.err = decodeBlock(out[:0], jb.blob, len(out))
	for k := jb.next; k >= 0; k = b.jobs[k].next {
		r := &b.jobs[k]
		r.err = jb.err
		if dst := b.ops[r.op].data; jb.err == nil && &dst[0] != &out[0] {
			copy(dst, out)
		}
	}
}

// Commit is the sequential commit phase: failed decodes' errors are
// wrapped onto their reads, pending hits included, and their reserved
// cache entries removed. After Commit, Block/Err/Latency/Totals are valid.
func (b *ReadBatch) Commit() {
	for j := range b.jobs {
		if jb := &b.jobs[j]; jb.err != nil {
			op := &b.ops[jb.op]
			op.err = fmt.Errorf("volume: lba %d: %w", op.lba, jb.err)
			// Un-reserve: a garbage block must never serve later reads.
			b.v.cache.remove(jb.fp)
		}
	}
	for i := range b.ops {
		if op := &b.ops[i]; op.src == srcPending && b.jobs[op.job].err != nil {
			op.err = fmt.Errorf("volume: lba %d: %w", op.lba, b.jobs[op.job].err)
		}
	}
}

// Block returns read i's bytes (zeros when unmapped, garbage when Err(i)
// is non-nil). The slice is read-only: it may alias a cache entry, or the
// zeros every unmapped read of the batch shares. It is valid until the
// next Plan or Release.
func (b *ReadBatch) Block(i int) []byte { return b.ops[i].data }

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

// DecodedBlobs returns how many blob decodes the batch charged: one per
// miss, repeats included, though RunItem executes one per distinct blob
// (cache hits, pending hits, and unmapped reads decode nothing).
func (b *ReadBatch) DecodedBlobs() int { return len(b.jobs) }

// ReadBatch plans, decodes, and commits lbas in one call. The parallel
// phase — one item per distinct blob to decode — fans out over pool when
// it is non-nil (a nil pool decodes inline, the determinism baseline). b
// may be nil to allocate a fresh batch;
// passing a previous batch back in — this volume's or another's — recycles
// its buffers, ends its lease and binds it to v. The returned batch holds
// the per-read results.
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

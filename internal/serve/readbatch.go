package serve

import (
	"fmt"
	"time"

	"inlinered/internal/parallel"
	"inlinered/internal/sim"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// ReadBatchOptions tune a batch read run. Nothing here may affect the
// report — only the op list and the array's configuration do.
type ReadBatchOptions struct {
	// Clients is the number of worker goroutines draining shard batches
	// (0 means one per shard). Wall clock only.
	Clients int
	// Sink, when non-nil, receives every read's result as its shard
	// commits: i is the read's position in the batch, block aliases internal
	// buffers and is valid only for the duration of the call. Sink is
	// called concurrently from multiple goroutines (at most one per shard
	// at a time), so it must be safe for concurrent use — writing to
	// distinct per-i slots is the intended pattern. No lock is held while it
	// runs, so it may call back into the Array.
	Sink func(i int, block []byte, err error)
}

// ReadTotals is the accounting every level of a batch-read report carries
// and merges by; the volume's batch produces it.
type ReadTotals = volume.ReadTotals

// ReadShardReport is one shard's slice of a batch read.
type ReadShardReport struct {
	ReadTotals
	Now time.Duration `json:"now_ns"`
}

// ReadBatchReport summarizes one Array.ReadBatch run. Like Report, it
// excludes the client count, the decode parallelism, and any wall-clock
// measurement: runs differing only in scheduling encode to identical
// bytes.
type ReadBatchReport struct {
	Shards int `json:"shards"`
	ReadTotals
	PerShard []ReadShardReport `json:"per_shard"`
}

// ReadBatchReportSchema versions the batch-read report envelope. v2 added
// the cache_* counters from the scan-resistant admission policy.
const ReadBatchReportSchema = "inlinered/serve-readbatch-report/v2"

// JSON encodes the report as stable, indented JSON with a schema envelope.
func (r *ReadBatchReport) JSON() ([]byte, error) {
	return sim.EncodeReport(ReadBatchReportSchema, r)
}

// String renders a one-look summary.
func (r *ReadBatchReport) String() string {
	return fmt.Sprintf(
		"shards=%d reads=%d errors=%d decoded blobs=%d parts=%d cache hits=%d/%d (%.1f%%) elapsed=%v",
		r.Shards, r.Reads, r.Errors, r.DecodedBlobs, r.DecodedParts,
		r.CacheHits, r.CacheHits+r.CacheMisses, 100*r.HitRate(),
		r.Elapsed.Round(time.Microsecond))
}

// Close stops the decode workers and returns every shard's batch state to
// the package recycling pool. It waits for batches in flight (a Serve holds
// a shard's lock until the shard's last posted task has run), is
// idempotent, and leaves the array usable — a later ReadBatch restarts
// both. Arrays that never call ReadBatch need not call Close.
func (a *Array) Close() {
	a.pool.Close()
	for _, s := range a.shards {
		s.mu.Lock()
		s.rb.Release()
		s.rb = nil
		s.mu.Unlock()
	}
}

// ReadBatch executes a batch of reads across the shards. It is the Serve
// skeleton — validate, partition, workers claim whole shards, merge — with
// volume.ReadBatch as the per-shard drain: under that shard's lock alone,
// the sequential plan phase (cache, SSD, and virtual-clock accounting in
// the shard's op order), the decode fan-out over the array's worker pool
// (one item per missed blob, which also fills its cache slot: one more
// round on the queue all shards share, the claiming worker lending itself
// until it is done), and the sequential commit; results go to opt.Sink once
// the lock is released.
//
// Shard queues are an order-preserving partition of lbas, so each shard's
// virtual state is a pure function of its subsequence — the report is
// bit-identical for any Clients, Config.Parallelism, or GOMAXPROCS.
func (a *Array) ReadBatch(lbas []int64, opt ReadBatchOptions) (*ReadBatchReport, error) {
	for i, lba := range lbas {
		if lba < 0 || lba >= a.blocks {
			return nil, fmt.Errorf("serve: read %d: lba %d outside [0,%d)", i, lba, a.blocks)
		}
	}
	n := int64(len(a.shards))
	part := lbaPartitions.Get().(*parallel.Partition[int64])
	defer lbaPartitions.Put(part)
	part.Split(len(lbas), len(a.shards),
		func(i int) int { return int(lbas[i] % n) },
		func(i int) int64 { return lbas[i] / n })

	rep := &ReadBatchReport{Shards: len(a.shards), PerShard: make([]ReadShardReport, len(a.shards))}
	err := a.pool.ForEach(len(a.shards), opt.Clients, func(i int) (err error) {
		rep.PerShard[i], err = a.readShard(i, part.Queues[i], part.Pos[i], opt.Sink)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := range rep.PerShard {
		rep.Add(rep.PerShard[i].ReadTotals)
	}
	return rep, nil
}

// readShard drains one shard's queue of shard-local LBAs through the
// volume's plan / decode / commit under the shard lock — the decode workers
// touch shard state, which must stay fenced from direct calls — and then,
// with the lock released and the shard's batch checked out (s.rb is nil
// meanwhile, so the next batch on the shard takes a fresh one), hands read
// k's result to sink as batch position pos[k].
func (a *Array) readShard(i int, lbas []int64, pos []int, sink func(int, []byte, error)) (ReadShardReport, error) {
	s := a.shards[i]
	s.mu.Lock()
	rb, err := s.v.ReadBatch(s.rb, lbas, a.pool)
	s.rb = rb
	if err != nil {
		s.mu.Unlock()
		return ReadShardReport{}, err
	}
	rep := ReadShardReport{ReadTotals: rb.Totals(), Now: s.v.Now()}
	if sink == nil {
		s.mu.Unlock()
		return rep, nil
	}
	s.rb = nil
	s.mu.Unlock()
	for k, at := range pos {
		sink(at, rb.Block(k), rb.Err(k))
	}
	s.mu.Lock()
	if s.rb == nil {
		s.rb = rb
	} else {
		rb.Release()
	}
	s.mu.Unlock()
	return rep, nil
}

// ReadOps filters a workload op list down to its reads' LBAs — the bridge
// from a mixed ClosedLoop/preset stream to the batch read path.
func ReadOps(ops []workload.Op) []int64 {
	lbas := make([]int64, 0, len(ops))
	for _, op := range ops {
		if op.Kind == workload.OpRead {
			lbas = append(lbas, op.LBA)
		}
	}
	return lbas
}

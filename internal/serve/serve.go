// Package serve is the sharded, goroutine-safe serving front-end over the
// deduplicating volume. A single volume.Volume is strictly single-threaded
// — one caller, one virtual clock — which caps a multi-tenant array at one
// outstanding request. serve routes LBAs across N independent volume shards
// (lba % N picks the shard, lba / N is the shard-local address), each with
// its own virtual clock, fault-injector stream, recorder lanes, and journal
// region, so concurrent clients drive shards in parallel on the wall clock.
//
// Determinism contract: sharding parallelizes the WALL clock, never the
// virtual one. Each shard's state is a pure function of (its op sequence,
// its fault seed), and the batch Serve path fixes every shard's op sequence
// up front — an order-preserving partition of the caller's op list — before
// any goroutine runs. Workers claim whole shard queues, so scheduling
// decides only WHEN a shard executes, never WHAT it executes. Merged
// reports therefore compare bit-for-bit across GOMAXPROCS and client
// counts at a fixed seed and shard count; only the shard count changes
// results. The direct Write/Read/Trim methods are goroutine-safe (per-shard
// mutexes) but interleave in arrival order, so only the batch path promises
// bit-identity.
package serve

import (
	"fmt"
	"sync"
	"time"

	"inlinered/internal/metrics"
	"inlinered/internal/obs"
	"inlinered/internal/parallel"
	"inlinered/internal/sim"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// shardSeedStride separates per-shard fault streams: shard i injects from
// Seed + i*stride. Shard 0 keeps the caller's seed unchanged, so a 1-shard
// array reproduces a raw volume exactly.
const shardSeedStride = 0x6A09E667F3BCC909

// payloadFill is the random-byte fraction (workload.UniqueChunk's fill) of
// every payload Serve materialises from a content id.
const payloadFill = 0.5

// Config describes a sharded array.
type Config struct {
	// Volume is the per-array configuration. Blocks is the ARRAY's logical
	// capacity; it is distributed across shards by the routing rule. Each
	// shard gets its own drive, cache, index, and journal region (shards
	// model independent backend volumes, so physical capacity scales with
	// the shard count).
	Volume volume.Config
	// Shards is the number of independent volumes (0 means 1).
	Shards int
	// Obs optionally attaches one recorder per shard (a recorder serves
	// exactly one volume's lanes). Length must be 0 or Shards.
	Obs []*obs.Recorder
	// Parallelism sizes the array's worker pool: Parallelism-1 goroutines
	// that run whatever is posted — each shard's blob decodes, one item per
	// missed blob (Array.ReadBatch), the write front's hash and encode
	// groups (Serve) —
	// beside the RunOptions.Clients goroutines draining queues. 0 or 1
	// starts none: batch reads decode inline and only clients run the
	// write front. Like Clients, it changes only the wall clock — reports
	// are bit-identical for any value.
	Parallelism int
}

// shard pairs a volume with the mutex that serializes every call into it.
type shard struct {
	mu sync.Mutex
	v  *volume.Volume
	// readBuf is the batch path's read staging buffer, reused across ops
	// and Serve calls under mu; the volume retains nothing of it (ReadInto
	// appends into the caller's buffer).
	readBuf []byte
	// rb is the shard's reusable batch-read state (lazily created; owned
	// by whoever holds mu).
	rb *volume.ReadBatch
}

// The batch paths' partition buffers, recycled across calls and arrays. A
// call takes one for its duration, so concurrent batches never share one.
var (
	opPartitions  = sync.Pool{New: func() any { return new(parallel.Partition[workload.Op]) }}
	lbaPartitions = sync.Pool{New: func() any { return new(parallel.Partition[int64]) }}
)

// Array is the sharded front-end. All methods are safe for concurrent use.
type Array struct {
	cfg    Config
	blocks int64
	shards []*shard
	// pool is the task queue batch reads post decodes on and write fronts
	// their hash and encode groups, and its workers (none at Parallelism <= 1).
	pool *parallel.Pool
}

// New builds an array of cfg.Shards independent volumes that decodes batch
// reads on its own pool of cfg.Parallelism workers.
func New(cfg Config) (*Array, error) {
	return NewWithPool(cfg, parallel.New(max(cfg.Parallelism, 1)))
}

// NewWithPool is New on the caller's pool instead (cfg.Parallelism is
// ignored). Concurrent callers share a pool's workers, so any number of
// arrays may share one pool — a cluster's nodes do, which is how a cluster
// worker with no node left lends itself to another node's shards.
func NewWithPool(cfg Config, pool *parallel.Pool) (*Array, error) {
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if n < 1 {
		return nil, fmt.Errorf("serve: shards must be >= 1, got %d", n)
	}
	if int64(n) > cfg.Volume.Blocks {
		return nil, fmt.Errorf("serve: %d shards over %d blocks leaves empty shards", n, cfg.Volume.Blocks)
	}
	if len(cfg.Obs) != 0 && len(cfg.Obs) != n {
		return nil, fmt.Errorf("serve: need 0 or %d recorders, got %d", n, len(cfg.Obs))
	}
	a := &Array{cfg: cfg, blocks: cfg.Volume.Blocks, shards: make([]*shard, n), pool: pool}
	for i := 0; i < n; i++ {
		vc := cfg.Volume
		// Shard i owns the LBAs congruent to i mod n.
		q, r := cfg.Volume.Blocks/int64(n), cfg.Volume.Blocks%int64(n)
		vc.Blocks = q
		if int64(i) < r {
			vc.Blocks++
		}
		// Independent fault streams per shard; shard 0 keeps the original
		// seed so the 1-shard array is bit-identical to a raw volume.
		vc.Faults.Seed += int64(i) * shardSeedStride
		vc.Obs = nil
		if len(cfg.Obs) == n {
			vc.Obs = cfg.Obs[i]
		}
		v, err := volume.New(vc)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		a.shards[i] = &shard{v: v}
	}
	return a, nil
}

// Shards returns the shard count.
func (a *Array) Shards() int { return len(a.shards) }

// Blocks returns the array's logical capacity in blocks.
func (a *Array) Blocks() int64 { return a.blocks }

// route maps an array LBA to its shard and shard-local LBA.
func (a *Array) route(lba int64) (*shard, int64, error) {
	if lba < 0 || lba >= a.blocks {
		return nil, 0, fmt.Errorf("serve: lba %d outside [0,%d)", lba, a.blocks)
	}
	n := int64(len(a.shards))
	return a.shards[lba%n], lba / n, nil
}

// Write stores one block. Safe for concurrent use; requests to the same
// shard serialize on its virtual clock.
func (a *Array) Write(lba int64, data []byte) (time.Duration, error) {
	s, local, err := a.route(lba)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v.Write(local, data)
}

// Read fetches one block (zeros when unmapped). Safe for concurrent use.
func (a *Array) Read(lba int64) ([]byte, time.Duration, error) {
	s, local, err := a.route(lba)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v.Read(local)
}

// Trim unmaps one block. Safe for concurrent use.
func (a *Array) Trim(lba int64) (time.Duration, error) {
	s, local, err := a.route(lba)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v.Trim(local)
}

// Clean runs every shard's segment cleaner and returns the total segments
// reclaimed. The first error is returned after all shards have run.
func (a *Array) Clean() (int, error) {
	total := 0
	var firstErr error
	for _, s := range a.shards {
		s.mu.Lock()
		n, err := s.v.Clean()
		s.mu.Unlock()
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// Now returns the array's virtual clock: the slowest shard's completion
// time (shards run concurrently in simulated time, so the array is done
// when its last shard is).
func (a *Array) Now() time.Duration {
	var now time.Duration
	for _, s := range a.shards {
		s.mu.Lock()
		now = max(now, s.v.Now())
		s.mu.Unlock()
	}
	return now
}

// ShardStats returns each shard's stats, in shard order.
func (a *Array) ShardStats() []volume.Stats {
	out := make([]volume.Stats, len(a.shards))
	for i, s := range a.shards {
		s.mu.Lock()
		out[i] = s.v.Stats()
		s.mu.Unlock()
	}
	return out
}

// Snapshot returns the array's accounting merged across shards, in the
// mergeable form the cluster tier merges again across arrays.
func (a *Array) Snapshot() volume.Snapshot {
	var out volume.Snapshot
	for _, s := range a.shards {
		s.mu.Lock()
		sn := s.v.Snapshot()
		s.mu.Unlock()
		out.Merge(&sn)
	}
	return out
}

// Stats returns the merged array stats: counters sum, and the latency
// summaries are recomputed from the merged per-shard histograms.
func (a *Array) Stats() volume.Stats {
	sn := a.Snapshot()
	return sn.Stats()
}

// RunOptions tune a batch Serve run. Only Clients affects the wall clock;
// nothing in RunOptions besides the op list and the array's seed/shard
// count may affect the report.
type RunOptions struct {
	// Clients is the number of goroutines Serve runs, the caller among
	// them (0 or more than the shard count means one per shard). Each
	// claims whole shard queues and commits them in order; one that finds
	// none left hashes and encodes ahead for the shards still draining. It
	// appears nowhere in the Report.
	Clients int
	// ContentSeed derives write payloads from op content ids.
	ContentSeed int64
	// CleanEvery runs a shard's segment cleaner every N ops executed on
	// that shard (0 disables periodic cleaning).
	CleanEvery int
}

// ShardReport is one shard's slice of a Serve run.
type ShardReport struct {
	Ops     int           `json:"ops"`
	Errors  int64         `json:"errors"`
	Cleaned int           `json:"cleaned"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Now     time.Duration `json:"now_ns"`
	Stats   volume.Stats  `json:"stats"`
}

// Report summarizes a batch Serve run. It deliberately excludes the client
// count and any wall-clock measurement: two runs that differ only in
// scheduling must encode to identical bytes.
type Report struct {
	Shards   int           `json:"shards"`
	Ops      int           `json:"ops"`
	Writes   int64         `json:"writes"`
	Reads    int64         `json:"reads"`
	Trims    int64         `json:"trims"`
	Errors   int64         `json:"errors"`
	Cleaned  int           `json:"cleaned"`
	Elapsed  time.Duration `json:"elapsed_ns"` // slowest shard's virtual elapsed time
	Merged   volume.Stats  `json:"merged"`
	PerShard []ShardReport `json:"per_shard"`
}

// ReportSchema versions the serve report envelope.
const ReportSchema = "inlinered/serve-report/v1"

// JSON encodes the report as stable, indented JSON with a schema envelope.
func (r *Report) JSON() ([]byte, error) { return sim.EncodeReport(ReportSchema, r) }

// String renders a one-look summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"shards=%d ops=%d (w=%d r=%d t=%d) errors=%d cleaned=%d elapsed=%v\n"+
			"  space: logical=%d stored=%d garbage=%d reduction=%.2fx dedup hits=%d\n"+
			"  write p99=%v read p99=%v trim p99=%v",
		r.Shards, r.Ops, r.Writes, r.Reads, r.Trims, r.Errors, r.Cleaned,
		r.Elapsed.Round(time.Microsecond),
		r.Merged.LogicalBytes, r.Merged.StoredBytes, r.Merged.GarbageBytes,
		r.Merged.ReductionRatio(), r.Merged.DedupHits,
		r.Merged.WriteLat.P99, r.Merged.ReadLat.P99, r.Merged.TrimLat.P99)
}

// Serve executes a batch of operations across the shards with concurrent
// workers and returns the merged report.
//
// It is the batch skeleton every tier shares: validate, partition the op
// list into per-shard queues (an order-preserving projection: shard i sees
// exactly the subsequence of ops routed to it, in list order), let workers
// claim WHOLE queues (Pool.ForEach), merge. Each shard is drained by
// exactly one worker, so its op order, virtual clock, and fault stream
// never depend on how many workers run or how the host schedules them;
// workers left without a queue only run the pure half of other shards'
// writes (volume.WriteBatch), which touches none of those.
// Per-op errors (injected faults) are counted, not fatal: a serving
// front-end keeps serving.
func (a *Array) Serve(ops []workload.Op, opt RunOptions) (*Report, error) {
	dispatchStart := metrics.Clock()
	kinds, err := workload.CheckOps(ops, a.blocks)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	n := int64(len(a.shards))
	part := opPartitions.Get().(*parallel.Partition[workload.Op])
	defer opPartitions.Put(part)
	part.Split(len(ops), len(a.shards),
		func(i int) int { return int(ops[i].LBA % n) },
		func(i int) workload.Op {
			op := ops[i]
			op.LBA /= n // shard-local address
			return op
		})
	// Dispatch ends when every shard queue is filled; from here each
	// queue's wall time until a worker claims it is queue wait.
	readyNS := metrics.Clock()
	metrics.ServeDispatch.ObserveSince(dispatchStart)

	rep := &Report{
		Shards: len(a.shards), Ops: len(ops), Writes: kinds.Writes, Reads: kinds.Reads, Trims: kinds.Trims,
		PerShard: make([]ShardReport, len(a.shards)),
	}
	_ = a.pool.ForEach(len(a.shards), opt.Clients, func(i int) error { // drains never fail
		metrics.ServeQueueWait.ObserveSince(readyNS)
		drainStart := metrics.Clock()
		rep.PerShard[i] = a.serveShard(i, part.Queues[i], opt)
		metrics.ServeShardDrain.ObserveSince(drainStart)
		return nil
	})
	for i := range rep.PerShard {
		rep.Errors += rep.PerShard[i].Errors
		rep.Cleaned += rep.PerShard[i].Cleaned
		rep.Elapsed = max(rep.Elapsed, rep.PerShard[i].Elapsed)
	}
	rep.Merged = a.Stats()
	return rep, nil
}

// serveShard drains one shard's queue. The shard lock is held for the
// whole drain: the queue claim already guarantees exclusive ownership
// among this batch's workers, and the lock fences off direct-API calls and
// other batches.
func (a *Array) serveShard(i int, queue []workload.Op, opt RunOptions) ShardReport {
	s := a.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.v.Now()
	rep := ShardReport{Ops: len(queue)}
	// Writes go through a write front, which materialises, fingerprints
	// and encodes them ahead of their in-order commit and owns the payloads.
	contents := make([]int32, 0, len(queue))
	for _, op := range queue {
		if op.Kind == workload.OpWrite {
			contents = append(contents, op.Content)
		}
	}
	blockSize := a.cfg.Volume.BlockSize
	wb := s.v.NewWriteBatch(a.pool, len(contents), func(dst []byte, i int) []byte {
		return workload.UniqueChunkInto(dst, opt.ContentSeed, contents[i], blockSize, payloadFill)
	})
	for k, op := range queue {
		var err error
		switch op.Kind {
		case workload.OpWrite:
			_, err = wb.Write(op.LBA)
		case workload.OpRead:
			s.readBuf, _, err = s.v.ReadInto(s.readBuf[:0], op.LBA)
		case workload.OpTrim:
			_, err = s.v.Trim(op.LBA)
		}
		if err != nil {
			rep.Errors++
		}
		if opt.CleanEvery > 0 && (k+1)%opt.CleanEvery == 0 {
			cleaned, err := s.v.Clean()
			rep.Cleaned += cleaned
			if err != nil {
				rep.Errors++
			}
		}
	}
	rep.Now = s.v.Now()
	rep.Elapsed = rep.Now - start
	rep.Stats = s.v.Stats()
	return rep
}

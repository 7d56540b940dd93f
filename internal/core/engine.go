package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"inlinered/internal/chunk"
	"inlinered/internal/dedup"
	"inlinered/internal/fault"
	"inlinered/internal/gpu"
	"inlinered/internal/lz"
	"inlinered/internal/metrics"
	"inlinered/internal/parallel"
	"inlinered/internal/reduce"
	"inlinered/internal/sim"
	"inlinered/internal/ssd"
)

// Engine runs the integrated inline data reduction pipeline of Figure 1
// over one write stream. An Engine is single-use: build one per run with
// NewEngine, call Process once, then read the Report. It is not safe for
// concurrent use.
type Engine struct {
	plat Platform
	cfg  Config
	// sub is the reduction substrate shared with internal/volume: CPU,
	// drive, bin index, journal region, and their fault and trace wiring.
	// Its fault injector and recorder are driven only from the sequential
	// commit path (drive writes, journal flushes, index inserts), never in
	// the read-only prediction pass, so a fixed seed stays bit-identical
	// across Parallelism settings.
	sub   *reduce.Substrate
	enc   reduce.Encoder // unique chunk → blob; its Sub is set while the GPU owns compression
	dev   *gpu.Device
	gbins *dedup.GPUBins

	dataCursor int64 // next free data byte (blobs pack into pages log-structured)
	dataLimit  int64 // data region size in bytes

	pendGPU  []gpuPending // unique chunks awaiting a GPU compression kernel
	retired  []retiredBatch
	inflight map[dedup.Fingerprint]*inflightRef

	gpuLost bool // the device died; all GPU work re-routes to the CPU

	// flushes counts bin-buffer flushes and binFlushed[b] is the count at
	// CPU bin b's last one (both kept only with GPU bins): a screened batch
	// notes the count it was screened at, and lookup compares.
	flushes    uint64
	binFlushed []uint64

	// GPU-batch latencies, observed only with Config.Obs set (the journal
	// times its own flushes).
	histGPUBatch sim.Histogram

	rep   Report
	ran   bool
	blobs map[int64][]byte // loc -> stored blob (Verify only)
	locs  []int64          // per chunk -> loc of its stored content (Verify only)

	// Wall-clock machinery. None of this affects the virtual clock: the
	// front stage chunks ahead of the commit pass, and the pool's workers
	// run the hash groups it posts and the encodes the commit pass fans
	// out. Chunk payloads are views into the chunker's GC-managed slabs:
	// nothing recycles them.
	pool  *parallel.Pool // the task queue and its Parallelism-1 workers (0 → NumCPU)
	front *front         // chunk+hash stage; set while Process runs

	// Per-batch scratch, rewritten every batch. Encodes land in slab (the
	// parallel pass) or scratch (inline encodes); a blob that outlives its
	// batch — one queued for the GPU kernel, one Verify keeps — is copied.
	pre     []reduce.Encoded           // parallel pass results by chunk index (nil Blob: none)
	slab    []byte                     // the parallel pass's encode destinations
	scratch []byte                     // the inline encode's destination
	uniq    []int                      // predicted-unique chunk indices
	seen    map[dedup.Fingerprint]bool // batch-local first occurrences

	perLane []float64 // GPU kernel lane costs, reused across launches
}

// gpuPending is one unique chunk queued for the GPU compression kernel.
type gpuPending struct {
	data  []byte         // source chunk, kept until the kernel's fate is known
	enc   reduce.Encoded // the sub-block encode the kernel is priced on
	fp    dedup.Fingerprint
	ready time.Duration // index decision completed
	idx   int64         // stream chunk index (Verify bookkeeping)
}

// retiredBatch is a GPU compression batch whose kernel has completed at
// virtual time t; its CPU post-processing is scheduled once the CPU
// frontier catches up, so the commit order matches the virtual-time order.
type retiredBatch struct {
	t    time.Duration
	pend []gpuPending
}

// inflightRef tracks a unique chunk between its index miss and its index
// insert (the dedup-before-compression window of Figure 1: the bin buffer
// is only updated after compression). Later occurrences of the same
// fingerprint inside that window are duplicates of a chunk that has no
// location yet.
type inflightRef struct {
	waiters []int64 // chunk indices awaiting the location (Verify only)
}

// NewEngine builds a pipeline for the platform and configuration.
func NewEngine(plat Platform, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	needGPU := (cfg.Dedup && cfg.Mode.UsesGPUDedup()) || (cfg.Compress && cfg.Mode.UsesGPUCompress())
	if needGPU && !plat.HasGPU {
		return nil, fmt.Errorf("core: mode %s needs a GPU but the platform has none", cfg.Mode)
	}
	e := &Engine{plat: plat, cfg: cfg}
	var index *dedup.IndexConfig
	if cfg.Dedup {
		index = &cfg.Index
	}
	sub, err := reduce.New(plat.CPU, plat.SSD, index, cfg.Faults)
	if err != nil {
		return nil, err
	}
	e.sub = sub
	e.enc = reduce.Encoder{Compress: cfg.Compress, SkipIncompressible: cfg.SkipIncompressible}
	if needGPU {
		e.dev = gpu.New(plat.GPU)
		e.dev.SetFaultInjector(sub.Faults)
		if cfg.Compress && cfg.Mode.UsesGPUCompress() {
			e.enc.Sub = cfg.Sub
			e.enc.Sub.SubBlocks = max(cfg.Sub.SubBlocks, 1) // the kernel runs at least one lane per chunk
		}
	}
	if cfg.Dedup && cfg.Mode.UsesGPUDedup() {
		if gpuBinBits > cfg.Index.BinBits {
			return nil, fmt.Errorf("core: GPU bins (%d bits) must be no finer than CPU bins (%d bits) so one flush lands in one GPU bin",
				gpuBinBits, cfg.Index.BinBits)
		}
		g, err := dedup.NewGPUBins(e.dev, gpuBinBits, gpuBinCap, cfg.Index.PrefixBytes, 1)
		if err != nil {
			return nil, err
		}
		e.gbins = g
		e.binFlushed = make([]uint64, 1<<uint(cfg.Index.BinBits))
	}
	e.dataLimit = sub.Journal.FirstPage() * int64(sub.Drive.PageSize)
	// Lane registration order fixes the pid/tid assignment: CPU hardware
	// threads first, then the SSD channels, then the GPU queue and link.
	sub.Trace(cfg.Obs)
	if e.dev != nil {
		e.dev.SetRecorder(cfg.Obs)
	}
	if cfg.Verify {
		e.blobs = make(map[int64][]byte)
	}
	e.inflight = make(map[dedup.Fingerprint]*inflightRef)
	e.pool = parallel.New(cfg.Parallelism)
	if cfg.Dedup {
		e.seen = make(map[dedup.Fingerprint]bool)
	}
	e.rep.Mode = cfg.Mode
	return e, nil
}

// Drive exposes the engine's SSD for post-run inspection (endurance
// experiments).
func (e *Engine) Drive() *ssd.Drive { return e.sub.Drive }

// JournalImage returns the serialized index journal — the durable form of
// every bin-buffer flush the run wrote to the SSD's journal region.
func (e *Engine) JournalImage() []byte { return e.sub.Journal.Image }

// RecoverIndex rebuilds an index from the run's journal — what a restart
// after a crash would reconstruct. Recovery is lenient: a trailing torn or
// corrupt record truncates the journal there, and everything before the
// truncation point is applied as a consistent prefix of the flush history
// (the returned Recovery says what was salvaged; a clean shutdown's image
// has Recovery.Cause == nil). Entries still in bin buffers at the crash
// point (never journaled) are absent; their future duplicates would be
// stored again, the memory-only-index tradeoff of §3.1.
func (e *Engine) RecoverIndex() (*dedup.BinIndex, dedup.Recovery, error) {
	if !e.cfg.Dedup {
		return nil, dedup.Recovery{}, fmt.Errorf("core: no journal: deduplication disabled")
	}
	return dedup.RecoverJournal(e.JournalImage(), e.cfg.Index)
}

// Process runs the whole stream through the pipeline and returns the run
// report. It may be called once per Engine.
func (e *Engine) Process(r io.Reader) (*Report, error) {
	if e.ran {
		return nil, fmt.Errorf("core: Engine.Process is single-use; build a new Engine")
	}
	e.ran = true

	defer e.pool.Close()

	// Chunking/hashing has no dependency on anything downstream, so it runs
	// ahead as a stage of its own (front.go), and batch N+1's hashing is
	// scheduled before batch N's indexing and compression: this keeps the
	// virtual CPU pool work-conserving, the way an open-loop pipeline with
	// a full input queue behaves on real hardware. Every virtual-time
	// charge, report field, journal byte, index update, fault draw and span
	// happens on this goroutine, in stream order, whatever the stage did.
	e.front = e.newFront(r)
	defer func() {
		// Single-use: keep no stream bytes or scratch blobs reachable
		// (pre's blobs alias the slab).
		e.front.close()
		e.front = nil
		e.pre, e.slab, e.scratch = nil, nil, nil
	}()
	var window []*hashedBatch
	for {
		hb, err := e.front.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading stream: %w", err)
		}
		e.hashBatch(hb)
		window = append(window, hb)
		if len(window) > e.cfg.Lookahead {
			// Screen the batch that will be processed next while this
			// one runs: the GPU round trip hides behind one batch of
			// CPU work, and the device snapshot is at most one batch
			// stale.
			if len(window) > 1 {
				e.screen(window[1])
			}
			if err := e.downstream(window[0]); err != nil {
				return nil, err
			}
			window[0] = nil
			window = window[1:]
		}
	}
	for i, hb := range window {
		if i+1 < len(window) {
			e.screen(window[i+1])
		}
		if err := e.downstream(hb); err != nil {
			return nil, err
		}
		window[i] = nil
	}
	if err := e.flushGPUCompress(); err != nil {
		return nil, err
	}
	for len(e.retired) > 0 {
		if err := e.retireBatch(e.retired[0]); err != nil {
			return nil, err
		}
		e.retired = e.retired[1:]
	}
	e.finalFlush()
	e.finish()
	return &e.rep, nil
}

// newChunker builds the configured chunker over r. No buffer pool is
// attached, so chunk payloads are views into the chunker's read slabs.
func (e *Engine) newChunker(r io.Reader) chunk.Chunker {
	if e.cfg.Chunker == CDCChunking {
		return chunk.NewGear(r, e.cfg.Gear)
	}
	return chunk.NewFixed(r, e.cfg.ChunkSize)
}

// hashedBatch is a batch that has been through stage 1 (chunk + hash) and,
// when the GPU owns dedup, GPU screening.
type hashedBatch struct {
	chunks [][]byte
	// fps is filled in by the front stage's hash tasks, the round hashes; it
	// may be read only after front.wait.
	fps    []dedup.Fingerprint
	hashes parallel.Tasks

	hashEnd []time.Duration
	ready   time.Duration // max hash end

	screened  bool
	ghits     []dedup.GPUHit
	screenEnd time.Duration
	flushes   uint64 // Engine.flushes when the batch was screened
}

// hashBatch schedules stage 1 on the virtual clock: chunking +
// fingerprinting on the CPU pool (no cross-chunk dependency, §3.1 — every
// hardware thread hashes chunks independently; every chunk "arrives" at
// time zero, open loop). The charges need only chunk lengths, so they do
// not wait for the fingerprints the front stage may still be computing.
func (e *Engine) hashBatch(hb *hashedBatch) {
	cost := e.sub.CPU.Cost
	hb.hashEnd = make([]time.Duration, len(hb.chunks))
	for i, c := range hb.chunks {
		chunkCycles := cost.ChunkCycles(len(c)) + cost.StageOverheadCycles
		hashCycles := 0.0
		if e.cfg.Dedup {
			hashCycles = cost.HashCycles(len(c))
		}
		hb.hashEnd[i] = e.sub.Run("chunk+hash", 0, chunkCycles+hashCycles)
		hb.ready = max(hb.ready, hb.hashEnd[i])
		e.rep.Stages.Chunking += e.seconds(chunkCycles)
		e.rep.Stages.Hashing += e.seconds(hashCycles)
	}
}

// screen runs the GPU batch-indexing round trip for a freshly hashed batch
// (§3.1(3)): the hashes are on hand long before a CPU worker picks the
// batch up (the input queue is deep in an open-loop measurement — the
// paper's "CPU utilization is full" regime), so the GPU prescreens the
// batch while it waits, unless the GPU itself is backlogged ("we decide to
// use GPU only when ... there is still some work to do for indexing" — a
// busy GPU queue means there is not). The batch commits only after the
// batch ahead of it, whose flushes the screen cannot see, so it notes the
// flush count it was screened at for lookup.
func (e *Engine) screen(hb *hashedBatch) {
	if e.gbins == nil || hb.screened || e.gpuLost {
		return
	}
	// Anchor at the later of hash completion and the CPU frontier (the
	// screening is issued as the previous batch starts processing).
	// Figure 1's rule: "GPU indexing is performed if the GPU is available"
	// — a backlogged queue (compression kernels in GPUBoth, or a slow
	// device) means the batch takes the CPU path instead. This is also
	// §3.1(3)'s "still some work to do" guard.
	at := max(hb.ready, e.sub.CPU.Pool.NextFree())
	if e.dev.NextFree() > at {
		return
	}
	e.front.wait(hb)
	gdone, ghits, err := e.gbins.BatchIndex(at, hb.fps)
	if err != nil {
		// The only failure a batch probe can hit is device loss. The batch
		// simply stays unscreened: the CPU index path below handles it, and
		// every later batch skips the GPU entirely.
		e.gpuDied()
		return
	}
	// Host-side result merge: one staging pass over the batch.
	mergeCycles := e.sub.CPU.Cost.MemcpyCycles(8*len(hb.fps)) + e.sub.CPU.Cost.StageOverheadCycles
	mergeEnd := e.sub.Run("merge-results", gdone, mergeCycles)
	e.rep.Stages.GPUMerge += e.seconds(mergeCycles)
	hb.screened = true
	hb.ghits = ghits
	hb.screenEnd = mergeEnd
	hb.flushes = e.flushes
	e.rep.GPUIndexBatches++
	e.rep.GPUIndexedChunks += int64(len(hb.fps))
}

// precompute is the wall-clock fan-out half of the tentpole: a sequential
// dedup-decision pass predicts which chunks the commit pass will treat as
// unique (cheap read-only probes, first-occurrence semantics), then the
// persistent worker pool runs the real computation — the shared encoder:
// entropy pre-check, then the CPU codec or the GPU kernel's sub-block lanes
// — for those chunks concurrently. The commit pass remains the source of
// truth: it re-probes with interleaved inserts so the virtual-time
// accounting is bit-identical to a serial run, and it falls back to inline
// computation for the rare chunk whose prediction an injected
// memory-pressure eviction upset (an evicted duplicate commits as unique).
// Returns nil when there is nothing worth fanning out (serial runs,
// compression off).
func (e *Engine) precompute(hb *hashedBatch) []reduce.Encoded {
	if e.pool.Workers() <= 1 || !e.cfg.Compress {
		return nil
	}
	chunks, fps := hb.chunks, hb.fps

	// Pass 1 — sequential dedup decisions. A chunk will commit as unique
	// iff no screening hit, no index hit (probed by lookup, as the commit
	// pass probes), no in-flight twin, and no earlier first occurrence in
	// this same batch.
	decideStart := metrics.Clock()
	uniq := e.uniq[:0]
	if !e.cfg.Dedup {
		for i := range chunks {
			uniq = append(uniq, i)
		}
	} else {
		clear(e.seen)
		for i := range chunks {
			if hb.screened && hb.ghits[i].Found {
				continue
			}
			if e.lookup(hb, i).Found {
				continue
			}
			if _, ok := e.inflight[fps[i]]; ok {
				continue
			}
			if e.seen[fps[i]] {
				continue
			}
			e.seen[fps[i]] = true
			uniq = append(uniq, i)
		}
	}
	e.uniq = uniq
	metrics.StageDedupDecide.ObserveSince(decideStart)
	if len(uniq) == 0 {
		return nil
	}

	// Pass 2 — parallel real computation over the predicted uniques, each
	// encoding into its own region of the batch's slab.
	pre := slices.Grow(e.pre[:0], len(chunks))[:len(chunks)]
	clear(pre)
	e.pre = pre
	need := 0
	for _, i := range uniq {
		need += len(chunks[i]) + reduce.BlobHeadroom
	}
	e.slab = slices.Grow(e.slab[:0], need)
	off := 0
	for _, i := range uniq {
		n := len(chunks[i]) + reduce.BlobHeadroom
		pre[i].Blob = e.slab[off : off : off+n]
		off += n
	}
	compressStart := metrics.Clock()
	e.pool.Map(len(uniq), func(k int) {
		i := uniq[k]
		pre[i] = e.enc.Encode(pre[i].Blob, chunks[i])
	})
	metrics.StageCompress.ObserveSince(compressStart)
	return pre
}

// downstream pushes a hashed batch through index → compress → insert/destage.
func (e *Engine) downstream(hb *hashedBatch) error {
	if err := e.retireDue(); err != nil {
		return err
	}
	cost := e.sub.CPU.Cost
	e.front.wait(hb)
	chunks, fps := hb.chunks, hb.fps

	// Parallel pass: fan the batch's real computation out across the host
	// cores before the sequential commit below (wall-clock only — the
	// virtual clock is charged in the commit pass, in stream order).
	pre := e.precompute(hb)

	// Wall-clock commit stage: everything below — probes, inserts, inline
	// fallbacks, destage — runs sequentially on this goroutine.
	commitStart := metrics.Clock()
	defer metrics.StageCommit.ObserveSince(commitStart)

	// Stages 2+ commit per chunk in stream order: probe (Figure 1: GPU
	// screening result, then lookup: bin buffer, and the bin tree unless
	// the screen still covers the chunk's bin), then for uniques compress →
	// insert → destage. Running probe and insert in stream order keeps
	// within-batch duplicates exact: a chunk's probe sees every earlier
	// chunk's insert (or its in-flight entry while the GPU compressor
	// holds it). The batch is dropped after this pass, so its hashEnd
	// record doubles as the per-chunk ready times.
	ready := hb.hashEnd
	if hb.screened {
		for i := range ready {
			ready[i] = hb.screenEnd
		}
	}
	for i, c := range chunks {
		e.rep.Chunks++
		e.rep.Bytes += int64(len(c))
		dup := false
		var dupLoc int64
		if e.cfg.Dedup {
			switch {
			case hb.screened && hb.ghits[i].Found:
				dup = true
				dupLoc = hb.ghits[i].Entry.Loc
				e.rep.DupHitsGPU++
			default:
				p := e.lookup(hb, i)
				probeCycles := cost.ProbeCycles(p.BufferScanned, p.TreeSteps)
				ready[i] = e.sub.Run("probe", ready[i], probeCycles)
				e.rep.Stages.Indexing += e.seconds(probeCycles)
				if p.Found {
					dup = true
					dupLoc = p.Entry.Loc
					if p.InBuffer {
						e.rep.DupHitsBuffer++
					} else {
						e.rep.DupHitsTree++
					}
				}
			}
			if !dup {
				// The chunk may duplicate a unique still in flight to the
				// GPU compressor (not yet inserted into the index).
				if ref, ok := e.inflight[fps[i]]; ok {
					e.rep.DupChunks++
					e.rep.DupHitsPending++
					if e.cfg.Verify {
						ref.waiters = append(ref.waiters, e.rep.Chunks-1)
						e.locs = append(e.locs, -1)
					}
					continue
				}
			}
		}
		if dup {
			e.rep.DupChunks++
			if e.cfg.Verify {
				e.locs = append(e.locs, dupLoc)
			}
			continue
		}
		e.rep.UniqueChunks++
		e.rep.UniqueBytes += int64(len(c))
		// The blob normally comes from the parallel pass; the inline encode
		// covers serial runs and prediction upsets (see precompute).
		var enc reduce.Encoded
		if pre != nil && pre[i].Blob != nil {
			enc = pre[i]
		} else {
			e.scratch = slices.Grow(e.scratch[:0], len(c)+reduce.BlobHeadroom)
			enc = e.enc.Encode(e.scratch, c)
		}
		if enc.Kind == reduce.KindSub {
			// The GPU owns compression: the lanes just computed are what the
			// next kernel launch is priced on.
			if e.cfg.Dedup {
				e.inflight[fps[i]] = &inflightRef{}
			}
			// The chunk rides along until the kernel's fate is known
			// (flushGPUCompress). The kernel batch spans CPU batches, so its
			// blob leaves the batch's scratch.
			enc.Blob = slices.Clone(enc.Blob)
			e.pendGPU = append(e.pendGPU, gpuPending{data: c, enc: enc, fp: fps[i], ready: ready[i], idx: e.rep.Chunks - 1})
			if e.cfg.Verify {
				e.locs = append(e.locs, -1) // patched when the GPU batch retires
			}
			if len(e.pendGPU) >= e.cfg.GPUCompressBatch {
				if err := e.flushGPUCompress(); err != nil {
					return err
				}
			}
			continue
		}
		// CPU compression, entropy bypass, or raw store when compression is
		// off. The encode and index-insert work is fused into one CPU job:
		// the worker thread that produced the blob files it.
		if enc.Kind == reduce.KindBypass {
			e.rep.SkippedIncompressible++
		}
		baseCycles := e.enc.Cycles(cost, enc)
		e.rep.Stages.Compression += e.seconds(baseCycles)
		if err := e.finishUnique(fps[i], enc.Blob, ready[i], baseCycles, int(e.rep.Chunks-1), cpuSpans[enc.Kind]); err != nil {
			return err
		}
	}
	return nil
}

// lookup probes the host index for chunk i of hb, a GPU miss or an
// unscreened chunk. A screened miss checks the bin buffer only while the
// chunk's bin has not flushed since the screen: everything the tree held
// then was mirrored in the GPU bins. A flush since may have moved a twin
// from the buffer to the tree behind the screen's back, so such a chunk,
// like an unscreened one, takes the full path: bin buffer, then bin tree.
func (e *Engine) lookup(hb *hashedBatch, i int) dedup.Probe {
	fp := hb.fps[i]
	if hb.screened && e.binFlushed[e.sub.Index.BinOf(fp)] <= hb.flushes {
		return e.sub.Index.LookupBuffer(fp)
	}
	return e.sub.Index.Lookup(fp)
}

// cpuSpans names the fused CPU job of a unique chunk by how it was encoded.
var cpuSpans = [...]string{reduce.KindRaw: "store-raw", reduce.KindBypass: "store-raw", reduce.KindCodec: "compress+insert"}

// flushGPUCompress launches one GPU compression kernel over the pending
// unique chunks (§3.2(2)): DMA the chunk batch to the device, run
// SubBlocks lanes per chunk, DMA the raw lane streams back, and
// post-process each chunk on the CPU. The real computation already
// happened in the shared encoder's sub-block branch; here it is priced.
func (e *Engine) flushGPUCompress() error {
	if len(e.pendGPU) == 0 {
		return nil
	}
	pend := e.pendGPU
	e.pendGPU = nil

	batchReady := time.Duration(0)
	srcBytes := 0
	for _, p := range pend {
		batchReady = max(batchReady, p.ready)
		srcBytes += len(p.data)
	}
	if e.gpuLost {
		// The device died after these chunks were queued (a screening probe
		// found it first): the whole batch takes the CPU path.
		return e.fallbackCPUCompress(pend, batchReady)
	}
	gcost := e.dev.Cost
	t := e.dev.TransferToDevice(batchReady, srcBytes)

	// The kernel: every chunk gets Sub.SubBlocks lanes, each compressing
	// its own sub-block. Lane costs come from the real encoder work;
	// wavefront lockstep and divergence are charged by the profile.
	perLane := e.perLane[:0]
	rawBytes := 0
	for _, p := range pend {
		for _, l := range p.enc.Sub.Lanes {
			perLane = append(perLane, gcost.CompressBaseCycles+
				float64(l.Stats.Positions)*gcost.CompressCyclesPerPosition+
				float64(l.Stats.SearchSteps)*gcost.MatchStepCycles+
				float64(l.Stats.DstBytes)*gcost.EmitCyclesPerByte)
		}
		rawBytes += p.enc.Sub.RawBytes()
	}
	e.perLane = perLane
	var err error
	t, err = e.dev.Launch(t, "subblock-lz", func() gpu.Profile {
		p := gpu.Wavefronts(perLane, e.dev.WavefrontSize)
		p.LocalBytes = int64(srcBytes)
		return p
	})
	if err != nil {
		if !errors.Is(err, fault.ErrDeviceLost) {
			return err
		}
		// Device lost mid-kernel: the host learns from the failed dispatch,
		// abandons the device results, and re-runs the batch on the CPU.
		// Already-retired batches stay valid; everything from here on is
		// CPU-only.
		e.gpuDied()
		return e.fallbackCPUCompress(pend, t)
	}
	t = e.dev.TransferFromDevice(t, rawBytes+8*len(pend))
	if e.cfg.Obs != nil {
		// GPU batch turnaround: from the batch being ready on the host to
		// the compressed lanes landing back in host memory.
		e.histGPUBatch.Observe(t - batchReady)
	}

	// CPU post-processing stitched each chunk's lanes into its final blob;
	// that CPU job is committed when the CPU frontier reaches the kernel
	// completion time (retireDue), so the virtual pool stays
	// work-conserving. The blobs are self-contained copies, so the chunk
	// payloads and raw lane streams are dead from here on.
	for i := range pend {
		pend[i].data = nil
		pend[i].enc.Sub = lz.SubBlockResult{}
	}
	e.retired = append(e.retired, retiredBatch{t: t, pend: pend})
	return nil
}

// gpuDied records an injected device loss: the GPU is dead for the rest of
// the run, and all of its work re-routes to the CPU paths — the encoder
// drops to its single-stream codec, and sub-block blobs the parallel pass
// already produced for the batch in commit are discarded.
func (e *Engine) gpuDied() {
	e.gpuLost = true
	e.rep.Faults.GPUDeviceLost = true
	e.enc.Sub = lz.SubBlockParams{}
	for i := range e.pre {
		if e.pre[i].Kind == reduce.KindSub {
			e.pre[i] = reduce.Encoded{}
		}
	}
}

// fallbackCPUCompress is the degraded path for a GPU compression batch whose
// kernel could not run: the pending unique chunks are re-encoded with the
// CPU codec (fanned out across host workers for wall-clock, charged to the
// virtual CPU pool in stream order) and committed exactly as CPU-mode
// uniques, minus the entropy pre-check they already passed. The chunks
// become ready no earlier than at, the virtual time the host learned of
// the loss.
func (e *Engine) fallbackCPUCompress(pend []gpuPending, at time.Duration) error {
	e.rep.Faults.GPUFallbackBatches++
	codec := reduce.Encoder{Compress: true}
	fbStart := metrics.Clock()
	e.pool.Map(len(pend), func(i int) {
		pend[i].enc = codec.Encode(pend[i].enc.Blob[:0], pend[i].data)
	})
	metrics.StageCompress.ObserveSince(fbStart)
	for i, p := range pend {
		base := codec.Cycles(e.sub.CPU.Cost, p.enc)
		e.rep.Stages.Compression += e.seconds(base)
		pend[i].data = nil
		if err := e.finishUnique(p.fp, p.enc.Blob, max(p.ready, at), base, int(p.idx), "cpu-fallback"); err != nil {
			return err
		}
	}
	return nil
}

// retireDue commits the post-processing of every GPU compression batch
// whose kernel has completed by the current CPU frontier.
func (e *Engine) retireDue() error {
	for len(e.retired) > 0 && e.retired[0].t <= e.sub.CPU.Pool.NextFree() {
		if err := e.retireBatch(e.retired[0]); err != nil {
			return err
		}
		e.retired = e.retired[1:]
	}
	return nil
}

// retireBatch schedules a retired GPU batch's CPU post-processing and
// finishes its chunks.
func (e *Engine) retireBatch(rb retiredBatch) error {
	cost := e.sub.CPU.Cost
	for _, p := range rb.pend {
		base := cost.PostProcessCycles(len(p.enc.Blob)) + cost.StageOverheadCycles
		e.rep.Stages.PostProcess += e.seconds(base)
		if err := e.finishUnique(p.fp, p.enc.Blob, rb.t, base, int(p.idx), "post-process+insert"); err != nil {
			return err
		}
	}
	return nil
}

// finishUnique finishes a unique chunk: one fused CPU job (compression or
// post-processing plus the bin-buffer insert — the worker that produced the
// blob also files it, so no dependency bubble), then the destage write and,
// on a bin-buffer flush, the sequential journal write plus the GPU bin
// update (Figure 1).
//
// Blobs pack into SSD pages log-structured: the blob lands at the next free
// byte offset, and the destage write covers exactly the pages the blob
// completes, so compression savings translate into page savings.
func (e *Engine) finishUnique(fp dedup.Fingerprint, blob []byte, ready time.Duration, baseCycles float64, chunkIdx int, spanName string) error {
	loc := e.dataCursor
	if loc+int64(len(blob)) > e.dataLimit {
		return fmt.Errorf("core: drive full: data region needs byte %d of %d", loc+int64(len(blob)), e.dataLimit)
	}
	pageSize := int64(e.sub.Drive.PageSize)
	firstPage := loc / pageSize
	e.dataCursor += int64(len(blob))
	pages := e.dataCursor/pageSize - firstPage // pages this blob completes
	e.rep.StoredBytes += int64(len(blob))
	if e.cfg.Verify {
		e.blobs[loc] = slices.Clone(blob) // blob is the batch's scratch
		if chunkIdx < len(e.locs) && e.locs[chunkIdx] == -1 {
			e.locs[chunkIdx] = loc // GPU-batched chunk retiring late
		} else {
			e.locs = append(e.locs, loc)
		}
	}

	cycles := baseCycles
	var flush *dedup.Flush
	if e.cfg.Dedup {
		if ref, ok := e.inflight[fp]; ok {
			for _, w := range ref.waiters {
				e.locs[w] = loc
			}
			delete(e.inflight, fp)
		}
		var insCycles float64
		flush, insCycles = e.sub.Insert(fp, dedup.Entry{Loc: loc, Size: uint32(len(blob))})
		cycles += insCycles
		e.rep.Stages.Insert += e.seconds(insCycles)
	}
	end := e.sub.Run(spanName, ready, cycles)
	// Crash-consistent ordering: the data lands before the journal record
	// that points at it.
	if pages > 0 {
		if _, err := e.sub.WriteDrive(end, firstPage, int(pages)); err != nil {
			return err
		}
	}
	if flush != nil {
		if err := e.persistFlush(end, flush); err != nil {
			return err
		}
	}
	return nil
}

// seconds converts CPU cycles into seconds of core time for the stage
// breakdown.
func (e *Engine) seconds(cycles float64) float64 {
	return cycles / e.plat.CPU.ClockHz
}

// gpuBin maps a CPU bin id onto the coarser GPU bin grid: both are leading
// fingerprint bits, so the GPU bin is the CPU bin's top gpuBinBits bits.
func (e *Engine) gpuBin(cpuBin uint32) uint32 {
	return cpuBin >> uint(e.cfg.Index.BinBits-gpuBinBits)
}

// persistFlush makes one bin-buffer flush durable and visible to the
// device: the sequential journal write through the shared journal region,
// then the GPU bin update (Figure 1).
func (e *Engine) persistFlush(at time.Duration, f *dedup.Flush) error {
	if e.binFlushed != nil {
		e.flushes++
		e.binFlushed[f.Bin] = e.flushes
	}
	flushStart := metrics.Clock()
	e.sub.Journal.Flush(at, f)
	metrics.StageJournalCore.ObserveSince(flushStart)
	if e.gbins == nil || e.gpuLost {
		return nil
	}
	return e.gbins.Update(at, e.gpuBin(f.Bin), f.Keys(), f.Values())
}

// finalFlush writes the final partial data page and drains the bin buffers
// at end of stream.
func (e *Engine) finalFlush() {
	at := e.sub.CPU.Pool.Horizon()
	if e.dataCursor%int64(e.sub.Drive.PageSize) != 0 {
		// The final partial page of the data log.
		_, _ = e.sub.WriteDrive(at, e.dataCursor/int64(e.sub.Drive.PageSize), 1)
	}
	if e.sub.Index == nil {
		return
	}
	for _, f := range e.sub.Index.FlushAll() {
		at = e.sub.Run("flush-drain", at, float64(f.TreeSteps)*e.sub.CPU.Cost.TreeStepCycles)
		// End of stream: a device lost during this update has no later work
		// to re-route, so its error changes nothing.
		_ = e.persistFlush(at, f)
	}
}

// finish computes the report's derived figures.
func (e *Engine) finish() {
	r := &e.rep
	elapsed := e.sub.CPU.Pool.Horizon()
	if e.dev != nil {
		elapsed = max(elapsed, e.dev.Horizon())
	}
	if e.cfg.IncludeDestage {
		elapsed = max(elapsed, e.sub.Drive.Horizon())
	}
	r.Elapsed = elapsed
	r.IOPS = sim.Throughput(float64(r.Chunks), elapsed)
	r.BytesPerSec = sim.Throughput(float64(r.Bytes), elapsed)
	if r.UniqueChunks > 0 {
		r.DedupRatio = float64(r.Chunks) / float64(r.UniqueChunks)
	}
	if r.StoredBytes > 0 {
		r.CompRatio = float64(r.UniqueBytes) / float64(r.StoredBytes)
		r.ReductionRatio = float64(r.Bytes) / float64(r.StoredBytes)
	}
	r.CPUUtil = e.sub.CPU.Utilization(elapsed)
	if e.dev != nil {
		r.GPUUtil = e.dev.Utilization(elapsed)
		r.GPULinkUtil = e.dev.LinkUtilization(elapsed)
		r.GPUKernels = e.dev.Kernels()
	}
	r.SSDUtil = e.sub.Drive.Utilization(elapsed)
	r.SSD = e.sub.Drive.Stats()
	r.SSDWriteAmp = r.SSD.WriteAmplification()
	r.MaxErase = e.sub.Drive.MaxErase()
	if e.sub.Index != nil {
		r.IndexEntries = e.sub.Index.Len()
		r.IndexMemory = e.sub.Index.MemoryBytes()
	}
	j := &e.sub.Journal
	if e.cfg.Obs != nil {
		r.Latency.JournalFlush = j.Latency.Summary()
	}
	r.Latency.GPUBatch = e.histGPUBatch.Summary()
	r.JournalBytes, r.JournalWrites = j.Bytes, j.Writes()
	r.Faults.SSDWriteRetries = e.sub.WriteRetries
	r.Faults.JournalWriteFailures = j.Failures
	if e.sub.Faults != nil {
		r.Faults.LatencySpikes = r.SSD.LatencySpikes
		r.Faults.JournalTornRecords = j.Torn
		if e.sub.Index != nil {
			r.Faults.IndexEvictions = e.sub.Index.FaultEvicted()
		}
	}
}

// VerifyAgainst re-reads the original stream and checks that every chunk is
// reconstructable from what the pipeline stored: duplicates resolve to
// their original's blob, blobs decompress to the exact source bytes.
// Requires Config.Verify.
func (e *Engine) VerifyAgainst(r io.Reader) error {
	if !e.cfg.Verify {
		return fmt.Errorf("core: VerifyAgainst needs Config.Verify")
	}
	ck := e.newChunker(r)
	var out []byte
	for i := 0; ; i++ {
		c, err := ck.Next()
		if err == io.EOF {
			if int64(i) != e.rep.Chunks {
				return fmt.Errorf("core: verify stream has %d chunks, pipeline saw %d", i, e.rep.Chunks)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if i >= len(e.locs) {
			return fmt.Errorf("core: chunk %d has no stored location", i)
		}
		blob, ok := e.blobs[e.locs[i]]
		if !ok {
			return fmt.Errorf("core: chunk %d points at unknown location %d", i, e.locs[i])
		}
		out, err = lz.Decompress(out[:0], blob)
		if err != nil {
			return fmt.Errorf("core: chunk %d: %w", i, err)
		}
		if string(out) != string(c.Data) {
			return fmt.Errorf("core: chunk %d: stored data does not reconstruct the source", i)
		}
	}
}

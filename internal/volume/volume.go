// Package volume layers block-device semantics over the inline data
// reduction substrates — the "primary storage system" the paper's pipeline
// serves. Where internal/core measures open-loop stream throughput (the
// paper's evaluation), Volume implements the full storage lifecycle a
// primary array needs around the reduction pipeline:
//
//   - LBA-addressed writes and reads at block (= chunk) granularity;
//   - reference-counted chunk storage, so overwriting or trimming a block
//     releases its chunk when the last reference disappears;
//   - a log-structured store with dead-byte accounting and segment
//     cleaning, so reclaimed space is actually reusable;
//   - the inline reduction write path itself: fingerprint → bin-index
//     lookup → LZSS compression → log append, all on the virtual clock.
//
// Volume is a closed-loop, latency-oriented consumer of the substrates (one
// outstanding request; each operation reports its virtual latency), which
// complements the engine's open-loop throughput measurements. The GPU
// offload paths stay in internal/core; Volume uses the CPU path.
package volume

import (
	"fmt"
	"sort"
	"time"

	"inlinered/internal/cpusim"
	"inlinered/internal/dedup"
	"inlinered/internal/fault"
	"inlinered/internal/lz"
	"inlinered/internal/metrics"
	"inlinered/internal/obs"
	"inlinered/internal/sim"
	"inlinered/internal/ssd"
)

// Config describes a volume.
type Config struct {
	BlockSize int   // block = chunk size in bytes
	Blocks    int64 // logical capacity in blocks
	Compress  bool  // compress unique chunks
	Codec     lz.Codec
	Index     dedup.IndexConfig
	LZ        lz.Params
	CPU       cpusim.Config
	SSD       ssd.Config
	// SegmentBytes is the log segment size for space accounting and
	// cleaning; CleanThreshold is the garbage fraction at which a segment
	// becomes a cleaning candidate.
	SegmentBytes   int
	CleanThreshold float64
	// CacheBytes bounds the content-addressed DRAM read cache (0 disables
	// it). Cached blocks serve reads without SSD pages or decompression.
	CacheBytes int64
	// SubBlocks > 1 compresses each unique chunk as that many independent
	// sub-blocks packed into an indexed container (lz.ModeSubIdx), whose
	// boundary table lets the batch read path decode the sub-blocks in
	// parallel. 0 or 1 keeps the single-stream codec path. Ignored when
	// Compress is false.
	SubBlocks int
	// Faults schedules deterministic fault injection across the drive, the
	// index journal, and the index. The zero value injects nothing and
	// leaves the volume bit-identical to a build without injection.
	Faults fault.Config
	// Obs attaches an observability recorder: one trace lane for the
	// request stream plus lanes for the virtual CPU threads and NAND
	// channels, all stamped in virtual time. A recorder should serve one
	// Volume (or one core.Engine) — the lanes map onto that instance's
	// simulated resources. Nil means off.
	Obs *obs.Recorder
}

// DefaultConfig returns a small-testbed volume: 4 KB blocks on the paper's
// CPU and SSD models.
func DefaultConfig() Config {
	return Config{
		BlockSize:      4096,
		Blocks:         1 << 18, // 1 GiB logical
		Compress:       true,
		Index:          dedup.DefaultIndexConfig(),
		LZ:             lz.DefaultParams(),
		CPU:            cpusim.DefaultConfig(),
		SSD:            ssd.DefaultConfig(),
		SegmentBytes:   4 << 20,
		CleanThreshold: 0.5,
		CacheBytes:     16 << 20,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BlockSize < 64 {
		return fmt.Errorf("volume: block size must be >= 64, got %d", c.BlockSize)
	}
	if c.Blocks < 1 {
		return fmt.Errorf("volume: need at least one block")
	}
	if c.SegmentBytes < c.BlockSize*4 {
		return fmt.Errorf("volume: segment must hold several blocks, got %d", c.SegmentBytes)
	}
	if c.CleanThreshold <= 0 || c.CleanThreshold >= 1 {
		return fmt.Errorf("volume: clean threshold must be in (0,1), got %g", c.CleanThreshold)
	}
	return c.Index.Validate()
}

// chunkRef is the refcounted record of one stored unique chunk.
type chunkRef struct {
	fp   dedup.Fingerprint
	loc  int64 // byte offset in the log
	size int32 // stored blob bytes
	refs int32
}

// segment tracks one log segment's occupancy.
type segment struct {
	live int64 // live blob bytes
	used int64 // appended blob bytes (live + dead)
}

// logCursor is the current append position: a segment and an offset into it.
type logCursor struct {
	seg int
	off int64
}

// Stats reports volume space and activity accounting.
type Stats struct {
	Writes    int64 `json:"writes"`
	Reads     int64 `json:"reads"`
	Trims     int64 `json:"trims"`
	DedupHits int64 `json:"dedup_hits"`

	// Read-cache accounting, from the scan-resistant admission policy:
	// hits/misses count lookups, admissions counts entries placed in (or
	// promoted into) the protected segment, and ghost hits count inserts
	// whose fingerprint was recently evicted — the 2Q re-admission signal.
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	CacheAdmissions int64 `json:"cache_admissions"`
	CacheGhostHits  int64 `json:"cache_ghost_hits"`

	LogicalBytes int64 `json:"logical_bytes"` // live user data (mapped blocks × block size)
	StoredBytes  int64 `json:"stored_bytes"`  // live compressed bytes in the log
	LogBytes     int64 `json:"log_bytes"`     // total log bytes appended (live + dead)
	GarbageBytes int64 `json:"garbage_bytes"` // dead bytes awaiting cleaning
	CleanRuns    int64 `json:"clean_runs"`
	MovedBytes   int64 `json:"moved_bytes"` // live bytes rewritten by the cleaner

	// Per-operation virtual latency digests (always on: the closed-loop
	// volume is latency-oriented, so every request contributes a sample).
	// Unmapped reads never touch media but still pay the zero-fill staging
	// copy into the caller's buffer, charged like a cache hit's copy.
	WriteLat        sim.LatencySummary `json:"write_lat"`
	ReadLat         sim.LatencySummary `json:"read_lat"`
	TrimLat         sim.LatencySummary `json:"trim_lat"`
	JournalFlushLat sim.LatencySummary `json:"journal_flush_lat"`

	// Index journal accounting (the durable form of bin-buffer flushes,
	// destaged sequentially to the journal region).
	JournalRecords int64 `json:"journal_records"`
	JournalBytes   int64 `json:"journal_bytes"`

	// Fault-injection accounting. All zero when Config.Faults is the zero
	// value, keeping rate-0 stats bit-identical to a build without
	// injection.
	SSDWriteRetries      int64 `json:"ssd_write_retries"`      // transient write errors cleared by retry
	SSDReadRetries       int64 `json:"ssd_read_retries"`       // transient read errors cleared by retry
	LatencySpikes        int64 `json:"latency_spikes"`         // injected latency spikes absorbed
	JournalTornRecords   int64 `json:"journal_torn_records"`   // flush records torn mid-write
	JournalWriteFailures int64 `json:"journal_write_failures"` // permanent journal-write failures (journaling degraded off)
	IndexEvictions       int64 `json:"index_evictions"`        // entries evicted by injected memory pressure
}

// AddCounters accumulates st's counter fields into s. Latency summaries
// are deliberately left untouched: summaries cannot be merged — merge
// Snapshots, which carry the underlying histograms, and recompute.
func (s *Stats) AddCounters(st Stats) {
	s.Writes += st.Writes
	s.Reads += st.Reads
	s.Trims += st.Trims
	s.DedupHits += st.DedupHits
	s.CacheHits += st.CacheHits
	s.CacheMisses += st.CacheMisses
	s.CacheAdmissions += st.CacheAdmissions
	s.CacheGhostHits += st.CacheGhostHits
	s.LogicalBytes += st.LogicalBytes
	s.StoredBytes += st.StoredBytes
	s.LogBytes += st.LogBytes
	s.GarbageBytes += st.GarbageBytes
	s.CleanRuns += st.CleanRuns
	s.MovedBytes += st.MovedBytes
	s.JournalRecords += st.JournalRecords
	s.JournalBytes += st.JournalBytes
	s.SSDWriteRetries += st.SSDWriteRetries
	s.SSDReadRetries += st.SSDReadRetries
	s.LatencySpikes += st.LatencySpikes
	s.JournalTornRecords += st.JournalTornRecords
	s.JournalWriteFailures += st.JournalWriteFailures
	s.IndexEvictions += st.IndexEvictions
}

// ReductionRatio reports logical bytes per stored byte.
func (s Stats) ReductionRatio() float64 {
	if s.StoredBytes == 0 {
		return 0
	}
	return float64(s.LogicalBytes) / float64(s.StoredBytes)
}

// Volume is a deduplicating, compressing block device on the virtual clock.
// It is not safe for concurrent use.
type Volume struct {
	cfg   Config
	cpu   *cpusim.CPU
	drive *ssd.Drive
	index *dedup.BinIndex

	lbaMap map[int64]dedup.Fingerprint // mapped blocks
	chunks map[dedup.Fingerprint]*chunkRef
	blobs  map[int64][]byte // log offset -> stored blob (host copy)

	segments []segment
	freeSegs []int // cleaned segments available for reuse
	cur      logCursor
	maxSegs  int

	// The index journal mirrors internal/core: bin-buffer flushes destage
	// as sequential writes into a region carved from the top of the drive's
	// logical space, and the serialized image is what a post-crash restart
	// replays.
	journal      *dedup.JournalWriter
	journalBase  int64 // first page of the journal region
	journalCur   int64
	journalLimit int64
	journalDead  bool // a permanent journal-write failure degraded journaling off

	faults *fault.Injector // nil when injection is off

	cache *blockCache

	// compScratch is the reusable compression output buffer for the write
	// path: the encoder appends into it, and only the exact-size retained
	// blob is allocated per unique chunk.
	compScratch []byte

	// Observability. Latency histograms are always on (the closed-loop
	// volume exists to measure latency); span recording needs Config.Obs.
	obs      *obs.Recorder
	laneOps  obs.Lane   // one lane for the sequential request stream
	cpuLanes []obs.Lane // one lane per virtual CPU thread
	histW    sim.Histogram
	histR    sim.Histogram
	histT    sim.Histogram
	histJF   sim.Histogram

	now   time.Duration // closed-loop clock: completion of the last request
	stats Stats
}

// New builds a volume.
func New(cfg Config) (*Volume, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	v := &Volume{
		cfg:    cfg,
		cpu:    cpusim.New(cfg.CPU),
		drive:  ssd.New(cfg.SSD),
		lbaMap: make(map[int64]dedup.Fingerprint),
		chunks: make(map[dedup.Fingerprint]*chunkRef),
		blobs:  make(map[int64][]byte),
	}
	idx, err := dedup.NewBinIndex(cfg.Index)
	if err != nil {
		return nil, err
	}
	v.index = idx
	// Carve the journal region out of the top of the logical space; the
	// log segments pack into what remains.
	logical := v.drive.LogicalPages()
	reserve := logical / 16
	if reserve < 1 {
		reserve = 1
	}
	v.journalBase = logical - reserve
	v.journalCur = v.journalBase
	v.journalLimit = logical
	v.journal = dedup.NewJournalWriter(cfg.Index.PrefixBytes)
	logBytes := v.journalBase * int64(v.drive.PageSize)
	v.maxSegs = int(logBytes / int64(cfg.SegmentBytes))
	if v.maxSegs < 2 {
		return nil, fmt.Errorf("volume: drive too small for two %d-byte segments", cfg.SegmentBytes)
	}
	v.segments = append(v.segments, segment{})
	v.cache = newBlockCache(cfg.CacheBytes)
	if cfg.Faults.Enabled() {
		v.faults = fault.New(cfg.Faults)
		v.drive.SetFaultInjector(v.faults)
		v.index.SetFaultInjector(v.faults)
	}
	if cfg.Obs != nil {
		v.obs = cfg.Obs
		v.laneOps = cfg.Obs.Lane("volume", "ops")
		v.cpuLanes = make([]obs.Lane, v.cpu.Pool.Servers())
		for i := range v.cpuLanes {
			v.cpuLanes[i] = cfg.Obs.Lane("cpu", fmt.Sprintf("t%d", i))
		}
		v.drive.SetRecorder(cfg.Obs)
		v.drive.MarkJournalRegion(v.journalBase)
	}
	return v, nil
}

// cpuSpan records one committed CPU job on the trace lane of the virtual
// hardware thread that ran it. Must be called immediately after the
// v.cpu.Run that scheduled the job.
func (v *Volume) cpuSpan(name string, start, end time.Duration) {
	if v.obs == nil {
		return
	}
	v.obs.Span(v.cpuLanes[v.cpu.Pool.LastServer()], name, start, end)
}

// Now returns the volume's virtual clock (completion time of the last
// request).
func (v *Volume) Now() time.Duration { return v.now }

// Stats returns space and activity accounting.
func (v *Volume) Stats() Stats {
	st := v.stats
	st.WriteLat = v.histW.Summary()
	st.ReadLat = v.histR.Summary()
	st.TrimLat = v.histT.Summary()
	st.JournalFlushLat = v.histJF.Summary()
	st.CacheHits = v.cache.hits
	st.CacheMisses = v.cache.misses
	st.CacheAdmissions = v.cache.admissions
	st.CacheGhostHits = v.cache.ghostHits
	st.JournalRecords = int64(v.journal.Records())
	st.JournalTornRecords = int64(v.journal.TornRecords())
	st.LatencySpikes = v.drive.Stats().LatencySpikes
	st.IndexEvictions = v.index.FaultEvicted()
	return st
}

// Snapshot is a volume's accounting in mergeable form: the Stats counters
// plus the four per-op latency histograms their summaries are computed
// from. Every tier above the volume (shards of an array, nodes of a
// cluster) merges through this one type, so a new counter or histogram
// cannot be forgotten in one of them. Bucket merges are order-independent,
// so the merged result is deterministic for any enumeration.
type Snapshot struct {
	stats                           Stats
	write, read, trim, journalFlush sim.Histogram
}

// Snapshot returns the volume's current accounting. The histograms are
// copies, so callers merge them without racing the volume's commit path.
func (v *Volume) Snapshot() Snapshot {
	return Snapshot{stats: v.Stats(), write: v.histW, read: v.histR, trim: v.histT, journalFlush: v.histJF}
}

// Merge folds o into s: counters sum and histogram buckets add.
func (s *Snapshot) Merge(o *Snapshot) {
	s.stats.AddCounters(o.stats)
	s.write.Merge(&o.write)
	s.read.Merge(&o.read)
	s.trim.Merge(&o.trim)
	s.journalFlush.Merge(&o.journalFlush)
}

// Stats returns the merged counters with the latency summaries recomputed
// from the merged histograms.
func (s *Snapshot) Stats() Stats {
	st := s.stats
	st.WriteLat = s.write.Summary()
	st.ReadLat = s.read.Summary()
	st.TrimLat = s.trim.Summary()
	st.JournalFlushLat = s.journalFlush.Summary()
	return st
}

// Drive exposes the underlying SSD for endurance inspection.
func (v *Volume) Drive() *ssd.Drive { return v.drive }

// JournalImage returns the serialized index journal — the durable form of
// every bin-buffer flush the volume destaged to the journal region.
func (v *Volume) JournalImage() []byte { return v.journal.Bytes() }

// RecoverIndex rebuilds an index from the volume's journal — what a restart
// after a crash would reconstruct. Recovery is lenient: a trailing torn or
// corrupt record truncates the journal there, and everything before the
// truncation point is applied as a consistent prefix of the flush history.
// Entries still in bin buffers at the crash point (never journaled) are
// absent; their future duplicates would be stored again.
func (v *Volume) RecoverIndex() (*dedup.BinIndex, dedup.Recovery, error) {
	return dedup.RecoverJournal(v.journal.Bytes(), v.cfg.Index)
}

// RecoverIndexStrict replays the journal refusing any corruption: a torn or
// bit-flipped record fails the whole replay with dedup.ErrJournalCorrupt.
func (v *Volume) RecoverIndexStrict() (*dedup.BinIndex, error) {
	return dedup.ReplayJournal(v.journal.Bytes(), v.cfg.Index)
}

// writeDrive is drive.Write under the shared bounded-retry policy
// (fault.Retry).
func (v *Volume) writeDrive(at time.Duration, lpn int64, pages int) (time.Duration, error) {
	return fault.Retry(v.drive.Write, &v.stats.SSDWriteRetries, at, lpn, pages)
}

// readDrive is drive.Read under the same policy.
func (v *Volume) readDrive(at time.Duration, lpn int64, pages int) (time.Duration, error) {
	return fault.Retry(v.drive.Read, &v.stats.SSDReadRetries, at, lpn, pages)
}

// journalFlush destages one bin-buffer flush to the sequential journal
// region and appends it to the durable image. Crash semantics under
// injection: a torn record persists only its prefix (recovery truncates
// there), and a permanent write failure degrades journaling off for the
// rest of the run — the volume keeps serving I/O from the in-memory index,
// it just loses crash recoverability, and the failure is counted. Returns
// the completion time of the journal write.
//
// Histogram contract: torn flushes COUNT in the journal-flush histogram —
// the partial write consumed real drive time, and hiding it would make
// JournalFlushLat lie about the time the volume spent flushing. So
// JournalFlushLat.Count == JournalRecords + JournalTornRecords. Flushes
// dropped by a permanent write failure (or while journaling is degraded
// off) consume no drive time and are NOT observed.
func (v *Volume) journalFlush(at time.Duration, f *dedup.Flush) time.Duration {
	if v.journalDead {
		return at
	}
	flushStart := metrics.Clock()
	defer metrics.VolumeJournalFlush.ObserveSince(flushStart)
	if frac, torn := v.faults.TornFraction(); torn {
		v.journal.AppendTorn(f, frac)
		end, _ := v.writeJournal(at, f.Bytes) // the partial write still happened
		v.histJF.Observe(end - at)
		return end
	}
	end, err := v.writeJournal(at, f.Bytes)
	if err != nil {
		v.journalDead = true
		v.stats.JournalWriteFailures++
		return at
	}
	v.histJF.Observe(end - at)
	v.journal.Append(f)
	return end
}

// writeJournal appends one flush record to the sequential journal region,
// wrapping at the region end.
func (v *Volume) writeJournal(at time.Duration, bytes int) (time.Duration, error) {
	pages := int64(v.drive.Pages(bytes))
	if pages == 0 {
		pages = 1
	}
	if v.journalCur+pages > v.journalLimit {
		v.journalCur = v.journalBase
	}
	end, err := v.writeDrive(at, v.journalCur, int(pages))
	if err != nil {
		return at, err
	}
	v.journalCur += pages
	v.stats.JournalBytes += int64(bytes)
	return end, nil
}

func (v *Volume) segOf(loc int64) int { return int(loc / int64(v.cfg.SegmentBytes)) }

func (v *Volume) segAt(i int) *segment {
	for len(v.segments) <= i {
		v.segments = append(v.segments, segment{})
	}
	return &v.segments[i]
}

// Write stores one block at lba through the inline reduction path and
// returns the request's virtual latency. Failed writes follow the same
// error-path accounting contract as Read: once past argument validation,
// the request's elapsed virtual time is committed to the clock and the
// write histogram, and the request counts in Stats.Writes, success or
// failure.
func (v *Volume) Write(lba int64, data []byte) (time.Duration, error) {
	if lba < 0 || lba >= v.cfg.Blocks {
		return 0, fmt.Errorf("volume: lba %d outside [0,%d)", lba, v.cfg.Blocks)
	}
	if len(data) != v.cfg.BlockSize {
		return 0, fmt.Errorf("volume: write of %d bytes, block size is %d", len(data), v.cfg.BlockSize)
	}
	start := v.now
	cost := v.cpu.Cost

	// Fingerprint + index probe (Figure 1's CPU path).
	fp := dedup.Sum(data)
	cs, t := v.cpu.Run(v.now, cost.ChunkCycles(len(data))+cost.HashCycles(len(data))+cost.StageOverheadCycles)
	v.cpuSpan("chunk+hash", cs, t)
	p := v.index.Lookup(fp)
	ps, t := v.cpu.Run(t, cost.ProbeCycles(p.BufferScanned, p.TreeSteps))
	v.cpuSpan("probe", ps, t)

	// The chunk store is authoritative for the duplicate decision (the
	// probe above charges the index work); a stored chunk is referenced
	// even if a capped index evicted its entry.
	if ref, ok := v.chunks[fp]; ok {
		ref.refs++
		v.stats.DedupHits++
	} else {
		// Unique: compress, append to the log, then index it.
		// Encode into the reusable scratch buffer, then retain an
		// exact-size copy: the blob lives in v.blobs for the chunk's
		// lifetime, so right-sizing it beats keeping the encoder's
		// capacity-grown slice alive.
		var cycles float64
		spanName := "store-raw"
		if v.cfg.Compress && v.cfg.SubBlocks > 1 {
			// Sub-block mode: independent lanes plus the indexed container
			// the parallel read path needs (raw fallback when the container
			// would not pay for itself).
			sp := lz.SubBlockParams{Params: v.cfg.LZ, SubBlocks: v.cfg.SubBlocks, Overlap: lz.Window / 8}
			res := lz.CompressSubBlocks(data, sp)
			var st lz.Stats
			var perr error
			v.compScratch, st, perr = lz.PostProcessOrRaw(v.compScratch[:0], data, res)
			if perr != nil {
				return 0, perr // impossible by construction: res came from data
			}
			cycles = cost.CompressCycles(st.Positions, st.SearchSteps, st.DstBytes)
			spanName = "compress-sub"
		} else if v.cfg.Compress {
			var st lz.Stats
			v.compScratch, st = lz.CompressCodec(v.cfg.Codec, v.compScratch[:0], data, v.cfg.LZ)
			cycles = cost.CompressCycles(st.Positions, st.SearchSteps, st.DstBytes)
			spanName = "compress"
		} else {
			v.compScratch = lz.StoreRaw(v.compScratch[:0], data)
			cycles = cost.MemcpyCycles(len(v.compScratch))
		}
		blob := append([]byte(nil), v.compScratch...)
		loc, err := v.alloc(len(blob))
		if err != nil {
			return v.failWrite(start, t, lba), err
		}
		var zs time.Duration
		zs, t = v.cpu.Run(t, cycles+cost.StageOverheadCycles)
		v.cpuSpan(spanName, zs, t)
		// Crash-consistent ordering: the data lands in the log before any
		// index or journal record can point at it.
		t, err = v.appendBlob(t, fp, loc, blob)
		if err != nil {
			return v.failWrite(start, t, lba), err
		}
		ir := v.index.Insert(fp, dedup.Entry{Loc: loc, Size: uint32(len(blob))})
		icycles := cost.InsertCycles + float64(ir.BufferScanned)*cost.BufferEntryCycles
		if ir.Flush != nil {
			icycles += float64(ir.Flush.TreeSteps) * cost.TreeStepCycles
		}
		var is time.Duration
		is, t = v.cpu.Run(t, icycles)
		v.cpuSpan("insert", is, t)
		if ir.Flush != nil {
			t = v.journalFlush(t, ir.Flush)
		}
	}

	// Release the overwritten mapping last (crash-consistent ordering:
	// the new data is referenced before the old reference drops).
	if old, ok := v.lbaMap[lba]; ok {
		v.deref(old)
	} else {
		v.stats.LogicalBytes += int64(v.cfg.BlockSize)
	}
	v.lbaMap[lba] = fp
	v.stats.Writes++
	v.now = t
	v.histW.Observe(t - start)
	if v.obs != nil {
		v.obs.SpanN(v.laneOps, "write", start, t, "lba", lba)
	}
	return t - start, nil
}

// failWrite commits a failed write to the clock, the stats, and the
// latency histogram — the same error-path accounting contract as failRead:
// CPU work and retry/backoff time a rejected write really consumed stays on
// the clock and in the latency summaries.
func (v *Volume) failWrite(start, end time.Duration, lba int64) time.Duration {
	v.stats.Writes++
	v.now = end
	v.histW.Observe(end - start)
	if v.obs != nil {
		v.obs.SpanN(v.laneOps, "write-error", start, end, "lba", lba)
	}
	return end - start
}

// curLoc returns the byte offset of the current append position.
func (v *Volume) curLoc() int64 {
	return int64(v.cur.seg)*int64(v.cfg.SegmentBytes) + v.cur.off
}

// alloc reserves n contiguous log bytes (within one segment), advancing to
// a fresh segment when the current one cannot fit the blob. Cleaned
// segments are reused before new ones are opened.
func (v *Volume) alloc(n int) (int64, error) {
	if n > v.cfg.SegmentBytes {
		return 0, fmt.Errorf("volume: blob of %d bytes exceeds segment size %d", n, v.cfg.SegmentBytes)
	}
	if v.cur.off+int64(n) > int64(v.cfg.SegmentBytes) {
		// Seal this segment (the skipped tail was never written) and open
		// the next: a cleaned segment if one is free, else a fresh one.
		next := -1
		if len(v.freeSegs) > 0 {
			next = v.freeSegs[0]
			v.freeSegs = v.freeSegs[1:]
		} else if len(v.segments) < v.maxSegs {
			next = len(v.segments)
			v.segments = append(v.segments, segment{})
		} else {
			return 0, fmt.Errorf("volume: log full (%d segments, none free — run Clean or trim data)", v.maxSegs)
		}
		v.cur = logCursor{seg: next, off: 0}
	}
	loc := v.curLoc()
	v.cur.off += int64(n)
	return loc, nil
}

// appendBlob lands a unique blob at its allocated log position and
// registers its chunkRef. On error it returns the virtual time the failed
// write reached (retries and backoff included), so callers can commit it.
func (v *Volume) appendBlob(at time.Duration, fp dedup.Fingerprint, loc int64, blob []byte) (time.Duration, error) {
	end, err := v.writeLog(at, loc, len(blob))
	if err != nil {
		return end, err
	}
	v.blobs[loc] = blob
	v.chunks[fp] = &chunkRef{fp: fp, loc: loc, size: int32(len(blob)), refs: 1}
	seg := v.segAt(v.segOf(loc))
	seg.live += int64(len(blob))
	seg.used += int64(len(blob))
	v.stats.StoredBytes += int64(len(blob))
	v.stats.LogBytes += int64(len(blob))
	return end, nil
}

// writeLog charges the SSD pages covering [loc, loc+n), absorbing
// transient faults through the bounded-retry policy.
func (v *Volume) writeLog(at time.Duration, loc int64, n int) (time.Duration, error) {
	pageSize := int64(v.drive.PageSize)
	first := loc / pageSize
	last := (loc + int64(n) - 1) / pageSize
	return v.writeDrive(at, first, int(last-first+1))
}

// deref drops one reference to fp, reclaiming the chunk at zero.
func (v *Volume) deref(fp dedup.Fingerprint) {
	ref, ok := v.chunks[fp]
	if !ok {
		return
	}
	ref.refs--
	if ref.refs > 0 {
		return
	}
	// Last reference gone: drop from index, store, and space accounting.
	v.index.Remove(fp)
	delete(v.chunks, fp)
	delete(v.blobs, ref.loc)
	v.segAt(v.segOf(ref.loc)).live -= int64(ref.size)
	v.stats.StoredBytes -= int64(ref.size)
	v.stats.GarbageBytes += int64(ref.size)
}

// Read returns the block at lba (zeros when unmapped) and the request's
// virtual latency.
//
// Error-path accounting contract: once a request passes argument
// validation, every virtual nanosecond it consumes is committed to the
// clock and its latency histogram, and the request is counted in Stats,
// whether it succeeds or fails — retry/backoff time spent on a read that
// ultimately errors must not vanish from the latency summaries.
func (v *Volume) Read(lba int64) ([]byte, time.Duration, error) {
	return v.ReadInto(nil, lba)
}

// ReadInto is Read appending the block's payload to dst (reusing dst's
// backing array when its capacity suffices), so closed-loop callers that
// issue many reads can recycle one buffer instead of allocating a block per
// request. On error the original dst is returned unchanged; virtual-time
// accounting is identical to Read.
func (v *Volume) ReadInto(dst []byte, lba int64) ([]byte, time.Duration, error) {
	if lba < 0 || lba >= v.cfg.Blocks {
		return dst, 0, fmt.Errorf("volume: lba %d outside [0,%d)", lba, v.cfg.Blocks)
	}
	start := v.now
	base := len(dst)
	fp, ok := v.lbaMap[lba]
	if !ok {
		// Unmapped: the array synthesizes zeros without touching media, but
		// the staging copy into the caller's buffer is real work — charged
		// exactly like a cache hit's copy, so an unmapped read can never be
		// cheaper than a cached one.
		zs, t := v.cpu.Run(v.now, v.cpu.Cost.MemcpyCycles(v.cfg.BlockSize)+v.cpu.Cost.StageOverheadCycles)
		v.cpuSpan("zero-fill", zs, t)
		v.stats.Reads++
		v.now = t
		v.histR.Observe(t - start)
		if v.obs != nil {
			v.obs.SpanN(v.laneOps, "read", start, t, "lba", lba)
		}
		return appendZeros(dst, v.cfg.BlockSize), t - start, nil
	}
	// Content-addressed cache: a hit skips the SSD and the decoder, paying
	// one staging copy.
	if data := v.cache.get(fp); data != nil {
		ms, t := v.cpu.Run(v.now, v.cpu.Cost.MemcpyCycles(len(data))+v.cpu.Cost.StageOverheadCycles)
		v.cpuSpan("cache-copy", ms, t)
		v.stats.Reads++
		v.now = t
		v.histR.Observe(t - start)
		if v.obs != nil {
			v.obs.SpanN(v.laneOps, "read", start, t, "lba", lba)
		}
		return append(dst, data...), t - start, nil
	}

	ref := v.chunks[fp]
	blob := v.blobs[ref.loc]

	// SSD read of the pages holding the blob, then CPU decompression.
	pageSize := int64(v.drive.PageSize)
	first := ref.loc / pageSize
	last := (ref.loc + int64(ref.size) - 1) / pageSize
	t, err := v.readDrive(v.now, first, int(last-first+1))
	if err != nil {
		return dst, v.failRead(start, t, lba), fmt.Errorf("volume: lba %d: %w", lba, err)
	}
	out, err := lz.Decompress(dst, blob)
	if err != nil {
		return dst, v.failRead(start, t, lba), fmt.Errorf("volume: lba %d: %w", lba, err)
	}
	ds, t := v.cpu.Run(t, v.cpu.Cost.DecompressCycles(len(out)-base)+v.cpu.Cost.StageOverheadCycles)
	v.cpuSpan("decompress", ds, t)
	v.cache.put(fp, out[base:])
	v.stats.Reads++
	v.now = t
	v.histR.Observe(t - start)
	if v.obs != nil {
		v.obs.SpanN(v.laneOps, "read", start, t, "lba", lba)
	}
	return out, t - start, nil
}

// appendZeros appends n zero bytes to dst, reusing capacity when possible.
func appendZeros(dst []byte, n int) []byte {
	base := len(dst)
	if cap(dst) >= base+n {
		out := dst[:base+n]
		clear(out[base:])
		return out
	}
	out := make([]byte, base+n)
	copy(out, dst)
	return out
}

// failRead commits a failed read to the clock, the stats, and the latency
// histogram (the error-path accounting contract: time a request really
// spent — retries, backoff, the partial work before the failure — never
// vanishes). Returns the request's latency for the caller to surface
// alongside the error.
func (v *Volume) failRead(start, end time.Duration, lba int64) time.Duration {
	v.stats.Reads++
	v.now = end
	v.histR.Observe(end - start)
	if v.obs != nil {
		v.obs.SpanN(v.laneOps, "read-error", start, end, "lba", lba)
	}
	return end - start
}

// Trim unmaps a block, releasing its chunk reference, and returns the
// request's virtual latency (one FTL metadata update on the CPU — no NAND
// time, but a real request in the closed loop).
func (v *Volume) Trim(lba int64) (time.Duration, error) {
	if lba < 0 || lba >= v.cfg.Blocks {
		return 0, fmt.Errorf("volume: lba %d outside [0,%d)", lba, v.cfg.Blocks)
	}
	start := v.now
	ts, t := v.cpu.Run(v.now, v.cpu.Cost.StageOverheadCycles)
	v.cpuSpan("trim", ts, t)
	if fp, ok := v.lbaMap[lba]; ok {
		delete(v.lbaMap, lba)
		v.deref(fp)
		v.stats.LogicalBytes -= int64(v.cfg.BlockSize)
	}
	v.stats.Trims++
	v.now = t
	v.histT.Observe(t - start)
	if v.obs != nil {
		v.obs.SpanN(v.laneOps, "trim", start, t, "lba", lba)
	}
	return t - start, nil
}

// Clean compacts log segments whose garbage fraction exceeds the threshold:
// live blobs are read and re-appended (charging SSD and CPU time), and the
// segment's space returns to the free pool. Returns the number of segments
// cleaned.
func (v *Volume) Clean() (int, error) {
	cleaned := 0
	// The active segment is never cleaned.
	for i := range v.segments {
		if i == v.cur.seg {
			continue
		}
		seg := &v.segments[i]
		if seg.used == 0 {
			continue
		}
		garbage := seg.used - seg.live
		if float64(garbage)/float64(seg.used) < v.cfg.CleanThreshold {
			continue
		}
		if err := v.cleanSegment(i); err != nil {
			return cleaned, err
		}
		cleaned++
	}
	return cleaned, nil
}

// cleanSegment moves a segment's live blobs to the log head.
//
// Accounting is per-chunk so a mid-move failure leaves Stats consistent:
// each successfully moved blob immediately leaves the source segment's
// live count and turns its old copy into garbage; the final reconciliation
// only retires the garbage the freed segment still holds. On any error the
// elapsed virtual time is committed to the clock before returning (the
// error-path accounting contract), the already-moved chunks stay moved,
// and the partially cleaned segment remains a candidate for the next pass.
func (v *Volume) cleanSegment(i int) error {
	segStart := int64(i) * int64(v.cfg.SegmentBytes)
	segEnd := segStart + int64(v.cfg.SegmentBytes)
	v.stats.CleanRuns++

	// Collect live chunks resident in this segment, in log order (map
	// iteration order must not leak into the move schedule — the fault
	// injector and the virtual clock both depend on it).
	var live []*chunkRef
	for _, ref := range v.chunks {
		if ref.loc >= segStart && ref.loc < segEnd {
			live = append(live, ref)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].loc < live[b].loc })
	t := v.now
	// Whatever happens below, the elapsed virtual time and the cleaning
	// span are committed — a failed move must not make drive time vanish.
	defer func() {
		if v.obs != nil {
			v.obs.SpanN(v.laneOps, "clean-segment", v.now, t, "segment", int64(i))
		}
		v.now = t
	}()
	pageSize := int64(v.drive.PageSize)
	for _, ref := range live {
		blob := v.blobs[ref.loc]
		// Read the blob's pages, re-append at the log head.
		first := ref.loc / pageSize
		last := (ref.loc + int64(ref.size) - 1) / pageSize
		end, err := v.readDrive(t, first, int(last-first+1))
		t = end
		if err != nil {
			return fmt.Errorf("volume: during cleaning: %w", err)
		}
		newLoc, err := v.alloc(len(blob))
		if err != nil {
			return fmt.Errorf("volume: during cleaning: %w", err)
		}
		end, err = v.writeLog(t, newLoc, len(blob))
		t = end
		if err != nil {
			// The failed append leaves a never-written hole at newLoc; it
			// belongs to no segment's accounting and is simply lost capacity.
			return fmt.Errorf("volume: during cleaning: %w", err)
		}
		delete(v.blobs, ref.loc)
		v.blobs[newLoc] = blob
		ref.loc = newLoc
		// Keep the index pointing at the moved blob; a flush it triggers is
		// journaled like any other (the moved location must win over the
		// stale one in any post-crash replay).
		if ir := v.index.Insert(ref.fp, dedup.Entry{Loc: newLoc, Size: uint32(ref.size)}); ir.Flush != nil {
			t = v.journalFlush(t, ir.Flush)
		}
		ns := v.segAt(v.segOf(newLoc))
		ns.live += int64(ref.size)
		ns.used += int64(ref.size)
		// The chunk has left the source segment: its old copy is garbage
		// now, not at end-of-segment reconciliation time. (segAt, not a
		// held pointer: alloc may have grown v.segments.)
		v.segAt(i).live -= int64(ref.size)
		v.stats.GarbageBytes += int64(ref.size)
		v.stats.MovedBytes += int64(ref.size)
		v.stats.LogBytes += int64(ref.size)
		var mvs time.Duration
		mvs, t = v.cpu.Run(t, v.cpu.Cost.MemcpyCycles(len(blob)))
		v.cpuSpan("gc-copy", mvs, t)
	}
	// Every live blob has moved out: retire the garbage the segment still
	// holds (its originally dead bytes plus the copies the moves above just
	// orphaned) and return it to the free pool.
	seg := v.segAt(i)
	v.stats.GarbageBytes -= seg.used - seg.live
	seg.live, seg.used = 0, 0
	v.freeSegs = append(v.freeSegs, i)
	// Trim the reclaimed segment's pages so the FTL can reuse them.
	segStartPage := int64(i) * int64(v.cfg.SegmentBytes) / pageSize
	v.drive.Trim(segStartPage, v.cfg.SegmentBytes/int(pageSize))
	return nil
}

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
	"inlinered/internal/reduce"
	"inlinered/internal/sim"
	"inlinered/internal/ssd"
)

// Config describes a volume.
type Config struct {
	BlockSize int   // block = chunk size in bytes
	Blocks    int64 // logical capacity in blocks
	Compress  bool  // compress unique chunks (LZSS)
	Index     dedup.IndexConfig
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
	// sub-blocks packed into an indexed container (lz.ModeSubIdx) — the
	// GPU compression kernel's output format (§3.2(2)). Reads decode every
	// blob whole, so it changes the stored bytes and the encode work, not
	// the read path. 0 or 1 keeps the single-stream codec path. Ignored
	// when Compress is false.
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
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("volume: %w", err)
	}
	return c.Index.Validate()
}

// chunkRef is the refcounted record of one stored unique chunk.
type chunkRef struct {
	fp   dedup.Fingerprint
	loc  int64  // byte offset in the log
	blob []byte // the stored blob (host copy), exact-size
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

	CacheCounters

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
	s.CacheCounters.add(st.CacheCounters)
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
	cfg Config
	// sub is the reduction substrate shared with internal/core: CPU, drive,
	// bin index, journal region, and their fault and trace wiring.
	sub *reduce.Substrate
	enc reduce.Encoder // unique block → stored blob

	lbaMap map[int64]dedup.Fingerprint // mapped blocks
	chunks map[dedup.Fingerprint]*chunkRef

	segments []segment
	freeSegs []int // cleaned segments available for reuse
	cur      logCursor
	maxSegs  int

	cache *blockCache

	// compScratch is the reusable compression output buffer for the write
	// path: the encoder appends into it, and only the exact-size retained
	// blob is allocated per unique chunk.
	compScratch []byte

	// Observability. Latency histograms are always on (the closed-loop
	// volume exists to measure latency); span recording needs Config.Obs.
	obs     *obs.Recorder
	laneOps obs.Lane // one lane for the sequential request stream
	histW   sim.Histogram
	histR   sim.Histogram
	histT   sim.Histogram

	now   time.Duration // closed-loop clock: completion of the last request
	stats Stats
}

// New builds a volume.
func New(cfg Config) (*Volume, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sub, err := reduce.New(cpusim.DefaultConfig(), cfg.SSD, &cfg.Index, cfg.Faults)
	if err != nil {
		return nil, err
	}
	v := &Volume{
		cfg:    cfg,
		sub:    sub,
		enc:    reduce.Encoder{Compress: cfg.Compress},
		lbaMap: make(map[int64]dedup.Fingerprint),
		chunks: make(map[dedup.Fingerprint]*chunkRef),
	}
	if cfg.SubBlocks > 1 {
		// Independent lanes plus the indexed container the parallel read
		// path needs.
		v.enc.Sub = lz.SubBlockParams{Params: lz.DefaultParams(), SubBlocks: cfg.SubBlocks, Overlap: lz.Window / 8}
	}
	// The log segments pack into what the journal region leaves.
	logBytes := sub.Journal.FirstPage() * int64(sub.Drive.PageSize)
	v.maxSegs = int(logBytes / int64(cfg.SegmentBytes))
	if v.maxSegs < 2 {
		return nil, fmt.Errorf("volume: drive too small for two %d-byte segments", cfg.SegmentBytes)
	}
	v.segments = append(v.segments, segment{})
	v.cache = newBlockCache(cfg.CacheBytes, cfg.BlockSize)
	if cfg.Obs != nil {
		// Lane registration order fixes the trace's pid/tid assignment: the
		// request stream first, then the substrate's CPU and SSD lanes.
		v.obs = cfg.Obs
		v.laneOps = cfg.Obs.Lane("volume", "ops")
		sub.Trace(cfg.Obs)
	}
	return v, nil
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
	st.CacheCounters = v.cache.CacheCounters
	j := &v.sub.Journal
	st.JournalFlushLat = j.Latency.Summary()
	st.JournalRecords = j.Records
	st.JournalBytes = j.Bytes
	st.JournalTornRecords = j.Torn
	st.JournalWriteFailures = j.Failures
	st.SSDWriteRetries = v.sub.WriteRetries
	st.LatencySpikes = v.sub.Drive.Stats().LatencySpikes
	st.IndexEvictions = v.sub.Index.FaultEvicted()
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
	return Snapshot{stats: v.Stats(), write: v.histW, read: v.histR, trim: v.histT, journalFlush: v.sub.Journal.Latency}
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
func (v *Volume) Drive() *ssd.Drive { return v.sub.Drive }

// JournalImage returns the serialized index journal — the durable form of
// every bin-buffer flush the volume destaged to the journal region.
func (v *Volume) JournalImage() []byte { return v.sub.Journal.Image }

// RecoverIndex rebuilds an index from the volume's journal — what a restart
// after a crash would reconstruct. Recovery is lenient: a trailing torn or
// corrupt record truncates the journal there, and everything before the
// truncation point is applied as a consistent prefix of the flush history
// (a clean image has Recovery.Cause == nil). Entries still in bin buffers
// at the crash point (never journaled) are absent; their future duplicates
// would be stored again.
func (v *Volume) RecoverIndex() (*dedup.BinIndex, dedup.Recovery, error) {
	return dedup.RecoverJournal(v.JournalImage(), v.cfg.Index)
}

// readDrive is drive.Read under the shared bounded-retry policy
// (fault.Retry); writes go through the substrate's WriteDrive.
func (v *Volume) readDrive(at time.Duration, lpn int64, pages int) (time.Duration, error) {
	return fault.Retry(v.sub.Drive.Read, &v.stats.SSDReadRetries, at, lpn, pages)
}

// journalFlush destages one bin-buffer flush through the substrate's
// journal region (torn-record and degrade-to-memory-only semantics, and the
// flush-latency histogram, live there) and returns the completion time of
// the journal write — on a permanent failure, the time the failed attempt's
// retries reached.
func (v *Volume) journalFlush(at time.Duration, f *dedup.Flush) time.Duration {
	flushStart := metrics.Clock()
	end := v.sub.Journal.Flush(at, f)
	metrics.VolumeJournalFlush.ObserveSince(flushStart)
	return end
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
//
// Write runs a write's pure half (fingerprint, encode if unique) inline;
// WriteBatch runs it ahead of time for a whole run of writes.
func (v *Volume) Write(lba int64, data []byte) (time.Duration, error) {
	return v.commitWrite(lba, data, dedup.Sum(data), nil, nil)
}

// commitWrite is the ordered half of a write, the only place one touches the
// clock, the fault streams, the index, the log, the journal or the recorder.
// fp is data's fingerprint; spec, when non-nil, is data's stored form,
// encoded ahead on the guess that the block is unique. A unique block
// without one is encoded here — or copied from shared, the batch's slot for
// data, when another write front already encoded it — and a duplicate
// ignores it: the encoder is pure, so the guess decides only when the
// encoding ran.
func (v *Volume) commitWrite(lba int64, data []byte, fp dedup.Fingerprint, spec *reduce.Encoded, shared *SharedWrite) (time.Duration, error) {
	if lba < 0 || lba >= v.cfg.Blocks {
		return 0, fmt.Errorf("volume: lba %d outside [0,%d)", lba, v.cfg.Blocks)
	}
	if len(data) != v.cfg.BlockSize {
		return 0, fmt.Errorf("volume: write of %d bytes, block size is %d", len(data), v.cfg.BlockSize)
	}
	defer metrics.VolumeWriteCommit.ObserveSince(metrics.Clock())
	start := v.now
	cost := v.sub.CPU.Cost

	// Fingerprint + index probe (Figure 1's CPU path).
	t := v.sub.Run("chunk+hash", v.now, cost.ChunkCycles(len(data))+cost.HashCycles(len(data))+cost.StageOverheadCycles)
	p := v.sub.Index.Lookup(fp)
	t = v.sub.Run("probe", t, cost.ProbeCycles(p.BufferScanned, p.TreeSteps))

	// The chunk store is authoritative for the duplicate decision (the
	// probe above charges the index work): a stored chunk is referenced
	// even if memory pressure evicted its index entry, so an eviction
	// moves only the probe work and IndexEvictions, never the duplicate
	// decision or the stored bytes.
	if ref, ok := v.chunks[fp]; ok {
		ref.refs++
		v.stats.DedupHits++
		if spec != nil && metrics.Enabled() {
			metrics.WriteEncodesWasted.Add(1)
		}
	} else {
		// Unique: compress, append to the log, then index it. An inline
		// encode appends into the reusable scratch buffer; the encode job is
		// charged as soon as it is known to be needed, so a write the log
		// then rejects still pays for it.
		if spec == nil {
			encStart := metrics.Clock()
			enc := shared.encode(&v.enc, v.compScratch[:0], data)
			v.compScratch, spec = enc.Blob, &enc
			if encStart >= 0 {
				metrics.VolumeWriteEncode.ObserveSince(encStart)
				metrics.WriteEncodesInline.Add(1)
			}
		}
		t = v.sub.Run(encodeSpans[spec.Kind], t, v.enc.Cycles(cost, *spec))
		loc, err := v.alloc(len(spec.Blob))
		if err != nil {
			return v.failWrite(start, t, lba), err
		}
		// Retain an exact-size copy: the blob lives in its chunkRef for the
		// chunk's lifetime, so right-sizing it beats keeping the encoder's
		// capacity-grown slice alive.
		blob := append([]byte(nil), spec.Blob...)
		// Crash-consistent ordering: the data lands in the log before any
		// index or journal record can point at it.
		t, err = v.appendBlob(t, fp, loc, blob)
		if err != nil {
			return v.failWrite(start, t, lba), err
		}
		flush, insertCycles := v.sub.Insert(fp, dedup.Entry{Loc: loc, Size: uint32(len(blob))})
		t = v.sub.Run("insert", t, insertCycles)
		if flush != nil {
			t = v.journalFlush(t, flush)
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
	return v.commit(&v.stats.Writes, &v.histW, "write", start, t, lba), nil
}

// encodeSpans names a unique block's encode job by how it was encoded.
var encodeSpans = [...]string{reduce.KindRaw: "store-raw", reduce.KindCodec: "compress", reduce.KindSub: "compress-sub"}

// commit lands one request on the clock, in its counter and latency
// histogram, and on the request trace lane, and returns its latency. Failed
// requests come through here too (the error-path accounting contract): CPU
// work, retries and backoff a request really consumed never vanish from the
// clock or the latency summaries.
func (v *Volume) commit(count *int64, hist *sim.Histogram, span string, start, end time.Duration, lba int64) time.Duration {
	*count++
	v.now = end
	hist.Observe(end - start)
	if v.obs != nil {
		v.obs.SpanN(v.laneOps, span, start, end, "lba", lba)
	}
	return end - start
}

// failWrite commits a write that errored after argument validation.
func (v *Volume) failWrite(start, end time.Duration, lba int64) time.Duration {
	return v.commit(&v.stats.Writes, &v.histW, "write-error", start, end, lba)
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
	v.chunks[fp] = &chunkRef{fp: fp, loc: loc, blob: blob, refs: 1}
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
	first, pages := v.pageSpan(loc, n)
	return v.sub.WriteDrive(at, first, pages)
}

// pageSpan returns the SSD pages covering log bytes [loc, loc+n).
func (v *Volume) pageSpan(loc int64, n int) (first int64, pages int) {
	pageSize := int64(v.sub.Drive.PageSize)
	first = loc / pageSize
	return first, int((loc+int64(n)-1)/pageSize - first + 1)
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
	v.sub.Index.Remove(fp)
	delete(v.chunks, fp)
	size := int64(len(ref.blob))
	v.segAt(v.segOf(ref.loc)).live -= size
	v.stats.StoredBytes -= size
	v.stats.GarbageBytes += size
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
//
// A miss decodes inline through decodeBlock, the call every ReadBatch item
// makes; everything a read is charged comes from planRead on both.
func (v *Volume) ReadInto(dst []byte, lba int64) ([]byte, time.Duration, error) {
	if lba < 0 || lba >= v.cfg.Blocks {
		return dst, 0, fmt.Errorf("volume: lba %d outside [0,%d)", lba, v.cfg.Blocks)
	}
	p := v.planRead(lba, 0)
	switch {
	case p.err != nil:
		return dst, p.lat, p.err
	case p.src == srcZero:
		return appendZeros(dst, v.cfg.BlockSize), p.lat, nil
	case p.src == srcCache:
		return append(dst, p.cached...), p.lat, nil
	}
	out, err := decodeBlock(dst, p.blob, v.cfg.BlockSize)
	if err != nil {
		// Un-reserve: a garbage block must never serve later reads.
		v.cache.remove(p.fp)
		return dst, p.lat, fmt.Errorf("volume: lba %d: %w", lba, err)
	}
	copy(p.slot, out[len(dst):])
	return out, p.lat, nil
}

// Where a planned read's bytes come from.
const (
	srcZero    = int8(iota) // unmapped: zeros
	srcCache                // cache hit: the entry's bytes
	srcPending              // ReadBatch only: a hit on an entry reserved earlier in the batch
	srcDecode               // cache miss: the stored blob, decoded by the caller
)

// readPlan is what planRead decided about one read.
type readPlan struct {
	src    int8
	fp     dedup.Fingerprint // zero when unmapped
	cached []byte            // srcCache: the entry's bytes, owned by the cache
	blob   []byte            // srcDecode: the stored blob
	slot   []byte            // srcDecode: the reserved cache entry to fill, nil when not cached
	lat    time.Duration
	err    error // srcDecode: the drive read failed, nothing to decode
}

// planRead is the ordered half of a read, the only place one touches the
// clock, the fault stream, the cache's admission state, the drive model or
// the recorder; lba is in range. The caller supplies the bytes: it copies
// zeros or the cached block, or decodes p.blob and then fills p.slot — or,
// when the blob turns out corrupt, removes p.fp from the cache. The decode
// is charged here, before it runs, and the slot is reserved here, so
// admission and eviction advance in request order whenever the decode
// happens; a corrupt blob's read is therefore a "read" span with the decode
// on it, and only a drive failure is a "read-error". lease is the planning
// batch's (0 when the caller copies out at once); the cache entry the read
// touches is stamped with it.
func (v *Volume) planRead(lba int64, lease uint64) (p readPlan) {
	start, span := v.now, "read"
	bs, cost := v.cfg.BlockSize, v.sub.CPU.Cost
	var t time.Duration
	fp, ok := v.lbaMap[lba]
	p.fp = fp
	if !ok {
		// Unmapped: the array synthesizes zeros without touching media, but
		// the staging copy into the caller's buffer is real work — charged
		// exactly like a cache hit's copy, so an unmapped read can never be
		// cheaper than a cached one.
		t = v.sub.Run("zero-fill", v.now, cost.MemcpyCycles(bs)+cost.StageOverheadCycles)
	} else if e, hit := v.cache.getRef(fp, lease); hit {
		// Content-addressed cache: a hit skips the SSD and the decoder,
		// paying one staging copy.
		p.src, p.cached = srcCache, e.data
		t = v.sub.Run("cache-copy", v.now, cost.MemcpyCycles(bs)+cost.StageOverheadCycles)
	} else {
		// SSD read of the pages holding the blob, then CPU decompression.
		p.src = srcDecode
		ref := v.chunks[fp]
		first, pages := v.pageSpan(ref.loc, len(ref.blob))
		t, p.err = v.readDrive(v.now, first, pages)
		if p.err != nil {
			p.err = fmt.Errorf("volume: lba %d: %w", lba, p.err)
			span = "read-error"
		} else {
			t = v.sub.Run("decompress", t, cost.DecompressCycles(bs)+cost.StageOverheadCycles)
			p.blob = ref.blob
			p.slot = v.cache.reserve(fp, lease)
		}
	}
	p.lat = v.commit(&v.stats.Reads, &v.histR, span, start, t, lba)
	return p
}

// decodeBlock appends blob's block to dst: the read path's only decode. A
// blob that decodes to anything but one block is corrupt; dst comes back
// unchanged.
func decodeBlock(dst, blob []byte, bs int) ([]byte, error) {
	out, err := lz.Decompress(dst, blob) // dst itself on error
	if err == nil && len(out)-len(dst) != bs {
		return dst, fmt.Errorf("volume: blob decoded to %d bytes, block size is %d", len(out)-len(dst), bs)
	}
	return out, err
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

// Trim unmaps a block, releasing its chunk reference, and returns the
// request's virtual latency (one FTL metadata update on the CPU — no NAND
// time, but a real request in the closed loop).
func (v *Volume) Trim(lba int64) (time.Duration, error) {
	if lba < 0 || lba >= v.cfg.Blocks {
		return 0, fmt.Errorf("volume: lba %d outside [0,%d)", lba, v.cfg.Blocks)
	}
	start := v.now
	t := v.sub.Run("trim", v.now, v.sub.CPU.Cost.StageOverheadCycles)
	if fp, ok := v.lbaMap[lba]; ok {
		delete(v.lbaMap, lba)
		v.deref(fp)
		v.stats.LogicalBytes -= int64(v.cfg.BlockSize)
	}
	return v.commit(&v.stats.Trims, &v.histT, "trim", start, t, lba), nil
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
	for _, ref := range live {
		blob, size := ref.blob, int64(len(ref.blob))
		// Read the blob's pages, re-append at the log head.
		first, pages := v.pageSpan(ref.loc, len(blob))
		end, err := v.readDrive(t, first, pages)
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
		ref.loc = newLoc
		// Keep the index pointing at the moved blob; a flush it triggers is
		// journaled like any other (the moved location must win over the
		// stale one in any post-crash replay).
		if ir := v.sub.Index.Insert(ref.fp, dedup.Entry{Loc: newLoc, Size: uint32(size)}); ir.Flush != nil {
			t = v.journalFlush(t, ir.Flush)
		}
		ns := v.segAt(v.segOf(newLoc))
		ns.live += size
		ns.used += size
		// The chunk has left the source segment: its old copy is garbage
		// now, not at end-of-segment reconciliation time. (segAt, not a
		// held pointer: alloc may have grown v.segments.)
		v.segAt(i).live -= size
		v.stats.GarbageBytes += size
		v.stats.MovedBytes += size
		v.stats.LogBytes += size
		t = v.sub.Run("gc-copy", t, v.sub.CPU.Cost.MemcpyCycles(len(blob)))
	}
	// Every live blob has moved out: retire the garbage the segment still
	// holds (its originally dead bytes plus the copies the moves above just
	// orphaned) and return it to the free pool.
	seg := v.segAt(i)
	v.stats.GarbageBytes -= seg.used - seg.live
	seg.live, seg.used = 0, 0
	v.freeSegs = append(v.freeSegs, i)
	// Trim the reclaimed segment's pages so the FTL can reuse them.
	pageSize := int64(v.sub.Drive.PageSize)
	v.sub.Drive.Trim(segStart/pageSize, v.cfg.SegmentBytes/int(pageSize))
	return nil
}

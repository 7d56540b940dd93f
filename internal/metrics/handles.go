package metrics

// The handle table: every instrumentation point in the data plane holds
// one of these package-level handles, so a hot-path record is one atomic
// op with no lookup. Centralizing the table also fixes the registration
// (and therefore exposition) order, and lets the summary helpers below
// read any metric without import cycles.
//
// Naming follows Prometheus conventions: base units (seconds), _total
// suffix on counters, and a shared inlinered_stage_wall_seconds histogram
// family keyed by (subsystem, stage) so one query surfaces the whole
// pipeline's wall-clock breakdown.

// stageHist registers one (subsystem, stage) series of the shared
// per-stage wall-clock histogram family.
func stageHist(subsystem, stage string) *Histogram {
	return NewSecondsHistogram("inlinered_stage_wall_seconds",
		"Wall-clock time per pipeline stage execution, keyed by (subsystem, stage).",
		"subsystem", subsystem, "stage", stage)
}

// writeEncodes registers one series of the volume's encode-placement counter.
func writeEncodes(how string) *Counter {
	return NewCounter("inlinered_volume_write_encodes_total",
		"Unique-block encodes on the volume write path, by where they ran.",
		"subsystem", "volume", "how", how)
}

var (
	// Task queue (internal/parallel): where the fan-out's host time goes.
	// The two Map counters count Map calls only; the other four see every
	// posted task — Map's, the ingest front's hash groups, the write front's
	// hash and encode groups.
	PoolMapCalls = NewCounter("inlinered_pool_map_calls_total",
		"Map fan-out calls on the pool.",
		"subsystem", "parallel")
	PoolItems = NewCounter("inlinered_pool_items_total",
		"Work items distributed by Map calls.",
		"subsystem", "parallel")
	PoolBusy = NewSecondsCounter("inlinered_pool_worker_busy_seconds_total",
		"Wall-clock time goroutines (pool workers and everyone lending itself to the queue) spent executing posted tasks.",
		"subsystem", "parallel")
	PoolIdle = NewSecondsCounter("inlinered_pool_worker_idle_seconds_total",
		"Wall-clock time pool workers spent parked on the queue between two tasks.",
		"subsystem", "parallel")
	PoolClaimWait = NewSecondsHistogram("inlinered_pool_batch_claim_wait_seconds",
		"Latency from a task being posted to a goroutine starting to run it.",
		"subsystem", "parallel")
	PoolBatchSize = NewValueHistogram("inlinered_pool_batch_size_items",
		"Distribution of indices per posted task.",
		"subsystem", "parallel")

	// Core pipeline stages (internal/core): wall clock per batch-level
	// stage execution of the inline reduction pipeline.
	StageChunk       = stageHist("core", "chunk")
	StageHash        = stageHist("core", "hash")
	StageDedupDecide = stageHist("core", "dedup_decide")
	StageCompress    = stageHist("core", "compress")
	StageCommit      = stageHist("core", "commit")
	StageJournalCore = stageHist("core", "journal_flush")
	// StageFrontWait is the time the commit goroutine spends in the front
	// (chunk+hash) stage's hands — blocked on it or running posted tasks for
	// it — per batch: near zero when the commit pass is the bottleneck, most
	// of the run when the front stage is (at Parallelism 1 it is the batch's
	// hashing, which then runs here and nowhere else).
	StageFrontWait = stageHist("core", "front_wait")

	// Sharded serving front-end (internal/serve).
	ServeDispatch   = stageHist("serve", "dispatch")
	ServeQueueWait  = stageHist("serve", "queue_wait")
	ServeShardDrain = stageHist("serve", "shard_drain")
	// ServeFrontWait is the time a shard drain spends in the write front's
	// hands per window — posting it, speculating, blocked on it or running
	// its tasks: near zero when lent goroutines keep the front ahead of the
	// commit, the whole pure half of the writes when nobody lends.
	ServeFrontWait = stageHist("serve", "front_wait")

	// Replicated cluster tier (internal/cluster).
	ClusterNodeServe = stageHist("cluster", "node_serve")
	ClusterReplay    = stageHist("cluster", "rejoin_replay")

	// Volume (internal/volume).
	VolumeJournalFlush = stageHist("volume", "journal_flush")
	// The write path's stages. Prepare (materialise + fingerprint) is
	// recorded once per posted group of the write front; encode once per
	// posted group, or once per op when it runs inline; commit is the
	// ordered half, once per op, and contains an inline encode (the direct
	// path, or a write the front did not predict unique).
	VolumeWritePrepare = stageHist("volume", "write_prepare")
	VolumeWriteEncode  = stageHist("volume", "write_encode")
	VolumeWriteCommit  = stageHist("volume", "write_commit")
	// Where unique blocks were encoded: ahead of the commit on the front's
	// guess, inline at commit, or ahead of time for a block that then
	// turned out to be a duplicate. Shared counts the speculated and inline
	// ones copied from an encode another write of the batch ran
	// (volume.SharedWrite), so speculated - shared + inline encodes ran.
	WriteEncodesSpeculated = writeEncodes("speculated")
	WriteEncodesInline     = writeEncodes("inline")
	WriteEncodesWasted     = writeEncodes("wasted")
	WriteEncodesShared     = writeEncodes("shared")

	// Chunk read cache (internal/volume): evictions, which no report counts.
	// Hits, misses, admissions and ghost hits are volume.Stats and
	// volume.ReadTotals fields, counted once, on the virtual clock.
	CacheEvictionsM = NewCounter("inlinered_cache_evictions_total",
		"Entries evicted from the read cache to make room.",
		"subsystem", "volume")

	// Go runtime telemetry, refreshed by SampleRuntime.
	RuntimeGoroutines = NewGauge("go_goroutines",
		"Live goroutines, from /sched/goroutines.")
	RuntimeHeapBytes = NewGauge("go_memory_heap_objects_bytes",
		"Bytes occupied by live and dead heap objects, from /memory/classes/heap/objects.")
	RuntimeHeapAllocBytes = NewGauge("go_memory_heap_allocs_bytes_total",
		"Cumulative bytes allocated on the heap, from /gc/heap/allocs.")
	RuntimeGCCycles = NewGauge("go_gc_cycles",
		"Completed GC cycles, from /gc/cycles/total.")
	RuntimeGCPause = NewSecondsGauge("go_gc_pause_estimate_seconds",
		"Estimated total stop-the-world GC pause time (log-bucket midpoint sum over /sched/pauses/total/gc).")
)

package core

import (
	"fmt"
	"strings"
	"time"

	"inlinered/internal/sim"
	"inlinered/internal/ssd"
)

// Breakdown is the virtual CPU time spent per pipeline stage, in seconds of
// core-busy time (summed over threads). It shows where the reduction cycles
// go — the paper's bottleneck analysis (hashing and indexing dominate
// dedup; the match search dominates compression).
type Breakdown struct {
	Chunking    float64 `json:"chunking_s"`
	Hashing     float64 `json:"hashing_s"`
	Indexing    float64 `json:"indexing_s"`
	Compression float64 `json:"compression_s"`  // CPU compression (or raw-store staging)
	PostProcess float64 `json:"post_process_s"` // refinement of GPU compression results
	Insert      float64 `json:"insert_s"`       // bin-buffer/bin-tree updates and flushes
	GPUMerge    float64 `json:"gpu_merge_s"`    // staging GPU index results
}

// Total returns the summed stage time.
func (b Breakdown) Total() float64 {
	return b.Chunking + b.Hashing + b.Indexing + b.Compression + b.PostProcess + b.Insert + b.GPUMerge
}

// Report summarizes one pipeline run. Throughput figures are in the paper's
// units: IOPS are chunk-sized writes per second of virtual time.
type Report struct {
	Mode  Mode  `json:"mode"`
	Bytes int64 `json:"bytes"` // stream bytes ingested

	Chunks       int64 `json:"chunks"`
	UniqueChunks int64 `json:"unique_chunks"`
	UniqueBytes  int64 `json:"unique_bytes"`
	DupChunks    int64 `json:"dup_chunks"`

	// Duplicate hit breakdown across Figure 1's three probes, plus
	// duplicates of uniques still in flight to the GPU compressor.
	DupHitsGPU     int64 `json:"dup_hits_gpu"`
	DupHitsBuffer  int64 `json:"dup_hits_buffer"`
	DupHitsTree    int64 `json:"dup_hits_tree"`
	DupHitsPending int64 `json:"dup_hits_pending"`

	SkippedIncompressible int64 `json:"skipped_incompressible"` // uniques stored raw by the entropy bypass

	StoredBytes   int64 `json:"stored_bytes"`   // compressed unique payload destaged
	JournalBytes  int64 `json:"journal_bytes"`  // index journal flushed sequentially
	JournalWrites int64 `json:"journal_writes"` // journal flush I/Os (bin-buffer flushes)

	Elapsed     time.Duration `json:"elapsed_ns"` // reduction pipeline makespan (virtual)
	IOPS        float64       `json:"iops"`
	BytesPerSec float64       `json:"bytes_per_sec"`

	// Achieved ratios, measured on the real data.
	DedupRatio     float64 `json:"dedup_ratio"`     // chunks / unique chunks
	CompRatio      float64 `json:"comp_ratio"`      // unique bytes / stored bytes
	ReductionRatio float64 `json:"reduction_ratio"` // stream bytes / stored bytes

	CPUUtil     float64 `json:"cpu_util"`
	GPUUtil     float64 `json:"gpu_util"`
	GPULinkUtil float64 `json:"gpu_link_util"`
	SSDUtil     float64 `json:"ssd_util"`

	GPUKernels       int64 `json:"gpu_kernels"`
	GPUIndexBatches  int64 `json:"gpu_index_batches"`
	GPUIndexedChunks int64 `json:"gpu_indexed_chunks"`

	IndexEntries int64 `json:"index_entries"`
	IndexMemory  int64 `json:"index_memory"`

	SSD         ssd.Stats `json:"ssd"`
	SSDWriteAmp float64   `json:"ssd_write_amp"`
	MaxErase    int       `json:"max_erase"`

	Faults FaultStats `json:"faults"`

	// Latency is populated only when Config.Obs is attached (observability
	// runs); an obs-off Report stays bit-identical to a build without it.
	Latency PipelineLatency `json:"latency"`

	Stages Breakdown `json:"stages"`
}

// PipelineLatency digests the engine-level latency histograms: how long a
// bin-buffer flush takes to land in the journal region (every flush that
// reached it, torn ones included: Count == JournalWrites), and the host-side
// turnaround of a GPU compression batch (batch ready → compressed lanes
// back in host memory — the round trip §3.2(2) amortizes by batching).
type PipelineLatency struct {
	JournalFlush sim.LatencySummary `json:"journal_flush"`
	GPUBatch     sim.LatencySummary `json:"gpu_batch"`
}

// Any reports whether any latency samples were recorded.
func (l PipelineLatency) Any() bool { return l != (PipelineLatency{}) }

// FaultStats reports what the run survived: injected faults that fired and
// the recovery/degradation actions the pipeline took. All zero (and absent
// from String) when fault injection is off, keeping rate-0 Reports
// bit-identical to a build without injection.
type FaultStats struct {
	SSDWriteRetries      int64 `json:"ssd_write_retries"`      // transient write errors cleared by retry
	LatencySpikes        int64 `json:"latency_spikes"`         // injected latency spikes absorbed
	JournalTornRecords   int64 `json:"journal_torn_records"`   // flush records torn mid-write
	JournalWriteFailures int64 `json:"journal_write_failures"` // permanent journal-write failures (journaling degraded off)
	GPUFallbackBatches   int64 `json:"gpu_fallback_batches"`   // compression batches re-run on the CPU after device loss
	GPUDeviceLost        bool  `json:"gpu_device_lost"`        // the GPU died mid-run and stayed dead
	IndexEvictions       int64 `json:"index_evictions"`        // entries evicted by injected memory pressure
}

// Any reports whether any fault activity was recorded.
func (f FaultStats) Any() bool { return f != (FaultStats{}) }

// SpeedupOver returns this report's IOPS relative to a baseline run.
func (r *Report) SpeedupOver(base *Report) float64 {
	if base == nil || base.IOPS == 0 {
		return 0
	}
	return r.IOPS / base.IOPS
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s bytes=%d chunks=%d (unique=%d dup=%d)\n",
		r.Mode, r.Bytes, r.Chunks, r.UniqueChunks, r.DupChunks)
	fmt.Fprintf(&b, "  elapsed=%v  throughput=%.0f IOPS (%s)\n",
		r.Elapsed.Round(time.Microsecond), r.IOPS, sim.FormatRate(r.BytesPerSec))
	fmt.Fprintf(&b, "  ratios: dedup=%.2f comp=%.2f total=%.2f  stored=%d journal=%d\n",
		r.DedupRatio, r.CompRatio, r.ReductionRatio, r.StoredBytes, r.JournalBytes)
	fmt.Fprintf(&b, "  dup hits: gpu=%d buffer=%d tree=%d pending=%d  gpu-indexed=%d chunks in %d batches\n",
		r.DupHitsGPU, r.DupHitsBuffer, r.DupHitsTree, r.DupHitsPending, r.GPUIndexedChunks, r.GPUIndexBatches)
	fmt.Fprintf(&b, "  util: cpu=%.1f%% gpu=%.1f%% pcie=%.1f%% ssd=%.1f%%  kernels=%d\n",
		100*r.CPUUtil, 100*r.GPUUtil, 100*r.GPULinkUtil, 100*r.SSDUtil, r.GPUKernels)
	fmt.Fprintf(&b, "  ssd: hostW=%d nandW=%d WA=%.2f erases=%d maxErase=%d\n",
		r.SSD.HostWritePages, r.SSD.NANDWritePages, r.SSDWriteAmp, r.SSD.Erases, r.MaxErase)
	if r.Faults.Any() {
		fmt.Fprintf(&b, "  faults: ssd-write-retries=%d spikes=%d journal-torn=%d journal-failed=%d gpu-lost=%v gpu-fallback=%d index-evict=%d\n",
			r.Faults.SSDWriteRetries, r.Faults.LatencySpikes,
			r.Faults.JournalTornRecords, r.Faults.JournalWriteFailures,
			r.Faults.GPUDeviceLost, r.Faults.GPUFallbackBatches, r.Faults.IndexEvictions)
	}
	if r.Latency.Any() {
		jf, gb := r.Latency.JournalFlush, r.Latency.GPUBatch
		fmt.Fprintf(&b, "  latency: journal-flush[p50=%v p95=%v p99=%v max=%v n=%d] gpu-batch[p50=%v p95=%v p99=%v max=%v n=%d]\n",
			jf.P50, jf.P95, jf.P99, jf.Max, jf.Count,
			gb.P50, gb.P95, gb.P99, gb.Max, gb.Count)
	}
	if total := r.Stages.Total(); total > 0 {
		fmt.Fprintf(&b, "  cpu stages: chunk=%.1f%% hash=%.1f%% index=%.1f%% compress=%.1f%% postproc=%.1f%% insert=%.1f%% gpu-merge=%.1f%%",
			100*r.Stages.Chunking/total, 100*r.Stages.Hashing/total, 100*r.Stages.Indexing/total,
			100*r.Stages.Compression/total, 100*r.Stages.PostProcess/total, 100*r.Stages.Insert/total,
			100*r.Stages.GPUMerge/total)
	}
	return b.String()
}

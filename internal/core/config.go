package core

import (
	"fmt"

	"inlinered/internal/chunk"
	"inlinered/internal/dedup"
	"inlinered/internal/fault"
	"inlinered/internal/lz"
	"inlinered/internal/obs"
)

// Mode is one of the four integration options of §4(3): which data
// reduction operation, if any, owns the GPU.
type Mode int

const (
	// CPUOnly runs both operations on the multi-core CPU.
	CPUOnly Mode = iota
	// GPUDedup offloads indexing to the GPU (as a CPU co-processor, used
	// when the CPU is saturated, §3.1(3)); compression stays on the CPU.
	GPUDedup
	// GPUCompress runs compression on the GPU with CPU post-processing;
	// indexing stays on the CPU.
	GPUCompress
	// GPUBoth gives the GPU to both operations, sharing one command queue.
	GPUBoth
)

// Modes lists the four integration options in presentation order.
var Modes = []Mode{CPUOnly, GPUDedup, GPUCompress, GPUBoth}

// String names the mode as the figures label it.
func (m Mode) String() string {
	switch m {
	case CPUOnly:
		return "cpu-only"
	case GPUDedup:
		return "gpu-dedup"
	case GPUCompress:
		return "gpu-compress"
	case GPUBoth:
		return "gpu-both"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses a mode name as String renders it ("cpu-only",
// "gpu-dedup", "gpu-compress", "gpu-both").
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (want cpu-only, gpu-dedup, gpu-compress, or gpu-both)", s)
}

// MarshalJSON encodes the mode as its figure label, keeping the report
// schema readable and stable against enum reordering.
func (m Mode) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// UnmarshalJSON decodes a mode from its figure label.
func (m *Mode) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("core: mode must be a JSON string, got %s", data)
	}
	parsed, err := ParseMode(string(data[1 : len(data)-1]))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// UsesGPUDedup reports whether the mode gives the GPU to indexing.
func (m Mode) UsesGPUDedup() bool { return m == GPUDedup || m == GPUBoth }

// UsesGPUCompress reports whether the mode gives the GPU to compression.
func (m Mode) UsesGPUCompress() bool { return m == GPUCompress || m == GPUBoth }

// Chunking selects the chunking algorithm.
type Chunking int

const (
	// FixedChunking cuts the stream into ChunkSize blocks (the paper's
	// configuration; primary storage writes arrive block-aligned).
	FixedChunking Chunking = iota
	// CDCChunking uses the content-defined Gear chunker, which
	// resynchronizes chunk boundaries across inserted/shifted data —
	// an extension beyond the paper's fixed 4 KB chunks.
	CDCChunking
)

// Config tunes the pipeline.
type Config struct {
	// ChunkSize is the deduplication/compression unit (4 KB in §4).
	ChunkSize int
	// Chunker selects fixed-size (default, the paper's setting) or
	// content-defined chunking; Gear configures the latter.
	Chunker Chunking
	Gear    chunk.GearConfig
	// Batch is how many chunks flow through the pipeline stages together
	// (also the GPU indexing batch).
	Batch int
	// GPUCompressBatch is how many unique chunks accumulate before a GPU
	// compression kernel launches (it takes hundreds of 4 KB chunks to
	// fill the device, the weakness of [3] the paper fixes).
	GPUCompressBatch int
	// Lookahead is how many batches of chunking/hashing are scheduled
	// ahead of the downstream stages. The measurement is open-loop (the
	// input queue is never empty), so the CPU should always have hashing
	// work to overlap with GPU round-trip latency; a handful of batches
	// suffices.
	Lookahead int

	// Mode selects the integration option. Use Calibrate to pick one the
	// way §4(3)'s dummy-I/O pass does.
	Mode Mode
	// Dedup and Compress enable the two reduction operations; §4(1) and
	// §4(2) evaluate them in isolation, §4(3) together.
	Dedup    bool
	Compress bool

	// Index configures the CPU bin index (the GPU's bins are gpuBinBits /
	// gpuBinCap).
	Index dedup.IndexConfig

	// Codec selects the CPU compression algorithm (LZSS by default; the
	// QuickLZ-class codec matches the paper's CPU baseline family). Sub
	// tunes the GPU sub-block kernel (always LZSS — the paper's GPU
	// algorithm).
	Codec lz.Codec
	Sub   lz.SubBlockParams

	// SkipIncompressible enables the entropy bypass: chunks whose byte
	// entropy exceeds 7.2 bits/byte are stored raw without running the
	// encoder (or, on the GPU path, without the PCIe round trip).
	// Already-compressed or encrypted content costs one histogram pass
	// instead of a full match search.
	SkipIncompressible bool

	// IncludeDestage counts SSD destage completion in the pipeline
	// makespan. The paper reports the throughput of the data reduction
	// operations themselves, with the SSD as the comparator line rather
	// than a stage on the critical path, so this defaults to false; the
	// drive's work is fully scheduled and accounted either way.
	IncludeDestage bool

	// Verify retains stored blobs in host memory and enables
	// Engine.VerifyAgainst for end-to-end data-integrity checks. Costs
	// memory proportional to the stored unique bytes; meant for tests.
	Verify bool

	// Parallelism sizes the engine's worker pool: Parallelism-1 goroutines
	// that run whatever is posted — hash groups, encodes — beside the
	// caller's (the commit pass) and one that chunks ahead of it, so at most
	// Parallelism+1 in all; 1 starts no goroutine at all. It changes
	// wall-clock speed only: the simulated virtual-time results are
	// bit-identical for every value. 0 means runtime.NumCPU().
	Parallelism int

	// Faults schedules deterministic fault injection across the drive, the
	// journal, the GPU device, and the index. The zero value injects
	// nothing and leaves the pipeline bit-identical to a build without
	// injection. With a fixed seed, two runs of the same workload produce
	// bit-identical Reports, fault counters included, for any Parallelism.
	Faults fault.Config

	// Obs attaches an observability recorder: virtual-time spans for every
	// committed CPU job, GPU kernel, DMA, and NAND operation, plus latency
	// histograms for journal flushes and GPU batch turnaround. Recording is
	// driven from the sequential commit path only, so with a fixed seed the
	// trace bytes and histograms are bit-identical for any Parallelism. A
	// nil Obs produces a Report bit-identical to a build without
	// observability.
	Obs *obs.Recorder
}

// DefaultConfig returns the paper-faithful configuration: 4 KB chunks,
// dedup before compression, both operations on.
func DefaultConfig() Config {
	return Config{
		ChunkSize:        4096,
		Gear:             chunk.DefaultGearConfig(),
		Batch:            1024,
		GPUCompressBatch: 512,
		Lookahead:        8,
		Mode:             CPUOnly,
		Dedup:            true,
		Compress:         true,
		Index:            dedup.DefaultIndexConfig(),
		Sub:              lz.DefaultSubBlockParams(),
	}
}

// The device-resident linear bins: fewer, deeper bins than the CPU side —
// linear tables suit the GPU's layout, §3.1(2).
const (
	gpuBinBits = 6
	gpuBinCap  = 16384
)

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.ChunkSize < 64 {
		return fmt.Errorf("core: chunk size must be >= 64, got %d", c.ChunkSize)
	}
	if c.Chunker != FixedChunking && c.Chunker != CDCChunking {
		return fmt.Errorf("core: unknown chunker %d", int(c.Chunker))
	}
	if c.Batch < 1 {
		return fmt.Errorf("core: batch must be >= 1, got %d", c.Batch)
	}
	if c.GPUCompressBatch < 1 {
		return fmt.Errorf("core: GPU compress batch must be >= 1, got %d", c.GPUCompressBatch)
	}
	if c.Lookahead < 1 {
		return fmt.Errorf("core: lookahead must be >= 1, got %d", c.Lookahead)
	}
	if !c.Dedup && !c.Compress {
		return fmt.Errorf("core: at least one reduction operation must be enabled")
	}
	if c.Dedup {
		if err := c.Index.Validate(); err != nil {
			return err
		}
	}
	if c.Mode < CPUOnly || c.Mode > GPUBoth {
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: parallelism must be >= 0, got %d", c.Parallelism)
	}
	return nil
}

// Package cpusim models the host multi-core CPU on the virtual clock.
//
// The CPU is a sim.Pool with one server per hardware thread plus a cycle-cost
// model for every data reduction operation the pipeline runs on the host:
// chunking, SHA-1 hashing, bin-buffer/bin-tree index probes, LZSS
// compression, and post-processing of GPU compression results. Costs are
// expressed in cycles so the same model scales to any clock frequency, and
// they are parameterized by the *actual work performed* (bytes scanned, match
// search steps, tree depth) as reported by the real data-plane
// implementations — so, for example, highly compressible data is cheaper to
// compress in virtual time exactly as it is on real hardware.
//
// The default constants approximate the paper's testbed CPU (an Ivy Bridge
// i7-3770K-class part: 4 cores / 8 threads at 3.5 GHz) and were calibrated so
// the preliminary experiment in §3.1 and the three §4 results land near the
// published factors; see DESIGN.md.
package cpusim

import (
	"fmt"
	"time"

	"inlinered/internal/sim"
)

// Config describes a simulated CPU.
type Config struct {
	Name    string    // label used in reports
	Threads int       // hardware threads (servers in the pool)
	ClockHz float64   // core clock in Hz
	Cost    CostModel // per-operation cycle costs
}

// DefaultConfig returns the paper-testbed CPU: 4 cores / 8 threads at
// 3.5 GHz with the default cost model.
func DefaultConfig() Config {
	return Config{
		Name:    "i7-3770K-class (4C/8T @ 3.5 GHz)",
		Threads: 8,
		ClockHz: 3.5e9,
		Cost:    DefaultCostModel(),
	}
}

// CostModel holds per-operation cycle costs for the host CPU. All costs are
// in cycles; convert with CPU.Time. Zero values are legal (free operations)
// but the defaults should be used for paper-faithful results.
type CostModel struct {
	// ChunkCyclesPerByte covers the chunking stage: the rolling-hash scan
	// for content-defined chunking, or the copy/bookkeeping for fixed-size
	// chunking (fixed chunking is cheap; CDC dominates).
	ChunkCyclesPerByte float64

	// HashCyclesPerByte and HashSetupCycles cover SHA-1 fingerprinting of a
	// chunk. ~7 cycles/byte is typical for unaccelerated SHA-1 on Ivy
	// Bridge-class cores.
	HashCyclesPerByte float64
	HashSetupCycles   float64

	// ProbeBaseCycles is the fixed cost of one index lookup (function call,
	// bin selection, cache miss on the bin header).
	ProbeBaseCycles float64
	// BufferEntryCycles is the per-entry cost of scanning the bin buffer.
	BufferEntryCycles float64
	// TreeStepCycles is the per-node cost of descending the bin tree.
	TreeStepCycles float64
	// InsertCycles is the fixed extra cost of inserting a new entry
	// (rebalancing amortized in).
	InsertCycles float64

	// Compression: cost = CompressBaseCycles
	//                   + positions*CompressCyclesPerPosition
	//                   + searchSteps*MatchStepCycles
	//                   + dstBytes*EmitCyclesPerByte.
	// positions and searchSteps come from the real encoder (lz.Stats):
	// every literal or match is one position, and a long match advances
	// many input bytes in one position — which is exactly why compressible
	// data is faster to compress, on hardware and here.
	CompressBaseCycles        float64
	CompressCyclesPerPosition float64
	MatchStepCycles           float64
	EmitCyclesPerByte         float64

	// StageOverheadCycles is charged once per chunk per pipeline stage:
	// queueing, buffer staging, and framework bookkeeping that inline
	// reduction stacks pay around each operation. (Calibrated; see DESIGN.md.)
	StageOverheadCycles float64

	// DecompressCyclesPerByte covers LZSS decode (per output byte).
	DecompressCyclesPerByte float64

	// Post-processing of GPU compression results: stitching per-thread
	// sub-block streams into the container and re-encoding boundary tokens.
	PostProcessBaseCycles    float64
	PostProcessCyclesPerByte float64

	// MemcpyCyclesPerByte covers staging copies (host-side buffer moves).
	MemcpyCyclesPerByte float64

	// EntropyCyclesPerByte covers the byte-histogram entropy estimate used
	// by the incompressible-chunk bypass (one pass, one table update per
	// byte).
	EntropyCyclesPerByte float64
}

// DefaultCostModel returns the calibrated host cost model. See the package
// comment for the calibration targets.
func DefaultCostModel() CostModel {
	return CostModel{
		ChunkCyclesPerByte: 2.0,

		// SHA-1 on small buffers with framework overhead lands well above
		// the textbook cycles/byte; hashing is one of the paper's two
		// stated dedup bottlenecks.
		HashCyclesPerByte: 20.0,
		HashSetupCycles:   2000,

		// A probe into a many-million-entry in-memory index is a chain of
		// dependent uncached pointer dereferences: ~570 ns (≈2000 cycles)
		// per tree level once TLB misses, DRAM row misses, and cross-socket
		// traffic are counted — indexing is the paper's other stated
		// bottleneck, on par with hashing.
		ProbeBaseCycles:   2000,
		BufferEntryCycles: 20,
		TreeStepCycles:    2000,
		InsertCycles:      4000,

		CompressBaseCycles:        3000,
		CompressCyclesPerPosition: 125,
		MatchStepCycles:           14,
		EmitCyclesPerByte:         4,

		StageOverheadCycles: 10000,

		DecompressCyclesPerByte: 1.8,

		PostProcessBaseCycles:    4000,
		PostProcessCyclesPerByte: 4.0,

		MemcpyCyclesPerByte: 0.25,

		EntropyCyclesPerByte: 1.0,
	}
}

// HashCycles returns the cycle cost of fingerprinting n bytes.
func (m CostModel) HashCycles(n int) float64 {
	return m.HashSetupCycles + float64(n)*m.HashCyclesPerByte
}

// ChunkCycles returns the cycle cost of chunking n bytes.
func (m CostModel) ChunkCycles(n int) float64 {
	return float64(n) * m.ChunkCyclesPerByte
}

// ProbeCycles returns the cycle cost of one index lookup that scanned
// bufEntries bin-buffer entries and descended treeSteps tree nodes.
func (m CostModel) ProbeCycles(bufEntries, treeSteps int) float64 {
	return m.ProbeBaseCycles + float64(bufEntries)*m.BufferEntryCycles + float64(treeSteps)*m.TreeStepCycles
}

// IndexInsertCycles returns the cycle cost of one index insert that scanned
// bufEntries bin-buffer entries and, when it filled the buffer, descended
// flushTreeSteps tree nodes draining it into the bin tree (0 otherwise).
func (m CostModel) IndexInsertCycles(bufEntries, flushTreeSteps int) float64 {
	return m.InsertCycles + float64(bufEntries)*m.BufferEntryCycles + float64(flushTreeSteps)*m.TreeStepCycles
}

// CompressCycles returns the cycle cost of an encode that processed the
// given number of positions, examined searchSteps match candidates, and
// emitted dstBytes.
func (m CostModel) CompressCycles(positions, searchSteps, dstBytes int) float64 {
	return m.CompressBaseCycles +
		float64(positions)*m.CompressCyclesPerPosition +
		float64(searchSteps)*m.MatchStepCycles +
		float64(dstBytes)*m.EmitCyclesPerByte
}

// DecompressCycles returns the cycle cost of decoding to n output bytes.
func (m CostModel) DecompressCycles(n int) float64 {
	return float64(n) * m.DecompressCyclesPerByte
}

// PostProcessCycles returns the cycle cost of refining a GPU compression
// result of n container bytes.
func (m CostModel) PostProcessCycles(n int) float64 {
	return m.PostProcessBaseCycles + float64(n)*m.PostProcessCyclesPerByte
}

// MemcpyCycles returns the cycle cost of staging n bytes.
func (m CostModel) MemcpyCycles(n int) float64 {
	return float64(n) * m.MemcpyCyclesPerByte
}

// EntropyCycles returns the cycle cost of the entropy pre-check over n
// bytes.
func (m CostModel) EntropyCycles(n int) float64 {
	return float64(n) * m.EntropyCyclesPerByte
}

// CPU is a multi-core CPU on the virtual clock.
type CPU struct {
	Config
	Pool *sim.Pool
}

// New returns a CPU for cfg. It panics on a non-positive thread count or
// clock.
func New(cfg Config) *CPU {
	if cfg.Threads < 1 {
		panic(fmt.Sprintf("cpusim: need at least one thread, got %d", cfg.Threads))
	}
	if cfg.ClockHz <= 0 {
		panic(fmt.Sprintf("cpusim: need a positive clock, got %g", cfg.ClockHz))
	}
	return &CPU{Config: cfg, Pool: sim.NewPool("cpu:"+cfg.Name, cfg.Threads)}
}

// Time converts a cycle count into virtual time at this CPU's clock.
func (c *CPU) Time(cycles float64) time.Duration {
	if cycles <= 0 {
		return 0
	}
	return sim.Cycles(cycles, c.ClockHz)
}

// Run schedules cycles of work arriving at virtual time at on the
// earliest-free hardware thread and returns start and completion times.
func (c *CPU) Run(at time.Duration, cycles float64) (start, end time.Duration) {
	return c.Pool.Acquire(at, c.Time(cycles))
}

// Saturated reports whether every hardware thread is busy at virtual time
// at. The pipeline uses this as the "CPU utilization is full" signal from
// §3.1(3) when deciding to offload indexing to the GPU.
func (c *CPU) Saturated(at time.Duration) bool { return c.Pool.Saturated(at) }

// Utilization reports mean thread utilization over [0, until].
func (c *CPU) Utilization(until time.Duration) float64 { return c.Pool.Utilization(until) }

// Reset clears the CPU's timeline and statistics.
func (c *CPU) Reset() { c.Pool.Reset() }

// Package inlinered is a reproduction of "Parallelizing Inline Data
// Reduction Operations for Primary Storage Systems" (Ma & Park, PaCT 2017):
// an inline deduplication + LZSS compression pipeline for SSD-backed
// primary storage, parallelized across a multi-core CPU and a GPU.
//
// The public API wraps the integrated engine (internal/core) and the
// calibrated workload generator (internal/workload). A typical run:
//
//	stream, _ := inlinered.NewStream(inlinered.StreamSpec{
//		TotalBytes: 256 << 20, DedupRatio: 2, CompressionRatio: 2,
//	})
//	report, _ := inlinered.Run(inlinered.PaperPlatform(), inlinered.Options{
//		Mode: inlinered.GPUCompress,
//	}, stream)
//	fmt.Println(report)
//
// Everything runs on a deterministic virtual clock: the data plane (SHA-1
// fingerprints, the bin-based index, the LZSS codec) computes real results,
// while the CPU, GPU (SIMT + PCIe + kernel-launch costs), and SSD are
// simulated resources calibrated to the paper's testbed. See DESIGN.md for
// the substitution statement.
package inlinered

import (
	"io"

	"inlinered/internal/cluster"
	"inlinered/internal/core"
	"inlinered/internal/fault"
	"inlinered/internal/obs"
	"inlinered/internal/serve"
	"inlinered/internal/workload"
)

// Mode selects which data reduction operation owns the GPU — the four
// integration options of the paper's §4(3).
type Mode = core.Mode

// The four integration options, in the paper's presentation order.
const (
	CPUOnly     = core.CPUOnly
	GPUDedup    = core.GPUDedup
	GPUCompress = core.GPUCompress
	GPUBoth     = core.GPUBoth
)

// Modes lists the four integration options.
var Modes = core.Modes

// ParseMode parses a mode name as rendered by Mode.String ("cpu-only",
// "gpu-dedup", "gpu-compress", "gpu-both").
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// Recorder collects virtual-time spans from a run (CPU pipeline stages, GPU
// kernels and DMAs, SSD channel operations) and exports them as Chrome
// trace-event JSON via WriteTrace — viewable in Perfetto or
// chrome://tracing. Recording happens on the sequential commit path, so at
// a fixed seed the trace bytes are bit-identical for any Parallelism. One
// recorder should serve one engine or block device.
type Recorder = obs.Recorder

// NewRecorder returns an empty trace recorder.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// Platform describes the simulated hardware (CPU, GPU, SSD).
type Platform = core.Platform

// PaperPlatform returns the published testbed: an i7-3770K-class CPU, a
// Radeon HD 7970-class GPU, and an SSD 830-class drive (~80 K 4 KB-write
// IOPS — the baseline line in every figure).
func PaperPlatform() Platform { return core.PaperPlatform() }

// CPUOnlyPlatform returns the paper testbed without its GPU.
func CPUOnlyPlatform() Platform { return core.CPUOnlyPlatform() }

// WeakGPUPlatform returns a platform whose GPU is slow enough that
// calibration should route both operations to the CPU.
func WeakGPUPlatform() Platform { return core.WeakGPUPlatform() }

// Options tunes a pipeline run. The zero value is not valid; start from
// DefaultOptions (or leave fields zero in Run, which fills defaults).
type Options struct {
	// Mode is the integration option (default CPUOnly; use Calibrate to
	// pick the best one for a platform the way the paper's dummy-I/O pass
	// does).
	Mode Mode
	// DisableDedup / DisableCompression switch off one reduction operation
	// (the paper's §4(1) and §4(2) run them in isolation).
	DisableDedup       bool
	DisableCompression bool
	// ChunkSize is the reduction unit; 0 means the paper's 4 KB, and a
	// size below 64 bytes is an error.
	ChunkSize int
	// IncludeDestage counts SSD destage completion in the makespan.
	IncludeDestage bool
	// Verify retains stored blobs so the run can be checked bit-for-bit
	// against the source stream (memory-proportional; for tests).
	Verify bool
	// EntropyBypass stores high-entropy (incompressible) chunks raw
	// without running the encoder.
	EntropyBypass bool
	// ContentDefined switches chunking from fixed-size to the Gear
	// content-defined chunker.
	ContentDefined bool
	// Parallelism sizes the one pool of host workers the real computation
	// (hashing, compression) is posted to; the caller and a chunking
	// goroutine run beside its Parallelism-1 workers. It affects only how
	// fast the simulation runs on the host: the Report is bit-identical for
	// every value. 0 means runtime.NumCPU(); 1 forces a serial run.
	Parallelism int
	// FaultRate enables deterministic fault injection: every survivable
	// fault kind (transient SSD errors, latency spikes, torn journal
	// records, GPU device loss, index memory pressure) fires with this
	// per-opportunity probability, scheduled by FaultSeed. 0 disables
	// injection and leaves the Report bit-identical to a build without it;
	// a fixed seed makes two runs bit-identical, fault counters included.
	// A rate outside [0,1] is an error.
	FaultRate float64
	FaultSeed int64
	// Recorder attaches an observability recorder (NewRecorder) to the
	// run. Nil means off and leaves the Report bit-identical to a run
	// without observability.
	Recorder *Recorder
}

// Report summarizes a run: throughput (IOPS of chunk-sized writes and
// bytes/s of virtual time), achieved reduction ratios, duplicate-hit
// breakdown, resource utilizations, and SSD accounting.
type Report = core.Report

// Engine is a configured single-use pipeline.
type Engine struct {
	inner *core.Engine
}

// config converts Options into the internal configuration.
func (o Options) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = o.Mode
	cfg.Dedup = !o.DisableDedup
	cfg.Compress = !o.DisableCompression
	if o.ChunkSize != 0 {
		cfg.ChunkSize = o.ChunkSize
	}
	cfg.IncludeDestage = o.IncludeDestage
	cfg.Verify = o.Verify
	cfg.SkipIncompressible = o.EntropyBypass
	if o.ContentDefined {
		cfg.Chunker = core.CDCChunking
	}
	cfg.Parallelism = o.Parallelism
	if o.FaultRate != 0 {
		cfg.Faults = fault.Config{Seed: o.FaultSeed, Rates: fault.Uniform(o.FaultRate)}
	}
	cfg.Obs = o.Recorder
	return cfg
}

// NewEngine builds a pipeline for one run.
func NewEngine(plat Platform, opts Options) (*Engine, error) {
	inner, err := core.NewEngine(plat, opts.config())
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner}, nil
}

// Process runs the stream through the pipeline and reports the results.
func (e *Engine) Process(r io.Reader) (*Report, error) { return e.inner.Process(r) }

// Verify re-reads the original stream and checks that every chunk is
// reconstructable from what the pipeline stored. Requires Options.Verify.
func (e *Engine) Verify(r io.Reader) error { return e.inner.VerifyAgainst(r) }

// Run is the one-call convenience: build an engine, process the stream,
// return the report.
func Run(plat Platform, opts Options, r io.Reader) (*Report, error) {
	eng, err := NewEngine(plat, opts)
	if err != nil {
		return nil, err
	}
	return eng.Process(r)
}

// CalibrationResult reports the dummy-I/O calibration pass of §4(3).
type CalibrationResult = core.CalibrationResult

// Calibrate measures every integration option the platform supports on a
// short dummy stream and returns the fastest, as the paper prescribes for
// unknown platforms. sampleBytes <= 0 selects a 64 MiB dummy stream.
func Calibrate(plat Platform, opts Options, sampleBytes int64) (*CalibrationResult, error) {
	if sampleBytes <= 0 {
		sampleBytes = 64 << 20
	}
	return core.Calibrate(plat, opts.config(), sampleBytes)
}

// Op is one closed-loop block operation for Array.Serve. Write contents
// derive from Op.Content (two writes with the same id carry identical
// bytes), so op lists encode dedup behaviour without shipping payloads.
type Op = workload.Op

// OpKind is a closed-loop operation kind.
type OpKind = workload.OpKind

// The closed-loop operation kinds.
const (
	OpWrite = workload.OpWrite
	OpRead  = workload.OpRead
	OpTrim  = workload.OpTrim
)

// OpsSpec parameterizes the deterministic closed-loop op-mix generator: a
// sequential fill of the LBA space followed by the requested
// write/read/trim mix with optional hotspot and dedup knobs.
type OpsSpec = workload.ClosedLoopSpec

// NewOps generates a deterministic closed-loop op list for Array.Serve.
func NewOps(spec OpsSpec) ([]Op, error) { return workload.ClosedLoop(spec) }

// ReadMostlyOps returns the read-mostly closed-loop preset (a 90/9/1
// read/write/trim mix): the recovery-scenario workload, dominated by reads
// that must be served from a fallback replica during a node outage.
func ReadMostlyOps(ops int, blocks, seed int64) OpsSpec {
	return workload.ReadMostlySpec(ops, blocks, seed)
}

// BootStormSpec parameterizes the VDI boot-storm workload: many desktop
// clients reading the same golden image at once. Fill() yields the writes
// that install the image (heavily deduplicating, like cloned VM images);
// Storm() yields the interleaved per-client read stream for ReadBatch.
type BootStormSpec = workload.BootStormSpec

// DefaultBootStormSpec returns the stock boot-storm shape: 32 clients
// re-reading a 256-block golden image with jittered start offsets.
func DefaultBootStormSpec() BootStormSpec { return workload.DefaultBootStormSpec() }

// ReadOps extracts the read LBAs from a closed-loop op list, in order —
// the bridge from NewOps/ReadMostlyOps output to ReadBatch input.
func ReadOps(ops []Op) []int64 { return serve.ReadOps(ops) }

// ServeOptions tune an Array.Serve run: Clients (goroutines draining shard
// queues; wall clock only, the report is bit-identical for any count),
// ContentSeed (what turns an Op's content id into its payload; the payload's
// random-byte fraction is fixed at 0.5) and CleanEvery (run a shard's
// cleaner every N of its ops).
type ServeOptions = serve.RunOptions

// ServeReport summarizes an Array.Serve run: merged stats (counters sum,
// histogram buckets merge) plus a per-shard breakdown, under the
// "inlinered/serve-report/v1" JSON schema. It excludes the client count and
// every wall-clock quantity, so two runs that differ only in scheduling
// encode to identical bytes.
type ServeReport = serve.Report

// Array is the sharded, goroutine-safe serving front-end over the
// deduplicating volume: LBAs route across N independent volume shards
// (lba % N), each with its own virtual clock, fault-injector stream, and
// journal region, so concurrent clients drive shards in parallel on the
// wall clock while every virtual-time result stays deterministic.
//
// Sharding parallelizes the wall clock, never the virtual one: at a fixed
// FaultSeed and shard count, Serve's merged report and per-shard stats are
// bit-identical for any client count and any GOMAXPROCS. The direct
// Write/Read/Trim methods are goroutine-safe but interleave in arrival
// order, so only the batch paths (Serve, ReadBatch) promise cross-run
// bit-identity.
//
// Array is serve.Array under its public name; the methods are documented
// on that type.
type Array = serve.Array

// NewArray builds a sharded array from block-device options (Shards > 1
// requires Recorder to be nil: a recorder serves one volume's lanes).
func NewArray(opts BlockDeviceOptions) (*Array, error) {
	return serve.New(opts.serveConfig())
}

// ClusterServeOptions tune a Cluster.Serve run. They are ServeOptions one
// tier up: Clients counts the workers draining node queues (each node's array
// fans out across its own shards below that), and ContentSeed is fixed by the
// cluster's first batch — repairs re-derive payloads from remembered content
// ids, so Serve returns an error for a later batch under another seed.
type ClusterServeOptions = cluster.RunOptions

// ClusterReport summarizes a Cluster.Serve run under the
// "inlinered/cluster-report/v1" JSON schema: client-op totals, the
// membership/degraded-mode/repair counters, cluster-merged stats, and a
// per-node breakdown. Like ServeReport it excludes every wall-clock
// quantity, so runs differing only in scheduling encode identically.
type ClusterReport = cluster.Report

// ClusterFaultCounters tallies a batch's degraded-mode work: crashes and
// rejoins, fallback and unserved reads, queued mutations, divergences, and
// the repair traffic that healed them.
type ClusterFaultCounters = cluster.FaultCounters

// ScrubReport summarizes a Cluster.Scrub replica-agreement sweep.
type ScrubReport = cluster.ScrubReport

// Cluster is the replicated tier over the sharded array: Nodes independent
// arrays with LBA ranges rendezvous-placed on Replicas of them. Writes
// replicate to every live owner, reads prefer the primary and fall back to
// a surviving replica during an outage, a crashed node replays the
// mutations it missed when it rejoins, and reads repair diverged copies
// they touch (Scrub sweeps the rest). The batch Serve path promises
// bit-identical reports for any client count and GOMAXPROCS at a fixed
// configuration — the same wall-clock-only parallelism contract as Array.
//
// Cluster is cluster.Cluster under its public name; the methods are
// documented on that type.
type Cluster = cluster.Cluster

// NewCluster builds a replicated cluster from block-device options: Nodes
// arrays of opts.Shards shards each, with Replicas-way placement and
// optional node-level fault injection (NodeFaultRate/NodeFaultSeed).
func NewCluster(opts BlockDeviceOptions) (*Cluster, error) {
	return cluster.New(opts.clusterConfig())
}

// ClusterReadBatchOptions tune a Cluster.ReadBatch run: ReadBatchOptions,
// with Clients counting the workers that drain node batches.
type ClusterReadBatchOptions = cluster.ReadBatchOptions

// ClusterReadBatchReport summarizes a Cluster.ReadBatch run under the
// "inlinered/cluster-readbatch-report/v3" JSON schema. Like the serve-tier
// report it excludes client counts, decode parallelism, and wall clocks.
type ClusterReadBatchReport = cluster.ReadBatchReport

// StreamSpec describes a synthetic workload stream (the vdbench stand-in):
// both knobs the paper's evaluation uses, calibrated against this
// repository's actual LZSS encoder.
type StreamSpec struct {
	TotalBytes       int64   // stream length (whole chunks)
	ChunkSize        int     // 0 means 4 KB
	DedupRatio       float64 // total/unique bytes; 0 means 1.0 (all unique)
	CompressionRatio float64 // LZSS ratio per unique chunk; 0 means 1.0
	TemporalLocality bool    // bias duplicate references toward recent chunks
	Seed             int64
}

// Stream is a deterministic synthetic workload (io.Reader).
type Stream = workload.Stream

// NewStream builds a calibrated workload stream.
func NewStream(spec StreamSpec) (*Stream, error) {
	ws := workload.Spec{
		TotalBytes: spec.TotalBytes,
		ChunkSize:  spec.ChunkSize,
		DedupRatio: spec.DedupRatio,
		CompRatio:  spec.CompressionRatio,
		Seed:       spec.Seed,
	}
	if ws.ChunkSize == 0 {
		ws.ChunkSize = 4096
	}
	if ws.DedupRatio == 0 {
		ws.DedupRatio = 1.0
	}
	if ws.CompRatio == 0 {
		ws.CompRatio = 1.0
	}
	if spec.TemporalLocality {
		ws.Pattern = workload.RefRecent
	}
	return workload.New(ws)
}

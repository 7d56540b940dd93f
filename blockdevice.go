package inlinered

import (
	"fmt"

	"inlinered/internal/cluster"
	"inlinered/internal/fault"
	"inlinered/internal/obs"
	"inlinered/internal/serve"
	"inlinered/internal/sim"
	"inlinered/internal/volume"
)

// BlockDeviceOptions tunes a deduplicating, compressing block device (the
// volume extension — see DESIGN.md).
type BlockDeviceOptions struct {
	// Blocks is the logical capacity in 4 KB blocks (the paper's chunk); 0
	// means 2^18 (1 GiB).
	Blocks int64
	// DisableCompression stores unique chunks raw.
	DisableCompression bool
	// CacheBytes bounds the content-addressed read cache; 0 keeps the
	// 16 MiB default, negative disables caching.
	CacheBytes int64
	// SubBlocks > 1 compresses each unique chunk as that many independent
	// sub-blocks in an indexed container, which decodes part by part faster
	// than the single-stream decoder, even on one goroutine (DESIGN.md
	// "Parallel read path"). 0 or 1 keeps single-stream compression.
	SubBlocks int
	// Parallelism sizes the device's worker pool (0 or 1: no workers, batch
	// reads decode inline). Its Parallelism-1 goroutines run whatever is
	// posted — ReadBatch's blob decodes, Serve's write front — beside the
	// Clients of ServeOptions / ClusterServeOptions, who drain the queues.
	// Wall clock only: reports and results are bit-identical for any value.
	Parallelism int
	// FaultRate enables deterministic fault injection on the device's
	// drive, journal, and index (transient SSD errors, latency spikes, torn
	// journal records, memory-pressure evictions), scheduled by FaultSeed.
	// 0 disables injection; a fixed seed makes runs bit-identical.
	FaultRate float64
	FaultSeed int64
	// Shards splits the device into that many independent volumes behind a
	// goroutine-safe front-end: LBAs route by lba % Shards, each shard has
	// its own virtual clock, fault stream, and journal region, and stats
	// merge deterministically. 0 or 1 means a single volume (the device is
	// goroutine-safe either way). See DESIGN.md "Sharded serving".
	Shards int
	// Recorder attaches an observability recorder (NewRecorder): every
	// request, CPU job, and NAND operation records a virtual-time span, and
	// the trace exports as Chrome trace-event JSON via Recorder.WriteTrace.
	// One recorder serves one volume's lanes, so Recorder requires
	// Shards <= 1. On a Cluster the recorder instead captures membership
	// events (crash/rejoin instants on a "cluster" lane). Nil means off.
	Recorder *Recorder
	// Nodes replicates the device across a cluster of that many nodes
	// (NewCluster only; 0 means 1). Each node is a full sharded array with
	// its own virtual clock and fault streams.
	Nodes int
	// Replicas is the cluster replication factor R: each LBA range lives
	// on R of the Nodes (NewCluster only; 0 means 1, must be <= Nodes).
	Replicas int
	// NodeFaultRate enables node-level fault injection in a cluster: node
	// crashes (with queued-mutation replay at rejoin) and silent replica
	// divergence (healed by read-repair and Scrub) both fire at this
	// per-opportunity rate, scheduled by NodeFaultSeed. Independent of the
	// device-level FaultRate streams.
	NodeFaultRate float64
	NodeFaultSeed int64
}

// volumeConfig converts the device-level options into a volume config.
func (opts BlockDeviceOptions) volumeConfig() volume.Config {
	cfg := volume.DefaultConfig()
	if opts.Blocks > 0 {
		cfg.Blocks = opts.Blocks
	}
	cfg.Compress = !opts.DisableCompression
	if opts.CacheBytes > 0 {
		cfg.CacheBytes = opts.CacheBytes
	} else if opts.CacheBytes < 0 {
		cfg.CacheBytes = 0
	}
	if opts.FaultRate > 0 {
		cfg.Faults = fault.Config{Seed: opts.FaultSeed, Rates: fault.Uniform(opts.FaultRate)}
	}
	cfg.SubBlocks = opts.SubBlocks
	return cfg
}

// serveConfig converts the options into the sharded front-end's config.
func (opts BlockDeviceOptions) serveConfig() (serve.Config, error) {
	sc := serve.Config{Volume: opts.volumeConfig(), Shards: opts.Shards, Parallelism: opts.Parallelism}
	if opts.Recorder != nil {
		if opts.Shards > 1 {
			return serve.Config{}, fmt.Errorf(
				"inlinered: Recorder requires Shards <= 1 (a recorder serves one volume's lanes)")
		}
		sc.Obs = []*obs.Recorder{opts.Recorder}
	}
	return sc, nil
}

// clusterConfig converts the options into the replicated tier's config.
// The recorder (any node/shard count) captures membership events, not
// volume lanes, so the serveConfig recorder restriction does not apply.
func (opts BlockDeviceOptions) clusterConfig() cluster.Config {
	cc := cluster.Config{
		Volume:        opts.volumeConfig(),
		Nodes:         opts.Nodes,
		Replicas:      opts.Replicas,
		ShardsPerNode: opts.Shards,
		Parallelism:   opts.Parallelism,
		Obs:           opts.Recorder,
	}
	if opts.NodeFaultRate > 0 {
		cc.NodeFaults = fault.Config{
			Seed:  opts.NodeFaultSeed,
			Rates: fault.NodeUniform(opts.NodeFaultRate, opts.NodeFaultRate),
		}
	}
	return cc
}

// BlockDevice is an LBA-addressed deduplicating, compressing volume on the
// virtual clock: writes run the inline reduction path, reads decompress (or
// hit the content-addressed cache), overwrites and trims release chunk
// references, and Clean compacts log segments. Closed-loop: each operation
// reports its virtual latency.
//
// A block device IS an Array — one implementation under two names, because
// the device has always been the sharded serving front-end at its default
// of one shard (see BlockDeviceOptions.Shards). So it is safe for
// concurrent use, and requests to the same shard serialize on its virtual
// clock.
type BlockDevice = Array

// DeviceStats reports the device's space and activity accounting, including
// always-on per-operation latency summaries (WriteLat, ReadLat, TrimLat).
type DeviceStats = volume.Stats

// LatencySummary condenses a latency histogram: count, min/mean/max, and
// log-bucketed p50/p95/p99 (quantiles report a bucket's upper bound).
type LatencySummary = sim.LatencySummary

// NewBlockDevice builds a block device on the paper platform's CPU and SSD.
func NewBlockDevice(opts BlockDeviceOptions) (*BlockDevice, error) { return NewArray(opts) }

// ReadBatchOptions tune a batch read run (wall clock only — nothing here
// may affect the report or the returned bytes): Clients, and a Sink that
// receives each read's block. Sink runs with no lock held, so it may call
// back into the device.
type ReadBatchOptions = serve.ReadBatchOptions

// ReadBatchReport summarizes an Array.ReadBatch run under the
// "inlinered/serve-readbatch-report/v2" JSON schema. It excludes client
// counts, decode parallelism, and wall clocks: runs differing only in
// scheduling encode to identical bytes.
type ReadBatchReport = serve.ReadBatchReport

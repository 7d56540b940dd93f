package cluster

import (
	"fmt"
	"sync"
	"time"

	"inlinered/internal/parallel"
	"inlinered/internal/serve"
	"inlinered/internal/sim"
)

// ReadBatchOptions tune a cluster batch read. Nothing here may affect the
// report.
type ReadBatchOptions struct {
	// Clients is the number of worker goroutines draining node batches
	// (0 means one per node). Wall clock only.
	Clients int
	// Sink receives every read's result during commit, keyed by the
	// read's position in the batch. Called concurrently; block aliases
	// internal buffers and is valid only for the duration of the call.
	Sink func(i int, block []byte, err error)
}

// NodeReadReport is one node's slice of a cluster batch read: its array's
// totals.
type NodeReadReport = serve.ReadTotals

// lbaPartitions recycles ReadBatch's routing buffers across calls. A call
// takes one for its duration, so concurrent batches never share one, and
// the buffers keep their capacity: routing a steady storm allocates nothing.
var lbaPartitions = sync.Pool{New: func() any { return new(parallel.Partition[int64]) }}

// ReadBatchReport summarizes one Cluster.ReadBatch run. Like the batch
// Serve report it excludes client counts, decode parallelism, and wall
// clocks: runs differing only in scheduling encode to identical bytes.
type ReadBatchReport struct {
	Nodes        int   `json:"nodes"`
	Reads        int   `json:"reads"`
	Errors       int64 `json:"errors"`
	Fallbacks    int64 `json:"fallbacks"` // reads served off-primary (stale primary copy)
	DecodedBlobs int64 `json:"decoded_blobs"`
	DecodedParts int64 `json:"decoded_parts"`

	// Chunk-cache accounting summed over nodes (deterministic: every
	// counter moves in the per-shard sequential plan phases).
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	CacheAdmissions int64 `json:"cache_admissions"`
	CacheGhostHits  int64 `json:"cache_ghost_hits"`

	Elapsed time.Duration    `json:"elapsed_ns"` // slowest node's virtual elapsed time
	PerNode []NodeReadReport `json:"per_node"`
}

// HitRate returns the batch's cache hit fraction over lookups (0 when the
// batch looked nothing up).
func (r *ReadBatchReport) HitRate() float64 {
	return serve.ReadTotals{CacheHits: r.CacheHits, CacheMisses: r.CacheMisses}.HitRate()
}

// ReadBatchReportSchema versions the cluster batch-read report envelope.
// v2 added the cache_* counters from the scan-resistant admission policy.
const ReadBatchReportSchema = "inlinered/cluster-readbatch-report/v2"

// JSON encodes the report as stable, indented JSON with a schema envelope.
func (r *ReadBatchReport) JSON() ([]byte, error) {
	return sim.EncodeReport(ReadBatchReportSchema, r)
}

// String renders a one-look summary.
func (r *ReadBatchReport) String() string {
	return fmt.Sprintf(
		"nodes=%d reads=%d errors=%d fallbacks=%d decoded blobs=%d parts=%d cache hits=%d/%d (%.1f%%) elapsed=%v",
		r.Nodes, r.Reads, r.Errors, r.Fallbacks, r.DecodedBlobs, r.DecodedParts,
		r.CacheHits, r.CacheHits+r.CacheMisses, 100*r.HitRate(),
		r.Elapsed.Round(time.Microsecond))
}

// Close stops the shared decode workers and releases every node array's
// batch state (see serve.Array.Close). Idempotent; the cluster stays usable.
func (c *Cluster) Close() {
	c.mu.Lock()
	nodes := c.nodes
	c.mu.Unlock()
	for _, n := range nodes {
		n.arr.Close()
	}
}

// ReadBatch executes a batch of reads across the cluster — the batch
// skeleton again: validate, a sequential routing phase that partitions the
// reads by their first non-stale replica (primary unless a diverged copy is
// known there), workers draining whole per-node queues through
// serve.Array.ReadBatch, merge.
//
// ReadBatch is the healthy-cluster fast path (the VDI boot storm: every
// desktop reading the golden image at once). Unlike batch Serve it
// consults no fault stream and performs no repairs — known-stale copies
// are routed around, not rewritten, and membership does not change
// mid-batch. Routing is sequential and each node's batch is deterministic,
// so the report is bit-identical for any Clients, Parallelism, or
// GOMAXPROCS.
func (c *Cluster) ReadBatch(lbas []int64, opt ReadBatchOptions) (*ReadBatchReport, error) {
	for i, lba := range lbas {
		if lba < 0 || lba >= c.blocks {
			return nil, fmt.Errorf("cluster: read %d: lba %d outside [0,%d)", i, lba, c.blocks)
		}
	}
	part := lbaPartitions.Get().(*parallel.Partition[int64])
	defer lbaPartitions.Put(part)
	out := &ReadBatchReport{Reads: len(lbas)}
	c.mu.Lock()
	nodes := c.nodes
	part.Split(len(lbas), len(nodes), func(i int) int {
		owners := c.owners(lbas[i])
		for _, n := range owners {
			if !c.stale[stKey{n, lbas[i]}] {
				if n != owners[0] {
					out.Fallbacks++
				}
				return n
			}
		}
		return owners[0] // every copy stale: the primary's is as good as any
	}, func(i int) int64 { return lbas[i] })
	c.draining++
	c.mu.Unlock()

	out.Nodes, out.PerNode = len(nodes), make([]NodeReadReport, len(nodes))
	err := c.pool.ForEach(len(nodes), opt.Clients, func(n int) error {
		var sink func(k int, block []byte, err error)
		if opt.Sink != nil {
			pos := part.Pos[n]
			sink = func(k int, block []byte, err error) { opt.Sink(pos[k], block, err) }
		}
		rep, err := nodes[n].arr.ReadBatch(part.Queues[n], serve.ReadBatchOptions{Sink: sink})
		if err != nil {
			return err
		}
		out.PerNode[n] = rep.ReadTotals
		return nil
	})
	c.drained()
	if err != nil {
		return nil, err
	}
	var sum serve.ReadTotals
	for _, t := range out.PerNode {
		sum.Add(t)
	}
	out.Errors = sum.Errors
	out.DecodedBlobs = sum.DecodedBlobs
	out.DecodedParts = sum.DecodedParts
	out.CacheHits = sum.CacheHits
	out.CacheMisses = sum.CacheMisses
	out.CacheAdmissions = sum.CacheAdmissions
	out.CacheGhostHits = sum.CacheGhostHits
	out.Elapsed = sum.Elapsed
	return out, nil
}

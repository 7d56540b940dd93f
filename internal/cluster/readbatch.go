package cluster

import (
	"fmt"
	"sync"
	"time"

	"inlinered/internal/parallel"
	"inlinered/internal/serve"
	"inlinered/internal/sim"
	"inlinered/internal/volume"
)

// ReadBatchOptions tune a cluster batch read: serve's options, with
// Clients counting the workers that drain node batches (0 means one per
// node). Nothing here may affect the report.
type ReadBatchOptions = serve.ReadBatchOptions

// NodeReadReport is one node's slice of a cluster batch read: its array's
// totals.
type NodeReadReport = volume.ReadTotals

// lbaPartitions recycles ReadBatch's routing buffers across calls. A call
// takes one for its duration, so concurrent batches never share one, and
// the buffers keep their capacity: routing a steady storm allocates nothing.
var lbaPartitions = sync.Pool{New: func() any { return new(parallel.Partition[int64]) }}

// ReadBatchReport summarizes one Cluster.ReadBatch run. Like the batch
// Serve report it excludes client counts, decode parallelism, and wall
// clocks: runs differing only in scheduling encode to identical bytes.
type ReadBatchReport struct {
	Nodes int `json:"nodes"`
	// The nodes' totals merged: counters sum (the cache counters all move in
	// the per-shard sequential plan phases, so they are deterministic) and
	// Elapsed is the slowest node's.
	volume.ReadTotals
	Fallbacks int64            `json:"fallbacks"` // reads served off-primary (stale primary copy)
	PerNode   []NodeReadReport `json:"per_node"`
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
	c.mu.Lock()
	nodes := c.nodes
	out := &ReadBatchReport{Nodes: len(nodes), PerNode: make([]NodeReadReport, len(nodes))}
	part.Split(len(lbas), len(nodes), func(i int) int {
		n := c.fresh(lbas[i])
		if n != c.owners(lbas[i])[0] {
			out.Fallbacks++
		}
		return n
	}, func(i int) int64 { return lbas[i] })
	c.draining++
	c.mu.Unlock()

	err := c.pool.ForEach(len(nodes), opt.Clients, func(n int) error {
		var sink func(k int, block []byte, err error)
		if opt.Sink != nil {
			pos := part.Pos[n]
			sink = func(k int, block []byte, err error) { opt.Sink(pos[k], block, err) }
		}
		rep, err := nodes[n].ReadBatch(part.Queues[n], ReadBatchOptions{Sink: sink})
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
	for _, t := range out.PerNode {
		out.Add(t)
	}
	return out, nil
}

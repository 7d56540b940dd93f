// Package cluster is the replicated tier over serve.Array: N nodes, each a
// sharded array with its own virtual clock and fault streams, with LBA
// ranges placed on R of the N nodes by rendezvous hashing. Writes replicate
// to every live owner, reads prefer the primary and fall back to the next
// live replica, and a node that crashes mid-batch queues the mutations it
// missed and replays them — read-repair — when it rejoins.
//
// Determinism contract: the cluster parallelizes the WALL clock only, the
// same promise serve.Array makes one level down. A batch Serve call runs a
// single-threaded sequencing phase first — membership events (crash,
// rejoin), replica routing, divergence draws, and repair synthesis are all
// decided in op-index order from the node-level fault streams before any
// goroutine runs — and only then do workers drain whole per-node queues
// through serve.Array.Serve, which is itself deterministic. Merged cluster
// reports therefore compare bit-for-bit across client counts and
// GOMAXPROCS at a fixed seed, node count, replica count, and shard count.
//
// Failure model: single-failure, fail-stop. The NodeCrash stream is
// consulted once per sequenced op while all nodes are up; a crash picks a
// victim and a rejoin delay measured in op indexes (virtual time advances
// per node, so op index is the only cross-node notion of "when" that is
// schedule-independent). While a node is down its owned writes and trims
// are queued as dirty state; rejoin replays them — a write repair charges a
// read on the surviving source replica and a write on the rejoined node.
// ReplicaDivergence models an asynchronous replica silently dropping a
// write (the primary is synchronous and never diverges); a later read that
// prefers the stale replica detects and repairs it, and Scrub sweeps the
// full range for anything reads never touched. Every batch force-rejoins
// all down nodes at the end, so a Serve call always returns with the
// cluster healed (though possibly still stale — Scrub proves agreement).
//
// Repair payloads are synthesized from content ids, not copied bytes: the
// sequencing phase remembers the last content id written per LBA, so a
// repair is just another op in the rejoined node's queue and node queues
// stay independent — no cross-node data dependency at drain time, which is
// what keeps the execution phase embarrassingly parallel. It requires one
// ContentSeed for the batches of a cluster's lifetime, so Serve refuses a
// batch that changes it.
package cluster

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"inlinered/internal/fault"
	"inlinered/internal/metrics"
	"inlinered/internal/obs"
	"inlinered/internal/parallel"
	"inlinered/internal/serve"
	"inlinered/internal/sim"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// nodeSeedStride separates per-node device fault streams, the same trick
// serve uses per shard (with a distinct constant so node i / shard j
// streams never collide). Node 0 keeps the caller's seed, so a 1-node
// 1-replica cluster reproduces a raw serve.Array exactly.
const nodeSeedStride = 0x510E527FADE682D1

// Config describes a replicated cluster.
type Config struct {
	// Volume is the per-node volume configuration. Blocks is the CLUSTER's
	// logical capacity; every node's array spans the full LBA space (the
	// address maps are sparse, so unowned ranges cost nothing) and the
	// placement directory decides which nodes actually store each range.
	Volume volume.Config
	// Nodes is the node count (0 means 1).
	Nodes int
	// Replicas is the replication factor R: each LBA range lives on R
	// nodes (0 means 1). Must be <= Nodes.
	Replicas int
	// ShardsPerNode is each node's serve.Array shard count (0 means 1).
	ShardsPerNode int
	// Parallelism sizes the one worker pool every node's array shares: its
	// Parallelism-1 goroutines run the decodes and write-front groups any
	// node posts (see serve.Config.Parallelism). Wall clock only — reports
	// are bit-identical for any value.
	Parallelism int
	// RangeBlocks is the placement granularity: consecutive runs of this
	// many LBAs share an owner set (0 means 64).
	RangeBlocks int64
	// NodeFaults drives the node-level streams (NodeCrash,
	// ReplicaDivergence, rejoin delays). Device-level kinds belong in
	// Volume.Faults; node kinds set here never touch the volumes.
	NodeFaults fault.Config
	// RejoinMinOps/RejoinMaxOps bound the crash-to-rejoin delay in
	// sequenced op indexes (0,0 means 50..200).
	RejoinMinOps int
	RejoinMaxOps int
	// Obs optionally records membership events (crash/rejoin/repair
	// instants) on a "cluster"/"membership" lane. The timeline is the
	// cumulative sequenced op index in microseconds — the cluster's only
	// schedule-independent notion of time.
	Obs *obs.Recorder
}

// stKey identifies a (node, LBA) replica copy known to be stale.
type stKey struct {
	node int
	lba  int64
}

// Cluster is the replicated front-end. The batch Serve path, the direct
// ops, Scrub, and AddNode are all safe for concurrent use (a cluster-wide
// mutex serializes metadata; per-node arrays lock independently), but only
// the batch path promises bit-identical reports.
type Cluster struct {
	cfg         Config
	blocks      int64
	rangeBlocks int64
	replicas    int

	mu    sync.Mutex
	nodes []*serve.Array // grows by append only (AddNode), so a snapshot taken under mu stays valid
	dir   [][]int        // owner set per range, primary first
	inj   *fault.Injector
	pool  *parallel.Pool // shared with every node's array: decode workers and posted write-front tasks

	// Directory-plane truth, maintained by the sequencing phase and the
	// direct ops: per mapped LBA the content id a batch last wrote there
	// (or direct), and the replica copies known stale.
	content map[int64]int64
	stale   map[stKey]bool
	// seed is the ContentSeed of every batch so far, once seeded: the one
	// the remembered content ids turn back into the bytes clients stored.
	seed   int64
	seeded bool

	opBase   int64 // cumulative sequenced ops, for the membership timeline
	draining int   // Serve and ReadBatch calls draining node queues outside mu

	obs  *obs.Recorder
	lane obs.Lane
}

// New builds a cluster of cfg.Nodes independent arrays.
func New(cfg Config) (*Cluster, error) {
	nn := cfg.Nodes
	if nn == 0 {
		nn = 1
	}
	rr := cfg.Replicas
	if rr == 0 {
		rr = 1
	}
	if nn < 1 {
		return nil, fmt.Errorf("cluster: nodes must be >= 1, got %d", nn)
	}
	if rr < 1 || rr > nn {
		return nil, fmt.Errorf("cluster: replicas must be in [1,%d], got %d", nn, rr)
	}
	rb := cfg.RangeBlocks
	if rb == 0 {
		rb = 64
	}
	if rb < 1 {
		return nil, fmt.Errorf("cluster: range blocks must be >= 1, got %d", rb)
	}
	lo, hi := cfg.RejoinMinOps, cfg.RejoinMaxOps
	if lo == 0 && hi == 0 {
		lo, hi = 50, 200
	}
	if lo < 1 || hi < lo {
		return nil, fmt.Errorf("cluster: rejoin delay bounds [%d,%d] invalid", lo, hi)
	}
	c := &Cluster{
		cfg:         cfg,
		blocks:      cfg.Volume.Blocks,
		rangeBlocks: rb,
		replicas:    rr,
		content:     make(map[int64]int64),
		stale:       make(map[stKey]bool),
		obs:         cfg.Obs,
	}
	c.cfg.RejoinMinOps, c.cfg.RejoinMaxOps = lo, hi
	if cfg.NodeFaults.Enabled() {
		c.inj = fault.New(cfg.NodeFaults)
	}
	c.pool = parallel.New(max(cfg.Parallelism, 1))
	if c.obs != nil {
		c.lane = c.obs.Lane("cluster", "membership")
	}
	for i := 0; i < nn; i++ {
		n, err := c.newNode(i)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	c.dir = c.buildDirectory(len(c.nodes))
	return c, nil
}

// newNode builds node id's array: the full cluster config with the device
// fault seed offset per node so each node injects from its own streams.
func (c *Cluster) newNode(id int) (*serve.Array, error) {
	sc := serve.Config{Volume: c.cfg.Volume, Shards: c.cfg.ShardsPerNode}
	sc.Volume.Faults.Seed += int64(id) * nodeSeedStride
	arr, err := serve.NewWithPool(sc, c.pool)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	return arr, nil
}

// mix64 is the SplitMix64 finalizer, the same mixer the fault package uses
// to split seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// rendezvousScore ranks node n for range r. Highest-random-weight hashing:
// adding a node perturbs only the ranges the new node wins, so rebalancing
// moves the minimum number of ranges.
func rendezvousScore(r int, n int) uint64 {
	return mix64(uint64(r+1)*0x9e3779b97f4a7c15 ^ uint64(n+1)*0xbf58476d1ce4e5b9)
}

// buildDirectory computes the owner set (top-Replicas nodes by rendezvous
// score, primary first) for every placement range over nn nodes.
func (c *Cluster) buildDirectory(nn int) [][]int {
	ranges := int((c.blocks + c.rangeBlocks - 1) / c.rangeBlocks)
	dir := make([][]int, ranges)
	backing := make([]int, ranges*c.replicas)
	taken := make([]bool, nn)
	for r := range dir {
		owners := backing[r*c.replicas : (r+1)*c.replicas]
		clear(taken)
		for k := 0; k < c.replicas; k++ {
			best, bestScore := -1, uint64(0)
			for n := 0; n < nn; n++ {
				if taken[n] {
					continue
				}
				if s := rendezvousScore(r, n); best < 0 || s > bestScore {
					best, bestScore = n, s
				}
			}
			owners[k] = best
			taken[best] = true
		}
		dir[r] = owners
	}
	return dir
}

// owners returns the owner set for an LBA, primary first. The returned
// slice aliases the directory; callers must not mutate it.
func (c *Cluster) owners(lba int64) []int {
	return c.dir[lba/c.rangeBlocks]
}

// direct marks, in content, a block whose bytes a direct Write stored: it
// is mapped, but no content id names what it holds (ids are int32s).
const direct = math.MaxInt64

// contentID returns the content id a batch last wrote at lba; false when the
// block is unmapped or holds directly-written bytes. Caller holds c.mu.
func (c *Cluster) contentID(lba int64) (int32, bool) {
	id, ok := c.content[lba]
	return int32(id), ok && id != direct
}

// members returns the node arrays, in node order.
func (c *Cluster) members() []*serve.Array {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.members()) }

// Replicas returns the replication factor.
func (c *Cluster) Replicas() int { return c.replicas }

// Blocks returns the cluster's logical capacity in blocks.
func (c *Cluster) Blocks() int64 { return c.blocks }

// Now returns the cluster's virtual clock: the slowest node's clock (nodes
// run concurrently in simulated time).
func (c *Cluster) Now() time.Duration {
	var now time.Duration
	for _, a := range c.members() {
		now = max(now, a.Now())
	}
	return now
}

// NodeStats returns each node's merged array stats, in node order.
func (c *Cluster) NodeStats() []volume.Stats {
	nodes := c.members()
	out := make([]volume.Stats, len(nodes))
	for i, a := range nodes {
		out[i] = a.Stats()
	}
	return out
}

// Stats returns cluster-merged stats: the nodes' array snapshots merged
// again (counters sum, latency summaries recomputed from the histograms
// merged across every node's shards).
func (c *Cluster) Stats() volume.Stats {
	var out volume.Snapshot
	for _, a := range c.members() {
		sn := a.Snapshot()
		out.Merge(&sn)
	}
	return out.Stats()
}

// Close stops the shared decode workers and releases every node array's
// batch state (see serve.Array.Close). Idempotent; the cluster stays usable.
func (c *Cluster) Close() {
	for _, a := range c.members() {
		a.Close()
	}
}

// instant records a membership event on the cluster lane at the cumulative
// sequenced op index (in microseconds) — called only from single-threaded
// sections, so the trace is deterministic.
func (c *Cluster) instant(name string, nodeID int, opIdx int) {
	if c.obs == nil {
		return
	}
	at := time.Duration(c.opBase+int64(opIdx)) * time.Microsecond
	c.obs.Instant(c.lane, fmt.Sprintf("%s-n%d", name, nodeID), at)
}

// FaultCounters tallies the degraded-mode work a batch performed.
type FaultCounters struct {
	// NodeCrashes / NodeRejoins count membership transitions (every crash
	// rejoins by end of batch, so these match in any completed report).
	NodeCrashes int64 `json:"node_crashes"`
	NodeRejoins int64 `json:"node_rejoins"`
	// ReadsFallback served from a non-primary replica because the primary
	// was down or stale-with-a-fresh-sibling; ReadsStale had no fresh live
	// replica and served possibly-old data; ReadsUnserved had no live
	// replica at all (impossible under the single-failure model with R>=2).
	ReadsFallback int64 `json:"reads_fallback"`
	ReadsStale    int64 `json:"reads_stale"`
	ReadsUnserved int64 `json:"reads_unserved"`
	// WritesQueued / TrimsQueued are mutations a down owner missed, queued
	// as dirty state for replay at rejoin.
	WritesQueued int64 `json:"writes_queued"`
	TrimsQueued  int64 `json:"trims_queued"`
	// Divergences are replica writes silently dropped by injection;
	// ReadRepairs are reads that detected a stale preferred replica and
	// repaired it inline.
	Divergences int64 `json:"divergences"`
	ReadRepairs int64 `json:"read_repairs"`
	// RepairWrites / RepairReads are the repair ops synthesized into node
	// queues: mutations replayed into a rejoined or stale replica, and the
	// charged source reads on a surviving replica.
	RepairWrites int64 `json:"repair_writes"`
	RepairReads  int64 `json:"repair_reads"`
}

// Total returns the sum of all counters.
func (f FaultCounters) Total() int64 {
	return f.NodeCrashes + f.NodeRejoins + f.ReadsFallback + f.ReadsStale +
		f.ReadsUnserved + f.WritesQueued + f.TrimsQueued + f.Divergences +
		f.ReadRepairs + f.RepairWrites + f.RepairReads
}

// RunOptions tune a batch Serve run: serve's options, read one tier up.
// Clients is the number of workers draining node queues (0 means one per
// node); each node's array fans out further across its own shards, so a
// Serve call runs at most Clients x ShardsPerNode goroutines, and a worker
// with no node left hashes and encodes ahead for the nodes still draining.
// ContentSeed is fixed by a cluster's first batch: repair payloads are
// re-derived from remembered content ids, so Serve refuses a later batch
// under another seed — it would repair with bytes no client stored. Only
// Clients affects the wall clock; nothing here affects the report.
type RunOptions = serve.RunOptions

// Report summarizes a batch Serve run. Like serve.Report it excludes the
// client count and wall-clock measurements: two runs differing only in
// scheduling must encode to identical bytes.
type Report struct {
	Nodes    int   `json:"nodes"`
	Replicas int   `json:"replicas"`
	Ops      int   `json:"ops"` // client ops (repair ops are extra, counted in Faults)
	Writes   int64 `json:"writes"`
	Reads    int64 `json:"reads"`
	Trims    int64 `json:"trims"`
	// Errors sums per-op injected device faults across nodes.
	Errors int64 `json:"errors"`
	// Elapsed is the slowest node's virtual elapsed time for the batch.
	Elapsed time.Duration `json:"elapsed_ns"`
	Faults  FaultCounters `json:"faults"`
	// Merged is the cluster's lifetime merged stats (same cumulative
	// semantics as serve.Report.Merged).
	Merged  volume.Stats   `json:"merged"`
	PerNode []serve.Report `json:"per_node"`
}

// ReportSchema versions the cluster report envelope.
const ReportSchema = "inlinered/cluster-report/v1"

// JSON encodes the report as stable, indented JSON with a schema envelope.
func (r *Report) JSON() ([]byte, error) { return sim.EncodeReport(ReportSchema, r) }

// String renders a one-look summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"nodes=%d replicas=%d ops=%d (w=%d r=%d t=%d) errors=%d elapsed=%v\n"+
			"  membership: crashes=%d rejoins=%d divergences=%d\n"+
			"  degraded: fallback-reads=%d stale-reads=%d unserved=%d queued w=%d t=%d\n"+
			"  repair: read-repairs=%d writes=%d reads=%d\n"+
			"  space: logical=%d stored=%d reduction=%.2fx dedup hits=%d",
		r.Nodes, r.Replicas, r.Ops, r.Writes, r.Reads, r.Trims, r.Errors,
		r.Elapsed.Round(time.Microsecond),
		r.Faults.NodeCrashes, r.Faults.NodeRejoins, r.Faults.Divergences,
		r.Faults.ReadsFallback, r.Faults.ReadsStale, r.Faults.ReadsUnserved,
		r.Faults.WritesQueued, r.Faults.TrimsQueued,
		r.Faults.ReadRepairs, r.Faults.RepairWrites, r.Faults.RepairReads,
		r.Merged.LogicalBytes, r.Merged.StoredBytes,
		r.Merged.ReductionRatio(), r.Merged.DedupHits)
}

// sequencer holds the batch sequencing phase's per-call state.
type sequencer struct {
	queues   [][]workload.Op
	down     []bool
	rejoinAt []int
	dirty    []map[int64]byte // per down node: lba -> 'W' or 'T'
	downCnt  int
	fc       FaultCounters
}

// Serve executes a batch of client operations across the cluster and
// returns the merged report.
//
// It is the batch skeleton with a sequencer for a partitioner. Phase 1
// (single-threaded, under the cluster mutex): walk ops in index order,
// driving the membership schedule from the node fault streams and routing
// each op to the live owners — appending queued-mutation replays and
// read-repairs as extra ops in the affected nodes' queues. Phase 2: workers
// claim WHOLE node queues (Pool.ForEach) and drain them through
// serve.Array.Serve, so scheduling decides only WHEN a node executes,
// never WHAT. Then merge.
func (c *Cluster) Serve(ops []workload.Op, opt RunOptions) (*Report, error) {
	kinds, err := workload.CheckOps(ops, c.blocks)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.mu.Lock()
	if c.seeded && opt.ContentSeed != c.seed {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: Serve: ContentSeed %d differs from %d used by earlier batches", opt.ContentSeed, c.seed)
	}
	c.seed, c.seeded = opt.ContentSeed, true
	nn := len(c.nodes)
	seq := &sequencer{
		queues:   make([][]workload.Op, nn),
		down:     make([]bool, nn),
		rejoinAt: make([]int, nn),
		dirty:    make([]map[int64]byte, nn),
	}
	for i, op := range ops {
		// Rejoins due at this index replay their dirty state first, so the
		// current op sees a healed owner set when the outage just ended.
		for n := 0; n < nn; n++ {
			if seq.down[n] && seq.rejoinAt[n] <= i {
				c.rejoin(seq, n, i)
			}
		}
		// Single-failure model: the crash stream is consulted once per op
		// while the cluster is whole, never during an outage — keeping the
		// stream's consult count a pure function of the op list.
		if seq.downCnt == 0 && c.inj.NodeCrashes() {
			victim := c.inj.CrashVictim(nn)
			seq.down[victim] = true
			seq.downCnt++
			seq.rejoinAt[victim] = i + c.inj.RejoinDelayOps(c.cfg.RejoinMinOps, c.cfg.RejoinMaxOps)
			seq.dirty[victim] = make(map[int64]byte)
			seq.fc.NodeCrashes++
			c.instant("node-crash", victim, i)
		}
		owners := c.owners(op.LBA)
		switch op.Kind {
		case workload.OpWrite:
			c.routeWrite(seq, op, owners)
		case workload.OpTrim:
			c.routeTrim(seq, op, owners)
		case workload.OpRead:
			c.routeRead(seq, op, owners)
		}
	}
	// A batch always ends whole: force-rejoin stragglers so the repair
	// debt is settled inside the report that incurred it.
	for n := 0; n < nn; n++ {
		if seq.down[n] {
			c.rejoin(seq, n, len(ops))
		}
	}
	c.opBase += int64(len(ops))
	nodes := c.nodes
	c.draining++
	c.mu.Unlock()

	// Phase 2: drain node queues concurrently. Claiming whole queues keeps
	// each node's op order fixed; serve.Array.Serve is deterministic below.
	clients := opt.Clients
	opt.Clients = c.cfg.ShardsPerNode
	rep := &Report{
		Nodes: nn, Replicas: c.replicas, Ops: len(ops), Writes: kinds.Writes, Reads: kinds.Reads, Trims: kinds.Trims,
		Faults: seq.fc, PerNode: make([]serve.Report, nn),
	}
	err = c.pool.ForEach(nn, clients, func(i int) error {
		serveStart := metrics.Clock()
		nodeRep, err := nodes[i].Serve(seq.queues[i], opt)
		metrics.ClusterNodeServe.ObserveSince(serveStart)
		if err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
		rep.PerNode[i] = *nodeRep
		return nil
	})
	c.drained()
	if err != nil {
		return nil, err
	}
	for i := range rep.PerNode {
		rep.Errors += rep.PerNode[i].Errors
		rep.Elapsed = max(rep.Elapsed, rep.PerNode[i].Elapsed)
	}
	rep.Merged = c.Stats()
	return rep, nil
}

// drained ends the drain phase a batch call announced with c.draining++.
func (c *Cluster) drained() {
	c.mu.Lock()
	c.draining--
	c.mu.Unlock()
}

// rejoin replays node n's dirty state (in ascending LBA order, so the
// replay sequence is deterministic) and marks it live again. Caller holds
// the cluster mutex.
func (c *Cluster) rejoin(seq *sequencer, n int, opIdx int) {
	replayStart := metrics.Clock()
	defer metrics.ClusterReplay.ObserveSince(replayStart)
	lbas := make([]int64, 0, len(seq.dirty[n]))
	for lba := range seq.dirty[n] {
		lbas = append(lbas, lba)
	}
	slices.Sort(lbas)
	for _, lba := range lbas {
		switch seq.dirty[n][lba] {
		case 'T':
			seq.queues[n] = append(seq.queues[n], workload.Op{Kind: workload.OpTrim, LBA: lba})
			seq.fc.RepairWrites++
		case 'W':
			content, ok := c.contentID(lba)
			if !ok {
				continue
			}
			seq.queues[n] = append(seq.queues[n], workload.Op{Kind: workload.OpWrite, LBA: lba, Content: content})
			seq.fc.RepairWrites++
			delete(c.stale, stKey{n, lba})
			// Charge the source read on the first surviving owner: a real
			// repair streams the block from a live replica.
			for _, src := range c.owners(lba) {
				if src != n && !seq.down[src] {
					seq.queues[src] = append(seq.queues[src], workload.Op{Kind: workload.OpRead, LBA: lba})
					seq.fc.RepairReads++
					break
				}
			}
		}
	}
	seq.dirty[n] = nil
	seq.down[n] = false
	seq.downCnt--
	seq.fc.NodeRejoins++
	c.instant("node-rejoin", n, opIdx)
}

// routeWrite replicates a write to every owner: down owners queue it as
// dirty, a live non-primary may silently diverge (dropped by injection),
// everyone else gets the op. Caller holds the cluster mutex.
func (c *Cluster) routeWrite(seq *sequencer, op workload.Op, owners []int) {
	c.content[op.LBA] = int64(op.Content)
	for j, n := range owners {
		if seq.down[n] {
			seq.dirty[n][op.LBA] = 'W'
			seq.fc.WritesQueued++
			continue
		}
		// The primary commits synchronously and never diverges; replica
		// divergence models an async copy dropping the update.
		if j > 0 && c.inj.ReplicaDiverges() {
			c.stale[stKey{n, op.LBA}] = true
			seq.fc.Divergences++
			continue
		}
		delete(c.stale, stKey{n, op.LBA})
		seq.queues[n] = append(seq.queues[n], op)
	}
}

// routeTrim replicates a trim. Trims never diverge (metadata ops ack
// synchronously on every replica); a down owner queues the unmap for
// replay. Caller holds the cluster mutex.
func (c *Cluster) routeTrim(seq *sequencer, op workload.Op, owners []int) {
	delete(c.content, op.LBA)
	for _, n := range owners {
		// The trim supersedes any missed write, so staleness clears even
		// on a down owner (its replayed trim restores agreement).
		delete(c.stale, stKey{n, op.LBA})
		if seq.down[n] {
			seq.dirty[n][op.LBA] = 'T'
			seq.fc.TrimsQueued++
			continue
		}
		seq.queues[n] = append(seq.queues[n], op)
	}
}

// routeRead picks the serving replica — the primary when live, else the
// first live replica (a fallback read) — and read-repairs every live stale
// copy of the LBA it touches: the read compares live replica versions and
// rewrites a diverged copy from the authoritative content. A repair aimed
// at the serving replica is enqueued BEFORE the read on the same node
// queue, so the read returns fresh data. Caller holds the cluster mutex.
func (c *Cluster) routeRead(seq *sequencer, op workload.Op, owners []int) {
	serveAt, serveIdx := -1, -1
	for j, n := range owners {
		if seq.down[n] {
			continue
		}
		if serveAt < 0 {
			serveAt, serveIdx = n, j
		}
		if c.stale[stKey{n, op.LBA}] {
			if content, ok := c.contentID(op.LBA); ok {
				seq.queues[n] = append(seq.queues[n],
					workload.Op{Kind: workload.OpWrite, LBA: op.LBA, Content: content})
				seq.fc.ReadRepairs++
				seq.fc.RepairWrites++
				delete(c.stale, stKey{n, op.LBA})
			} else if n == serveAt {
				// Content not reconstructible (shouldn't happen: direct
				// writes and trims clear staleness); serve degraded.
				seq.fc.ReadsStale++
			}
		}
	}
	if serveAt < 0 {
		// No live owner. Unreachable under the single-failure model with
		// R >= 2; counted so the acceptance test can assert zero.
		seq.fc.ReadsUnserved++
		return
	}
	if serveIdx > 0 {
		seq.fc.ReadsFallback++
	}
	seq.queues[serveAt] = append(seq.queues[serveAt], op)
}

// mutate is a direct write or trim: it records what lba now holds (direct,
// or nothing), clears the staleness the op supersedes, and applies do to
// every owner synchronously (membership only changes inside a batch, so all
// owners are live here). It returns the slowest replica's latency — a
// replicated mutation completes when its last copy does — and the first
// error.
func (c *Cluster) mutate(lba int64, mapped bool, do func(*serve.Array) (time.Duration, error)) (time.Duration, error) {
	if lba < 0 || lba >= c.blocks {
		return 0, fmt.Errorf("cluster: lba %d outside [0,%d)", lba, c.blocks)
	}
	c.mu.Lock()
	owners, nodes := c.owners(lba), c.nodes
	if mapped {
		c.content[lba] = direct
	} else {
		delete(c.content, lba)
	}
	for _, n := range owners {
		delete(c.stale, stKey{n, lba})
	}
	c.mu.Unlock()
	var worst time.Duration
	var firstErr error
	for _, n := range owners {
		lat, err := do(nodes[n])
		worst = max(worst, lat)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return worst, firstErr
}

// Write stores one block on every owner. Direct writes carry raw bytes, not
// content ids, so the directory forgets any id a batch wrote there: a later
// repair never resurrects the old bytes.
func (c *Cluster) Write(lba int64, data []byte) (time.Duration, error) {
	return c.mutate(lba, true, func(a *serve.Array) (time.Duration, error) { return a.Write(lba, data) })
}

// Trim unmaps one block on every owner.
func (c *Cluster) Trim(lba int64) (time.Duration, error) {
	return c.mutate(lba, false, func(a *serve.Array) (time.Duration, error) { return a.Trim(lba) })
}

// fresh returns the node a healthy-cluster read of lba is served by: the
// first owner whose copy is not known stale — the primary unless it diverged
// — or the primary when every copy is stale (its copy is as good as any).
// Caller holds c.mu.
func (c *Cluster) fresh(lba int64) int {
	owners := c.owners(lba)
	for _, n := range owners {
		if !c.stale[stKey{n, lba}] {
			return n
		}
	}
	return owners[0]
}

// Read fetches one block from its first fresh replica (zeros when unmapped).
func (c *Cluster) Read(lba int64) ([]byte, time.Duration, error) {
	if lba < 0 || lba >= c.blocks {
		return nil, 0, fmt.Errorf("cluster: lba %d outside [0,%d)", lba, c.blocks)
	}
	c.mu.Lock()
	from := c.nodes[c.fresh(lba)]
	c.mu.Unlock()
	return from.Read(lba)
}

// ScrubReport summarizes a full-range replica-agreement sweep.
type ScrubReport struct {
	Blocks     int64 `json:"blocks"`     // LBAs scanned
	Compared   int64 `json:"compared"`   // replica copies compared against the primary
	Mismatched int64 `json:"mismatched"` // copies that disagreed
	Repaired   int64 `json:"repaired"`   // copies rewritten or trimmed back into agreement
	Errors     int64 `json:"errors"`     // injected device faults hit during the sweep
}

// Scrub sweeps the full LBA range comparing every replica copy against its
// primary (the authoritative copy) and repairing disagreements — rewriting
// the primary's bytes into a divergent replica, or trimming a replica that
// holds data the primary unmapped. It is sequential and consults no fault
// stream of its own, so a scrub is deterministic given the cluster state.
func (c *Cluster) Scrub() (*ScrubReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &ScrubReport{Blocks: c.blocks}
	for lba := int64(0); lba < c.blocks; lba++ {
		owners := c.owners(lba)
		want, _, err := c.nodes[owners[0]].Read(lba)
		if err != nil {
			rep.Errors++
			continue
		}
		for _, n := range owners[1:] {
			got, _, err := c.nodes[n].Read(lba)
			if err != nil {
				rep.Errors++
				continue
			}
			rep.Compared++
			if bytes.Equal(got, want) {
				continue
			}
			rep.Mismatched++
			if _, mapped := c.content[lba]; mapped {
				_, err = c.nodes[n].Write(lba, want)
			} else {
				_, err = c.nodes[n].Trim(lba)
			}
			if err != nil {
				rep.Errors++
				continue
			}
			rep.Repaired++
			delete(c.stale, stKey{n, lba})
		}
	}
	return rep, nil
}

// RebalanceReport summarizes a membership-change migration.
type RebalanceReport struct {
	Node          int   `json:"node"`   // id of the node that joined
	Ranges        int   `json:"ranges"` // total placement ranges
	RangesMoved   int   `json:"ranges_moved"`
	BlocksCopied  int64 `json:"blocks_copied"`
	BlocksTrimmed int64 `json:"blocks_trimmed"`
}

// AddNode grows the cluster by one node and migrates the ranges whose
// rendezvous owner set changed: mapped blocks are copied from the old
// primary to newly-added owners and trimmed from displaced ones.
// Rendezvous hashing guarantees only ranges the new node wins move, so the
// migration is minimal. A batch in flight owns the node arrays it is
// draining, so AddNode fails while one is: retry once it has returned.
func (c *Cluster) AddNode() (*RebalanceReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining > 0 {
		return nil, fmt.Errorf("cluster: AddNode: %d batch calls in flight", c.draining)
	}
	id := len(c.nodes)
	n, err := c.newNode(id)
	if err != nil {
		return nil, err
	}
	c.nodes = append(c.nodes, n)
	oldDir := c.dir
	c.dir = c.buildDirectory(len(c.nodes))
	rep := &RebalanceReport{Node: id, Ranges: len(c.dir)}
	for r := range c.dir {
		oldOwners, newOwners := oldDir[r], c.dir[r]
		if slices.Equal(oldOwners, newOwners) {
			continue
		}
		rep.RangesMoved++
		added := ownersDiff(newOwners, oldOwners)
		removed := ownersDiff(oldOwners, newOwners)
		lo := int64(r) * c.rangeBlocks
		hi := lo + c.rangeBlocks
		if hi > c.blocks {
			hi = c.blocks
		}
		for lba := lo; lba < hi; lba++ {
			if _, mapped := c.content[lba]; !mapped {
				continue
			}
			if len(added) > 0 {
				data, _, err := c.nodes[oldOwners[0]].Read(lba)
				if err != nil {
					return rep, fmt.Errorf("cluster: migrate lba %d: %w", lba, err)
				}
				for _, a := range added {
					if _, err := c.nodes[a].Write(lba, data); err != nil {
						return rep, fmt.Errorf("cluster: migrate lba %d to node %d: %w", lba, a, err)
					}
					rep.BlocksCopied++
				}
			}
			for _, rm := range removed {
				if _, err := c.nodes[rm].Trim(lba); err != nil {
					return rep, fmt.Errorf("cluster: evict lba %d from node %d: %w", lba, rm, err)
				}
				rep.BlocksTrimmed++
				delete(c.stale, stKey{rm, lba})
			}
		}
	}
	return rep, nil
}

// ownersDiff returns the members of a not present in b, in a's order.
func ownersDiff(a, b []int) []int {
	return slices.DeleteFunc(slices.Clone(a), func(n int) bool { return slices.Contains(b, n) })
}

package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"inlinered/internal/core"
	"inlinered/internal/cpusim"
	"inlinered/internal/dedup"
	"inlinered/internal/sim"
	"inlinered/internal/workload"
)

// E8BinScaling is the design ablation behind §3.1(1): partitioning the hash
// table into bins lets computing threads index "at the same time without
// locking mechanism". It indexes the same fingerprint stream through the
// bin-partitioned index (each bin owned by one worker) and through a single
// global locked table, across thread counts, in virtual time.
//
// The locked baseline charges the same per-op index work but holds one
// global lock for the duration of each critical section, plus a cache-line
// handoff cost that grows with the number of contending threads.
func E8BinScaling(cfg Config) (*Result, error) {
	ops := 1 << 18
	uniques := ops / 4
	rng := rand.New(rand.NewSource(cfg.Seed))
	fps := make([]dedup.Fingerprint, ops)
	for i := range fps {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(rng.Intn(uniques)))
		fps[i] = dedup.Sum(b[:])
	}
	cost := cpusim.DefaultCostModel()
	clock := cpusim.DefaultConfig().ClockHz
	const lockHandoffCycles = 220 // one contended cache-line transfer

	table := &Table{
		ID:         "E8",
		Title:      "Bin-partitioned (lock-free) vs single locked table (§3.1(1) ablation)",
		PaperClaim: "bins let threads index concurrently without locks",
		Columns:    []string{"threads", "bins Mops/s", "locked Mops/s", "bins speedup", "locked speedup"},
	}
	metrics := map[string]float64{}
	var binsBase, lockBase float64
	var results []dedup.ItemResult // reused across thread counts
	var work []dedup.WorkerWork
	for _, threads := range []int{1, 2, 4, 8, 16} {
		// Bin-partitioned: real lock-free run; each worker's virtual time
		// is the sum of its own probe+insert cycles; makespan = slowest.
		idx, err := dedup.NewBinIndex(dedup.DefaultIndexConfig())
		if err != nil {
			return nil, err
		}
		pi := dedup.NewParallelIndexer(idx, threads)
		results, work = pi.ProcessInto(results, work, fps, func(i int) dedup.Entry { return dedup.Entry{Loc: int64(i)} })
		var makespan time.Duration
		for _, w := range work {
			cycles := float64(w.Items)*cost.ProbeBaseCycles +
				float64(w.BufferScanned)*cost.BufferEntryCycles +
				float64(w.TreeSteps)*cost.TreeStepCycles +
				float64(w.Items)*cost.InsertCycles/2
			makespan = max(makespan, sim.Cycles(cycles, clock))
		}
		binsMops := float64(ops) / makespan.Seconds() / 1e6

		// Locked: the same per-op index work (the data structure is shared,
		// not sharded), serialized through one global lock, plus a
		// cache-line handoff once the lock is contended. Threads feed the
		// lock as fast as they can, so the serialized critical sections
		// are the makespan.
		var totalCycles float64
		for _, w := range work {
			totalCycles += float64(w.Items)*cost.ProbeBaseCycles +
				float64(w.BufferScanned)*cost.BufferEntryCycles +
				float64(w.TreeSteps)*cost.TreeStepCycles +
				float64(w.Items)*cost.InsertCycles/2
		}
		perOp := totalCycles / float64(ops)
		locked := dedup.NewLockedMap()
		lockPool := sim.NewPool("lock", 1)
		var at time.Duration
		for i, fp := range fps {
			locked.LookupOrInsert(fp, dedup.Entry{Loc: int64(i)})
			cycles := perOp
			if threads > 1 {
				cycles += lockHandoffCycles
			}
			_, at = lockPool.Acquire(at, sim.Cycles(cycles, clock))
		}
		lockMops := float64(ops) / at.Seconds() / 1e6

		if threads == 1 {
			binsBase, lockBase = binsMops, lockMops
		}
		table.Rows = append(table.Rows, []string{
			cell("%d", threads),
			cell("%.2f", binsMops),
			cell("%.2f", lockMops),
			cell("%.2fx", binsMops/binsBase),
			cell("%.2fx", lockMops/lockBase),
		})
		metrics[fmt.Sprintf("bins_mops_t%d", threads)] = binsMops
		metrics[fmt.Sprintf("locked_mops_t%d", threads)] = lockMops
	}
	table.Notes = append(table.Notes,
		cell("%d lookups over %d unique fingerprints; insert-on-miss", ops, uniques),
		"bin ownership is worker-exclusive, so the partitioned run takes no locks at all")
	return &Result{Table: table, Metrics: metrics}, nil
}

// E9BinBuffer is the §3.3 ablation: the bin buffer in front of the bin tree
// catches temporally local duplicates cheaply and batches sequential
// journal writes. Swept over the buffer capacity on a recency-biased
// stream.
func E9BinBuffer(cfg Config) (*Result, error) {
	table := &Table{
		ID:         "E9",
		Title:      "Bin buffer ablation (§3.3): capacity vs hit share and throughput",
		PaperClaim: "recently updated chunks are likely found in the bin buffer (temporal locality)",
		Columns:    []string{"buffer entries", "IOPS", "buffer-hit share", "tree-hit share", "journal I/Os", "bytes/journal I/O"},
	}
	metrics := map[string]float64{}
	for _, buf := range []int{1, 4, 16, 64, 256} {
		rep, err := runPipeline(cfg, core.CPUOnly, true, false, 2.0, 2.0, workload.RefRecent,
			func(c *core.Config) { c.Index.BufferEntries = buf })
		if err != nil {
			return nil, err
		}
		dups := float64(rep.DupChunks)
		bufShare, treeShare := 0.0, 0.0
		if dups > 0 {
			bufShare = float64(rep.DupHitsBuffer) / dups
			treeShare = float64(rep.DupHitsTree) / dups
		}
		perIO := 0.0
		if rep.JournalWrites > 0 {
			perIO = float64(rep.JournalBytes) / float64(rep.JournalWrites)
		}
		table.Rows = append(table.Rows, []string{
			cell("%d", buf),
			cell("%.0f", rep.IOPS),
			cell("%.1f%%", 100*bufShare),
			cell("%.1f%%", 100*treeShare),
			cell("%d", rep.JournalWrites),
			cell("%.0f", perIO),
		})
		key := fmt.Sprintf("buf%d", buf)
		metrics["iops_"+key] = rep.IOPS
		metrics["bufshare_"+key] = bufShare
	}
	table.Notes = append(table.Notes, "recency-biased duplicate references (Zipf), dedup ratio 2.0")
	return &Result{Table: table, Metrics: metrics}, nil
}

// E10SubBlockOverlap is the §3.2(2) ablation: how many lanes to give each
// 4 KB chunk, and how much neighbouring history each lane should preload.
// More lanes mean shorter wavefronts (higher GPU throughput on small
// batches) but each lane's history resets, costing compression ratio;
// overlap buys the ratio back for extra work.
func E10SubBlockOverlap(cfg Config) (*Result, error) {
	table := &Table{
		ID:         "E10",
		Title:      "GPU sub-block compression: lanes per chunk and overlap (§3.2(2) ablation)",
		PaperClaim: "multiple threads per chunk with overlapping history regions",
		Columns:    []string{"sub-blocks", "overlap", "gpu IOPS", "comp ratio", "ratio loss vs 1-lane"},
	}
	metrics := map[string]float64{}
	streamBytes := cfg.StreamBytes / 4
	small := cfg
	small.StreamBytes = streamBytes

	var baseRatio float64
	type point struct{ subs, overlap int }
	points := []point{
		{1, 0},
		{2, 512}, {4, 512}, {8, 512},
		{4, 0}, {4, 1024},
	}
	for _, pt := range points {
		rep, err := runPipeline(small, core.GPUCompress, false, true, 1.0, 2.0, workload.RefUniform,
			func(c *core.Config) {
				c.Sub.SubBlocks = pt.subs
				c.Sub.Overlap = pt.overlap
			})
		if err != nil {
			return nil, err
		}
		if pt.subs == 1 {
			baseRatio = rep.CompRatio
		}
		loss := 100 * (1 - rep.CompRatio/baseRatio)
		table.Rows = append(table.Rows, []string{
			cell("%d", pt.subs),
			cell("%d", pt.overlap),
			cell("%.0f", rep.IOPS),
			cell("%.3f", rep.CompRatio),
			cell("%.1f%%", loss),
		})
		key := fmt.Sprintf("s%d_o%d", pt.subs, pt.overlap)
		metrics["iops_"+key] = rep.IOPS
		metrics["ratio_"+key] = rep.CompRatio
	}
	table.Notes = append(table.Notes,
		"compression-only pipeline, workload compression ratio 2.0",
		"the 1-lane row is the single-stream reference the ratio loss is measured against")
	return &Result{Table: table, Metrics: metrics}, nil
}

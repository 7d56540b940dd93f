package inlinered

// One benchmark per table/figure of the paper's evaluation (see DESIGN.md's
// experiment index). Each benchmark executes the corresponding experiment
// runner and reports its headline metrics through testing.B's custom
// metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. Benchmarks default to a reduced stream size to
// keep runs to seconds; set INLINERED_STREAM_MB (or use cmd/benchfig -mb)
// for paper-scale numbers. The recorded paper-scale outputs live in
// EXPERIMENTS.md.

import (
	"os"
	"runtime"
	"testing"

	"inlinered/internal/experiments"
	"inlinered/internal/metrics"
)

// benchConfig scales benchmark runs down unless the caller asked for more.
func benchConfig(b *testing.B) experiments.Config {
	cfg := experiments.DefaultConfig()
	if os.Getenv("INLINERED_STREAM_MB") == "" {
		cfg.StreamBytes = 64 << 20
	}
	if testing.Short() {
		cfg.StreamBytes = 16 << 20
		cfg.IndexEntries = 1 << 18
	}
	return cfg
}

// runExperiment executes one experiment per iteration and publishes the
// chosen metrics.
func runExperiment(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	r, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = r.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for key, unit := range metrics {
		if v, ok := res.Metrics[key]; ok {
			b.ReportMetric(v, unit)
		}
	}
}

// newEngineAllocCeiling and newEngineByteCeiling bound what constructing
// one engine may allocate. Every Run pays the constructor serially before
// its first chunk, so it is part of every round; it measures ~80
// allocations / 0.5 MB now that the drive allocates a block's page state
// on first program (8,382 / 17.4 MB when New zeroed all 1 M pages).
const (
	newEngineAllocCeiling = 512
	newEngineByteCeiling  = 2 << 20
)

// BenchmarkNewEngine measures the fixed prologue of a Run: building the
// engine (drive, index, journal, worker pool) for the paper platform.
func BenchmarkNewEngine(b *testing.B) {
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(PaperPlatform(), Options{Mode: CPUOnly}); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(b.N)
	if allocs > newEngineAllocCeiling || bytes > newEngineByteCeiling {
		b.Fatalf("NewEngine allocates %.0f objects / %.0f B, ceilings are %d / %d",
			allocs, bytes, newEngineAllocCeiling, newEngineByteCeiling)
	}
}

// BenchmarkServeWallClock measures the real (host) cost of serving a fixed
// closed-loop op mix through the sharded front-end. The /shards1 case is a
// single volume drained by one client; /shards4 routes the same mix across
// four shards drained by four concurrent clients. The merged reports are
// bit-identical across the cases' client counts (see the array-serve rows
// of cluster.TestDeterminismMatrix); only the wall clock differs. Two effects
// compose: shards serve concurrently (toward a 4× speedup on a
// multi-core host; pure goroutine overhead on a single-core one), and
// independent shards cannot dedup across each other, so /shards4 does
// more real encoding work at a fixed dedup ratio. Array construction is
// excluded from the timed region (it allocates each shard's drive,
// cache, and index up front). The benchmark itself enforces
// serveAllocsPerOpCeiling, so an allocation regression fails a bare
// `go test -bench ServeWallClock` (CI's bench-smoke job); how fast the tier
// is is the repository benchmark's serve-mixed workload (benchmark/).
//
// serveAllocsPerOpCeiling bounds heap allocations per storage op across the
// Serve call. The zero-alloc serve path measures ~1.3 (shards1) to ~2.6
// (shards4) allocs/op — the remainder is the write path's retained state
// (exact-size blob, chunk ref, index entry, map growth); reads and trims
// run allocation-free once buffers are warm. The pre-pooling path sat at
// ~6-8 allocs/op, so 5 is real headroom without tolerating a relapse.
const serveAllocsPerOpCeiling = 5.0

func BenchmarkServeWallClock(b *testing.B) {
	// The wall-clock metrics layer rides along: it must not change the
	// report or the allocs/storage-op ceiling (its hot path is
	// alloc-free), and it gives the benchmark a utilization digest.
	metrics.Enable()
	defer metrics.Disable()
	ops := 30000
	if testing.Short() {
		ops = 8000
	}
	const blocks = 8192
	list, err := NewOps(OpsSpec{
		Ops: ops, Blocks: blocks, WriteFrac: 0.6, TrimFrac: 0.05,
		DedupRatio: 2, Hotspot: 0.5, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		shards  int
		clients int
	}{
		{"shards1", 1, 1},
		{"shards4", 4, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(list)) * 4096)
			b.ReportAllocs()
			var mallocs uint64
			var m0, m1 runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				arr, err := NewArray(BlockDeviceOptions{
					Blocks: blocks, Shards: bc.shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&m0)
				b.StartTimer()
				rep, err := arr.Serve(list, ServeOptions{
					Clients: bc.clients, ContentSeed: 11, CleanEvery: 4096,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Ops == 0 {
					b.Fatal("empty report")
				}
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
				b.StartTimer()
			}
			b.StopTimer()
			perOp := float64(mallocs) / float64(b.N) / float64(len(list))
			b.ReportMetric(perOp, "allocs/storage-op")
			if perOp > serveAllocsPerOpCeiling {
				b.Fatalf("serve path allocates %.2f objects per storage op, ceiling is %.1f",
					perOp, serveAllocsPerOpCeiling)
			}
		})
	}
	b.Log(metrics.SummaryLine())
}

// readAllocsPerOpCeiling bounds heap allocations per read op across a
// warm ReadBatch call. The pooled batch path measures ~0.001 allocs/read
// steady-state (a handful of allocations per 65k-read batch: report
// assembly and goroutine spawns); the pre-pooling path sat at ~2.5
// allocs/read (164k allocs/op on this benchmark), so 0.05 is two orders
// of headroom above today while still failing loudly on any per-read
// allocation sneaking back in.
const readAllocsPerOpCeiling = 0.05

// readWarmHitRateFloor is the minimum cache-hit fraction the warm storm
// pass must sustain with a cache a quarter the size of the image's unique
// content. The scan-resistant policy measures ~45-50% here (probation
// promotions from co-running clients plus the pinned protected set); a
// pure LRU under the same cyclic pressure decays toward the resident
// fraction or worse. The floor guards the policy, not the exact number.
const readWarmHitRateFloor = 0.05

// BenchmarkReadPathWallClock measures the real (host) cost of the VDI
// boot-storm scenario through the batch read path: every desktop
// re-reading the shared golden image at once.
//
// /serial and /parallel disable the read cache so every read decodes its
// sub-block container, making them a pure decode-throughput contest:
// /serial pins Parallelism to 1 (the decode fan-out runs inline),
// /parallel spreads the blob decodes across the worker pool. /warm runs
// the storm against a cache deliberately smaller than the image's unique
// content: the scan-resistant admission policy must keep a protected hot
// set resident across passes (a gated hit-rate floor) — the HPDedup
// temporal-locality argument, measured. The virtual-time report is
// bit-identical across all cases' schedules (see the array-readbatch row
// of cluster.TestDeterminismMatrix); only the wall clock differs. The
// benchmark enforces readAllocsPerOpCeiling and readWarmHitRateFloor
// itself (CI's bench-smoke job runs it); how fast the read path is is the
// repository benchmark's boot-storm workload (benchmark/).
func BenchmarkReadPathWallClock(b *testing.B) {
	spec := DefaultBootStormSpec()
	spec.ImageBlocks = 2048
	spec.UniqueBlocks = 2048
	spec.ReadsPerClient = 512
	if testing.Short() {
		spec.ImageBlocks = 512
		spec.UniqueBlocks = 512
		spec.ReadsPerClient = 128
	}
	fill, err := spec.Fill()
	if err != nil {
		b.Fatal(err)
	}
	lbas, err := spec.Storm()
	if err != nil {
		b.Fatal(err)
	}
	// The image dedups 4:1, so its unique content is a quarter of its
	// logical size; the warm case's cache holds a quarter of *that* — small
	// enough that a policy admitting every access thrashes.
	warmCache := int64(spec.ImageBlocks) * 4096 / 16
	for _, bc := range []struct {
		name  string
		par   int
		cache int64
	}{
		{"serial", 1, -1},                     // every storm read decodes
		{"parallel", runtime.NumCPU(), -1},    // every storm read decodes
		{"warm", runtime.NumCPU(), warmCache}, // undersized cache, hit-rate gated
	} {
		b.Run(bc.name, func(b *testing.B) {
			arr, err := NewArray(BlockDeviceOptions{
				Blocks:      spec.ImageBlocks,
				Shards:      4,
				SubBlocks:   4,
				CacheBytes:  bc.cache,
				Parallelism: bc.par,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer arr.Close()
			if _, err := arr.Serve(fill, ServeOptions{}); err != nil {
				b.Fatal(err)
			}
			// Warm pass(es), untimed: batch buffers reach steady-state size
			// and (for /warm) the admission policy's ghost list and sketch
			// accumulate the evidence that pins the protected set. Two
			// passes because a strict re-reference needs one pass to be
			// seen, one to be re-admitted.
			for w := 0; w < 2; w++ {
				if _, err := arr.ReadBatch(lbas, ReadBatchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(lbas)) * 4096)
			b.ReportAllocs()
			var mallocs uint64
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			var rep *ReadBatchReport
			for i := 0; i < b.N; i++ {
				rep, err = arr.ReadBatch(lbas, ReadBatchOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Errors != 0 {
					b.Fatalf("storm reads failed: %+v", rep)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			mallocs = m1.Mallocs - m0.Mallocs
			perOp := float64(mallocs) / float64(b.N) / float64(len(lbas))
			b.ReportMetric(perOp, "allocs/read-op")
			if bc.cache < 0 {
				// The zero-alloc contract holds on the decode path; the warm
				// case additionally allocates one payload buffer per miss
				// insert (cache entry buffers are deliberately not pooled —
				// a recycled buffer could alias a still-pending reserve
				// slot), so its gate is the hit-rate floor below instead.
				if perOp > readAllocsPerOpCeiling {
					b.Fatalf("read path allocates %.4f objects per read op, ceiling is %.2f",
						perOp, readAllocsPerOpCeiling)
				}
				b.ReportMetric(float64(rep.DecodedParts)/float64(rep.DecodedBlobs), "parts/blob")
			} else {
				hr := rep.HitRate()
				b.ReportMetric(hr, "cache-hit-rate")
				if hr < readWarmHitRateFloor {
					b.Fatalf("warm storm pass hit rate %.3f below floor %.2f", hr, readWarmHitRateFloor)
				}
			}
		})
	}
}

// BenchmarkE1PrelimIndexing — §3.1(3): CPU vs GPU indexing time; paper: CPU
// 4.16–5.45× faster with a kernel-launch floor on the GPU side.
func BenchmarkE1PrelimIndexing(b *testing.B) {
	runExperiment(b, "e1", map[string]string{
		"ratio_batch_2048": "gpu/cpu@2048",
		"ratio_batch_4096": "gpu/cpu@4096",
	})
}

// BenchmarkE2Dedup — §4(1): parallel dedup; paper: GPU-supported +15% over
// CPU-only, ~3× the SSD's throughput.
func BenchmarkE2Dedup(b *testing.B) {
	runExperiment(b, "e2", map[string]string{
		"cpu_iops":  "cpu-IOPS",
		"gpu_iops":  "gpu-IOPS",
		"gain_pct":  "gain-%",
		"gpu_x_ssd": "gpu-xSSD",
	})
}

// BenchmarkE3Compression — §4(2): parallel compression; paper at low ratio:
// CPU ~50K < SSD ~80K < GPU ~100K IOPS, GPU +88.3%.
func BenchmarkE3Compression(b *testing.B) {
	runExperiment(b, "e3", map[string]string{
		"cpu_iops_r1.0": "cpu-IOPS@r1",
		"gpu_iops_r1.0": "gpu-IOPS@r1",
		"gain_pct_r1.0": "gain-%@r1",
	})
}

// BenchmarkE4Integration — Figure 2: the four integration options; paper:
// GPU-for-compression wins, +89.7% over CPU-only.
func BenchmarkE4Integration(b *testing.B) {
	runExperiment(b, "e4", map[string]string{
		"iops_cpu-only":         "cpuonly-IOPS",
		"iops_gpu-compress":     "gpucomp-IOPS",
		"gain_gpu_compress_pct": "gain-%",
	})
}

// BenchmarkE5Calibration — §4(3): dummy-I/O calibration picks the best
// integration per platform.
func BenchmarkE5Calibration(b *testing.B) {
	runExperiment(b, "e5", map[string]string{
		"best_platform_0": "best-paper",
		"best_platform_1": "best-weakgpu",
	})
}

// BenchmarkE6IndexMemory — §3.1(1): 16 GB index for 4 TB @ 8 KB; 2-byte
// prefix truncation saves 1 GB.
func BenchmarkE6IndexMemory(b *testing.B) {
	runExperiment(b, "e6", map[string]string{
		"index_gib_prefix_0": "GiB@n0",
		"index_gib_prefix_2": "GiB@n2",
	})
}

// BenchmarkE7Endurance — §1 motivation: background reduction writes a
// multiple of inline reduction's I/O.
func BenchmarkE7Endurance(b *testing.B) {
	runExperiment(b, "e7", map[string]string{
		"host_ratio": "bg/inline-host",
		"nand_ratio": "bg/inline-nand",
	})
}

// BenchmarkE8BinScaling — §3.1(1) ablation: lock-free bins scale with
// threads; a global locked table does not.
func BenchmarkE8BinScaling(b *testing.B) {
	runExperiment(b, "e8", map[string]string{
		"bins_mops_t8":   "bins-Mops@8t",
		"locked_mops_t8": "locked-Mops@8t",
	})
}

// BenchmarkE9BinBuffer — §3.3 ablation: the bin buffer exploits temporal
// locality and batches sequential journal writes.
func BenchmarkE9BinBuffer(b *testing.B) {
	runExperiment(b, "e9", map[string]string{
		"bufshare_buf16": "bufhit@16",
		"iops_buf16":     "IOPS@16",
	})
}

// BenchmarkE10SubBlockOverlap — §3.2(2) ablation: lanes per chunk vs
// compression ratio loss, and overlap recovery.
func BenchmarkE10SubBlockOverlap(b *testing.B) {
	runExperiment(b, "e10", map[string]string{
		"iops_s4_o512":  "IOPS@4lanes",
		"ratio_s4_o512": "ratio@4lanes",
	})
}

// BenchmarkE11ShiftedCDC — extension: content-defined chunking recovers the
// duplicates that fixed 4 KB chunking loses on shifted data.
func BenchmarkE11ShiftedCDC(b *testing.B) {
	runExperiment(b, "e11", map[string]string{
		"dedup_fixed-4K": "dedup-fixed",
		"dedup_gear-cdc": "dedup-cdc",
	})
}

// BenchmarkE12VolumeLifecycle — extension: block-device semantics (LBA
// overwrites, refcounting, cleaning, reads) around the reduction pipeline.
func BenchmarkE12VolumeLifecycle(b *testing.B) {
	runExperiment(b, "e12", map[string]string{
		"fill_mean_us": "fill-µs",
		"read_mean_us": "read-µs",
	})
}

// BenchmarkE13CodecAblation — extension: LZSS (hash chains) vs the
// QuickLZ-class single-probe codec the paper baselines against.
func BenchmarkE13CodecAblation(b *testing.B) {
	runExperiment(b, "e13", map[string]string{
		"iops_lzss_r2.0": "lzss-IOPS@r2",
		"iops_qlz_r2.0":  "qlz-IOPS@r2",
	})
}

// BenchmarkE14EntropyBypass — extension: skip the encoder for chunks the
// entropy pre-check says will not compress.
func BenchmarkE14EntropyBypass(b *testing.B) {
	runExperiment(b, "e14", map[string]string{
		"iops_off_f0.5": "off-IOPS@50%",
		"iops_on_f0.5":  "on-IOPS@50%",
	})
}

// BenchmarkE15GPUHashing — extension: raw GPU hashing wins (as GHOST found)
// but costs two orders of magnitude more PCIe per chunk than index offload.
func BenchmarkE15GPUHashing(b *testing.B) {
	runExperiment(b, "e15", map[string]string{
		"ratio_batch_4096":   "gpu/cpu@4096",
		"pcie_amplification": "pcie-x",
	})
}

// BenchmarkE16WriteAmplification — SSD-substrate validation: random
// overwrites amplify NAND writes; sequential writes (the journal's pattern)
// do not.
func BenchmarkE16WriteAmplification(b *testing.B) {
	runExperiment(b, "e16", map[string]string{
		"wa_random_op7": "WA-rand@7%",
		"wa_seq_op7":    "WA-seq@7%",
	})
}

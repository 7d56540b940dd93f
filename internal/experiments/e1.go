package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	"inlinered/internal/cpusim"
	"inlinered/internal/dedup"
	"inlinered/internal/gpu"
)

// E1PrelimIndexing reproduces the preliminary experiment of §3.1(3): with
// the same number of hash-table entries on both sides, CPU indexing is
// 4.16–5.45× faster than GPU indexing, and the GPU's execution time has a
// floor set by the kernel launch overhead. The experiment preloads both
// indexes with cfg.IndexEntries fingerprints and measures the virtual time
// to index batches of varying size, half hits and half misses.
func E1PrelimIndexing(cfg Config) (*Result, error) {
	entries := cfg.IndexEntries
	if entries < 1024 {
		entries = 1024
	}

	// CPU side: the bin index with everything flushed into the bin trees.
	idxCfg := dedup.DefaultIndexConfig()
	idx, err := dedup.NewBinIndex(idxCfg)
	if err != nil {
		return nil, err
	}
	fpOf := func(i int) dedup.Fingerprint {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(i)*0x9E3779B97F4A7C15+uint64(cfg.Seed))
		return dedup.Sum(b[:])
	}
	for i := 0; i < entries; i++ {
		idx.Insert(fpOf(i), dedup.Entry{Loc: int64(i)})
	}
	idx.FlushAll()

	// GPU side: the same entries in the device-resident linear bins.
	dev := gpu.New(gpu.DefaultConfig())
	gbinBits := 6
	capPerBin := entries // worst-case skew headroom
	gbins, err := dedup.NewGPUBins(dev, gbinBits, capPerBin, 0, int(cfg.Seed))
	if err != nil {
		return nil, err
	}
	for i := 0; i < entries; i++ {
		fp := fpOf(i)
		if err := gbins.Update(0, fp.Bin(gbinBits), [][]byte{fp.Suffix(0)}, []dedup.Entry{{Loc: int64(i)}}); err != nil {
			return nil, err
		}
	}

	cpuCfg := cpusim.DefaultConfig()
	table := &Table{
		ID:         "E1",
		Title:      "CPU vs GPU indexing execution time (preliminary experiment, §3.1(3))",
		PaperClaim: "CPU is 4.16–5.45x faster; GPU time has a kernel-launch floor",
		Columns:    []string{"batch", "cpu-time", "gpu-time", "gpu/cpu", "gpu-floor"},
	}
	metrics := map[string]float64{}
	var minRatio, maxRatio float64
	batches := []int{256, 512, 1024, 2048, 4096}
	for _, batch := range batches {
		// Probe set: half resident entries (hits), half unknown (misses).
		fps := make([]dedup.Fingerprint, batch)
		for i := range fps {
			if i%2 == 0 {
				fps[i] = fpOf(i * (entries / batch))
			} else {
				fps[i] = fpOf(entries + i)
			}
		}

		// CPU: probes spread over the hardware threads.
		cpu := cpusim.New(cpuCfg)
		for _, fp := range fps {
			p := idx.Lookup(fp)
			cpu.Run(0, cpuCfg.Cost.ProbeCycles(p.BufferScanned, p.TreeSteps))
		}
		cpuTime := cpu.Pool.Horizon()

		// GPU: one batch round trip (transfer, kernel, results back).
		dev.Reset()
		gpuTime, _, _ := gbins.BatchIndex(0, fps)

		ratio := gpuTime.Seconds() / cpuTime.Seconds()
		if minRatio == 0 || ratio < minRatio {
			minRatio = ratio
		}
		if ratio > maxRatio {
			maxRatio = ratio
		}
		table.Rows = append(table.Rows, []string{
			cell("%d", batch),
			cell("%v", cpuTime.Round(time.Microsecond)),
			cell("%v", gpuTime.Round(time.Microsecond)),
			cell("%.2fx", ratio),
			cell("%v", gpu.DefaultConfig().LaunchOverhead),
		})
		metrics[fmt.Sprintf("ratio_batch_%d", batch)] = ratio
	}
	metrics["min_ratio"] = minRatio
	metrics["max_ratio"] = maxRatio
	table.Notes = append(table.Notes,
		cell("%d entries resident on both sides; batches are 50%% hits / 50%% misses", entries),
		"gpu time includes PCIe transfers and the fixed kernel launch overhead")
	return &Result{Table: table, Metrics: metrics}, nil
}

package experiments

import (
	"time"

	"inlinered/internal/cpusim"
	"inlinered/internal/dedup"
	"inlinered/internal/gpu"
	"inlinered/internal/workload"
)

// E15GPUHashing is an extension analysis: the paper's design hashes on the
// CPU, while related work (GHOST [7]) offloads hashing to the GPU. This
// experiment measures both sides of that choice on our platform: raw batch
// hashing time (CPU pool vs GPU round trip) and, crucially, the PCIe bytes
// each offload strategy consumes per chunk — the quantity the integrated
// design budgets for compression instead.
func E15GPUHashing(cfg Config) (*Result, error) {
	const chunkSize = 4096
	cpuCfg := cpusim.DefaultConfig()
	dev := gpu.New(gpu.DefaultConfig())

	table := &Table{
		ID:         "E15",
		Title:      "Extension: hashing offload analysis (why the paper hashes on the CPU)",
		PaperClaim: "(extension) GPU hashing is fast but PCIe-expensive; cf. GHOST [7]",
		Columns:    []string{"batch", "cpu-time", "gpu-time", "gpu/cpu", "PCIe bytes/chunk", "probe-offload bytes/chunk"},
	}
	metrics := map[string]float64{}
	for _, batch := range []int{256, 1024, 4096} {
		chunks := make([][]byte, batch)
		for i := range chunks {
			chunks[i] = workload.UniqueChunk(cfg.Seed, int32(i), chunkSize, 0.5)
		}
		// CPU: spread across the hardware threads.
		cpu := cpusim.New(cpuCfg)
		want := make([]dedup.Fingerprint, batch)
		for i, c := range chunks {
			want[i] = dedup.Sum(c)
			cpu.Run(0, cpuCfg.Cost.HashCycles(len(c)))
		}
		cpuTime := cpu.Pool.Horizon()

		// GPU: one batch round trip.
		dev.Reset()
		gpuTime, fps, _ := dedup.GPUBatchHash(dev, 0, chunks)
		for i := range fps {
			if fps[i] != want[i] {
				return nil, errMismatch(int64(i), -1)
			}
		}

		hashBytes := chunkSize + dedup.FingerprintSize // payload out, digest back
		probeBytes := dedup.FingerprintSize + 8        // hash out, (hit,slot) back
		ratio := gpuTime.Seconds() / cpuTime.Seconds()
		table.Rows = append(table.Rows, []string{
			cell("%d", batch),
			cell("%v", cpuTime.Round(time.Microsecond)),
			cell("%v", gpuTime.Round(time.Microsecond)),
			cell("%.2fx", ratio),
			cell("%d", hashBytes),
			cell("%d", probeBytes),
		})
		metrics[cell("ratio_batch_%d", batch)] = ratio
	}
	metrics["pcie_amplification"] = float64(chunkSize+dedup.FingerprintSize) / float64(dedup.FingerprintSize+8)
	table.Notes = append(table.Notes,
		"gpu/cpu < 1 means the GPU wins raw hashing throughput (GHOST's observation)",
		cell("but hashing offload moves %.0fx the PCIe bytes of indexing offload —", metrics["pcie_amplification"]),
		"bandwidth the integrated design spends on compression, whose data movement is unavoidable")
	return &Result{Table: table, Metrics: metrics}, nil
}

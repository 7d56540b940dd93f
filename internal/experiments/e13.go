package experiments

import (
	"inlinered/internal/cpusim"
	"inlinered/internal/lz"
	"inlinered/internal/workload"
)

// E13CodecAblation is an extension experiment: the paper's CPU baseline is
// "parallel QuickLZ", a single-probe match search; this repository's one CPU
// codec is a hash-chain LZSS. It sweeps the LZSS search depth (1 is the
// QuickLZ-class probe, 16 is DefaultParams) over the generator's unique
// chunks and prices each encode as the pipeline's CPU stage does —
// CompressCycles plus the stage overhead — on the paper CPU, as E8 prices
// the index.
func E13CodecAblation(cfg Config) (*Result, error) {
	table := &Table{
		ID:         "E13",
		Title:      "Extension: CPU codec search depth — hash-chain LZSS from a single probe (QuickLZ-class) to 64 candidates",
		PaperClaim: "(extension) the paper's CPU baseline is parallel QuickLZ; speed vs ratio tradeoff",
		Columns:    []string{"workload ratio", "search depth", "IOPS", "achieved ratio"},
		Notes: []string{"all chunks unique; IOPS is the encode stage alone on the CPU's 8 threads",
			"depth 16 is DefaultParams, what every pipeline runs; depth 1 is the QuickLZ-class single probe"},
	}
	metrics := map[string]float64{}
	cpu := cpusim.DefaultConfig()
	for _, wr := range []float64{1.0, 2.0, 4.0} {
		stream, err := workload.New(workload.Spec{
			TotalBytes: cfg.StreamBytes / 2,
			ChunkSize:  4096, // the paper's chunk size
			DedupRatio: 1.0,
			CompRatio:  wr,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		var blob []byte
		for _, depth := range []int{1, 4, 16, 64} {
			var cycles float64
			var src, dst int
			for i := range stream.Chunks() {
				var st lz.Stats
				blob, st = lz.Compress(blob[:0], stream.Chunk(i), lz.Params{MaxChain: depth})
				cycles += cpu.Cost.CompressCycles(st.Positions, st.SearchSteps, st.DstBytes) + cpu.Cost.StageOverheadCycles
				src += st.SrcBytes
				dst += st.DstBytes
			}
			iops := float64(stream.Chunks()) * float64(cpu.Threads) * cpu.ClockHz / cycles
			ratio := float64(src) / float64(dst)
			table.Rows = append(table.Rows, []string{cell("%.1f", wr), cell("%d", depth), cell("%.0f", iops), cell("%.3f", ratio)})
			key := cell("d%d_r%.1f", depth, wr)
			metrics["iops_"+key] = iops
			metrics["ratio_"+key] = ratio
		}
	}
	return &Result{Table: table, Metrics: metrics}, nil
}

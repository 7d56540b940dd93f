package main

import (
	"bytes"
	"io"
	"time"

	"inlinered/internal/chunk"
	"inlinered/internal/core"
	"inlinered/internal/lz"
)

func traceIngestFixed(k *kit) error { return traceIngest(k, false) }
func traceIngestCDC(k *kit) error   { return traceIngest(k, true) }

// slab hands out chunk payload buffers from one allocation, single-threaded
// (only the replaying goroutine calls the chunker); nothing is returned.
type slab struct{ free []byte }

func (s *slab) Get(capacity int) []byte {
	if len(s.free) < capacity {
		return make([]byte, 0, capacity)
	}
	buf := s.free[:0:capacity]
	s.free = s.free[capacity:]
	return buf
}

func (s *slab) Put([]byte) {}

// entropyThreshold is the engine's default bypass cutoff in bits per byte.
const entropyThreshold = 7.2

// traceIngest is the traced run of an ingest workload: the public-API
// rounds, then one pass of the same stream through chunker, hasher, index,
// encoder (or the entropy bypass) and drive model on their own, then
// core.Engine.Process over it, whose time those replays should add up to.
func traceIngest(k *kit, cdc bool) error {
	cfg, tr, res := k.cfg, k.tr, k.res
	setup, stream := setupIngestFixed, fixedStream
	if cdc {
		setup, stream = setupIngestCDC, shiftedStream
	}

	plain, traced, err := k.rootLegs(setup)
	if err != nil {
		return err
	}
	plain.close()
	traced.close()

	genStart := time.Now()
	data, err := stream(cfg)
	if err != nil {
		return err
	}
	res.set("workload.gen_s", time.Since(genStart).Seconds())

	// The configuration inlinered.Options maps these workloads to.
	ccfg := core.DefaultConfig()
	ccfg.Parallelism = cfg.workers
	if cdc {
		ccfg.Chunker = core.CDCChunking
		ccfg.SkipIncompressible = true
	}

	// chunk: the whole stream through the chunker, 256 chunks per span, its
	// payload buffers cut from one slab (the engine's come from a warm pool;
	// a fresh allocation per chunk would double the fixed chunker's cost).
	var chunks [][]byte
	chunkWall, _ := best(func() (float64, float64) {
		bufs := &slab{free: make([]byte, len(data))}
		var ck chunk.Chunker
		if cdc {
			g := chunk.NewGear(bytes.NewReader(data), ccfg.Gear)
			g.SetBuffers(bufs)
			ck = g
		} else {
			f := chunk.NewFixed(bytes.NewReader(data), ccfg.ChunkSize)
			f.SetBuffers(bufs)
			ck = f
		}
		chunks = chunks[:0]
		leg := tr.begin("replay:chunk", k.root)
		for err == nil {
			tr.timed("chunk.Next", leg, func() {
				for n := 0; n < 256 && err == nil; n++ {
					var c chunk.Chunk
					if c, err = ck.Next(); err == nil {
						chunks = append(chunks, c.Data)
					}
				}
			})
		}
		if err == io.EOF {
			err = nil
		}
		return tr.end(leg), 0
	})
	if err != nil {
		return err
	}
	res.set("chunk.busy_s", chunkWall)
	res.set("chunk.mbps", float64(len(data))/1e6/chunkWall)
	res.set("chunk.chunks", float64(len(chunks)))
	res.set("chunk.mean_bytes", float64(len(data))/float64(len(chunks)))

	fps, hashWall := k.hashLeg(chunks, ccfg.Batch)
	first, probeWall, err := k.probeLeg(fps, func(i int) int { return len(chunks[i]) })
	if err != nil {
		return err
	}
	uniq := make([][]byte, len(first))
	for j, i := range first {
		uniq[j] = chunks[i]
	}

	// Entropy bypass: the check on every unique chunk, a raw store for the
	// ones it rejects; only the rest reach the encoder.
	bypassWall := 0.0
	var stored []int // bytes of every blob the drive is handed
	if ccfg.SkipIncompressible {
		skip := make([]bool, len(uniq))
		walls := map[int]float64{}
		for _, n := range k.steps() {
			walls[n], _ = best(func() (float64, float64) {
				return tr.fanout("lz.LikelyIncompressible+StoreRaw", k.root, n, len(uniq), 64, func(i int) {
					if skip[i] = lz.LikelyIncompressible(uniq[i], entropyThreshold); skip[i] {
						lz.StoreRaw(make([]byte, 0, len(uniq[i])+16), uniq[i])
					}
				})
			})
		}
		res.set("lz.bypass_busy_s", walls[1])
		bypassWall = walls[cfg.workers]
		kept := uniq[:0:0]
		for i, c := range uniq {
			if skip[i] {
				stored = append(stored, len(lz.StoreRaw(nil, c)))
			} else {
				kept = append(kept, c)
			}
		}
		uniq = kept
	}
	var blobs [][]byte
	encodeWall := map[int]float64{}
	if len(uniq) > 0 {
		if blobs, encodeWall, err = k.encodeLeg(uniq, nil); err != nil {
			return err
		}
	}
	for _, b := range blobs {
		stored = append(stored, len(b))
	}
	ssdWall := k.ssdLeg(stored, nil)
	k.mapLeg()

	// core: Engine.Process at the configured Parallelism and at 1.
	process := func(c core.Config) (*core.Report, float64, float64, error) {
		var rep *core.Report
		var err error
		wall, allocs := best(func() (float64, float64) {
			var eng *core.Engine
			if eng, err = core.NewEngine(core.PaperPlatform(), c); err != nil {
				return 0, 0
			}
			before := mallocs()
			wall := tr.timed("core.Engine.Process", k.root, func() { rep, err = eng.Process(bytes.NewReader(data)) })
			return wall, float64(mallocs() - before)
		})
		return rep, wall, allocs, err
	}
	rep, processS, allocs, err := process(ccfg)
	if err != nil {
		return err
	}
	serial := ccfg
	serial.Parallelism = 1
	_, serialS, _, err := process(serial)
	if err != nil {
		return err
	}
	children := chunkWall + hashWall[cfg.workers] + probeWall + bypassWall + encodeWall[cfg.workers] + ssdWall
	res.set("core.process_s", processS)
	res.set("core.self_s", processS-children)
	res.set("core.budget_coverage", children/processS)
	res.set("core.par_speedup", serialS/processS)
	res.set("core.allocs_per_chunk", allocs/float64(rep.Chunks))
	res.set("core.virt_iops", rep.IOPS)
	res.set("core.virt_reduction_ratio", rep.ReductionRatio)
	k.setSSDCounts(rep.SSD)

	// The GPU leg: the paper's Figure-2 comparison on the paper's stream.
	if !cdc {
		gcfg := ccfg
		gcfg.Mode = core.GPUCompress
		if _, _, err := k.encodeLeg(uniq, &gcfg.Sub); err != nil {
			return err
		}
		grep, gpuS, _, err := process(gcfg)
		if err != nil {
			return err
		}
		res.set("core.gpucompress_mbps", float64(len(data))/1e6/gpuS)
		res.set("core.virt_gpu_gain_pct", 100*(grep.IOPS/rep.IOPS-1))
		res.set("gpu.kernels", float64(grep.GPUKernels))
		res.set("gpu.virt_util", grep.GPUUtil)
	}
	return nil
}

package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"inlinered/internal/dedup"
	"inlinered/internal/lz"
	"inlinered/internal/parallel"
	"inlinered/internal/ssd"
)

// The per-layer dictionary: name, unit, which direction is better, and
// whether the value is a count that repeats exactly at a fixed seed. Which
// end-to-end metric each should move, and on which workload, is the table
// in README.md; a layer metric that moves without it is a finding, not a
// gain.
func init() {
	const (
		s     = "s"
		mbps  = "MB/s"
		count = "count"
		ns    = "ns"
		ratio = "ratio"
		lower = "lower"
		high  = "higher"
	)
	for _, d := range []struct {
		name, unit, better string
		exact              bool
	}{
		{"workload.gen_s", s, lower, false},
		{"workload.payload_busy_s", s, lower, false},

		{"chunk.busy_s", s, lower, false},
		{"chunk.mbps", mbps, high, false},
		{"chunk.chunks", count, lower, true},
		{"chunk.mean_bytes", "B", high, true},

		{"dedup.hash_busy_s", s, lower, false},
		{"dedup.hash_mbps", mbps, high, false},
		{"dedup.probe_busy_s", s, lower, false},
		{"dedup.probe_ns_op", ns, lower, false},
		{"dedup.tree_steps_per_probe", count, lower, true},
		{"dedup.dup_frac", ratio, high, true},
		{"dedup.flushes", count, lower, true},
		{"dedup.journal_bytes", "B", lower, true},
		{"dedup.index_bytes", "B", lower, true},

		{"lz.encode_busy_s", s, lower, false},
		{"lz.encode_mbps", mbps, high, false},
		{"lz.ratio", ratio, high, true},
		{"lz.search_steps_per_pos", count, lower, true},
		{"lz.raw_fallbacks", count, lower, true},
		{"lz.bypass_busy_s", s, lower, false},
		{"lz.subencode_mbps", mbps, high, false},
		{"lz.decode_busy_s", s, lower, false},
		{"lz.decode_mbps", mbps, high, false},
		{"lz.subdecode_mbps", mbps, high, false},

		{"parallel.map_ns", ns, lower, false},
		{"parallel.hash_speedup", ratio, high, false},
		{"parallel.encode_speedup", ratio, high, false},

		{"ssd.busy_s", s, lower, false},
		{"ssd.host_pages", count, lower, true},
		{"ssd.nand_pages", count, lower, true},
		{"ssd.write_amp", ratio, lower, true},
		{"ssd.gc_runs", count, lower, true},

		{"core.process_s", s, lower, false},
		{"core.self_s", s, lower, false},
		{"core.budget_coverage", ratio, high, false},
		{"core.par_speedup", ratio, high, false},
		{"core.allocs_per_chunk", count, lower, false},
		{"core.virt_iops", "1/s", high, true},
		{"core.virt_reduction_ratio", ratio, high, true},
		{"core.gpucompress_mbps", mbps, high, false},
		{"core.virt_gpu_gain_pct", "%", high, true},
		{"gpu.kernels", count, lower, true},
		{"gpu.virt_util", ratio, high, true},

		{"volume.write_ns_op", ns, lower, false},
		{"volume.read_hit_ns_op", ns, lower, false},
		{"volume.read_miss_ns_op", ns, lower, false},
		{"volume.trim_ns_op", ns, lower, false},
		{"volume.self_s", s, lower, false},
		{"volume.budget_coverage", ratio, high, false},
		{"volume.dedup_hit_frac", ratio, high, true},
		{"volume.allocs_per_op", count, lower, false},
		{"volume.clean_s", s, lower, false},
		{"volume.clean_runs", count, lower, true},
		{"volume.moved_bytes", "B", lower, true},
		{"volume.garbage_frac", ratio, lower, true},
		{"volume.plan_s", s, lower, false},
		{"volume.decode_s", s, lower, false},
		{"volume.commit_s", s, lower, false},
		{"volume.decode_par_speedup", ratio, high, false},
		{"volume.cache_hit_rate", ratio, high, true},
		{"volume.cache_admissions", count, lower, true},
		{"volume.cache_ghost_hits", count, lower, true},
		{"volume.virt_write_p50_us", "us", lower, true},
		{"volume.virt_read_p50_us", "us", lower, true},

		{"serve.overhead_ns_op", ns, lower, false},
		{"serve.shard_speedup", ratio, high, false},
		{"serve.readbatch_overhead_frac", ratio, lower, false},
		{"serve.allocs_per_op", count, lower, false},
		{"serve.op_errors", count, lower, true},
		{"serve.clean_runs", count, lower, true},

		{"cluster.route_overhead_ns_op", ns, lower, false},
		{"cluster.replication_cost_x", ratio, lower, false},
		{"cluster.crashes", count, lower, true},
		{"cluster.rejoins", count, lower, true},
		{"cluster.reads_fallback", count, lower, true},
		{"cluster.reads_stale", count, lower, true},
		{"cluster.reads_unserved", count, lower, true},
		{"cluster.read_repairs", count, lower, true},
		{"cluster.repair_writes", count, lower, true},
		{"cluster.scrub_mismatched", count, lower, true},

		{"metrics.overhead_frac", ratio, lower, false},
		{"obs.overhead_frac", ratio, lower, false},
		{"bench.trace_overhead_frac", ratio, lower, false},
		{"bench.spans", count, lower, false},
	} {
		if _, dup := metricDefs[d.name]; dup {
			panic("benchmark: duplicate metric " + d.name)
		}
		metricDefs[d.name] = metricDef{unit: d.unit, better: d.better, exact: d.exact}
	}
}

// rootRounds is how many public-API rounds a traced run makes untraced and
// again under spans.
const rootRounds = 12

// runTraced is the traced run of one workload: public-API rounds with and
// without spans, then the same inputs replayed through each layer.
func runTraced(w workloadDef, cfg config) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	for _, n := range perLayer() {
		res.set(n, 0)
	}
	tr := newTracer(cfg.workers)
	k := &kit{cfg: cfg, tr: tr, res: res, root: tr.begin("workload:"+w.name, noSpan)}
	err := w.trace(k)
	tr.end(k.root)
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	res.set("bench.spans", float64(len(tr.spans())))
	path, err := tr.write(cfg.outDir, w.name)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace written to %s\n", path)
	res.Rounds = 2 * rootRounds
	res.Correct = res.Failed == 0
	return res, nil
}

// kit carries what every leg of a traced run needs; root is the
// workload-root span every other span hangs under.
type kit struct {
	cfg  config
	tr   *tracer
	res  *result
	root int32
}

// rootLegs sets the workload up twice and runs rootRounds public-API rounds
// on each copy in turn: the first bare, the second under one span per round
// (blockdev-direct: one per call). Both copies see the same inputs in the
// same order, so what separates a pair of rounds is the tracing. Both are
// verified like an untraced run and returned open, for their counts.
func (k *kit) rootLegs(setup func(config) (instance, error)) (plain, traced instance, err error) {
	if plain, err = setup(k.cfg); err != nil {
		return nil, nil, err
	}
	if traced, err = setup(k.cfg); err != nil {
		return nil, nil, err
	}
	leg := k.tr.begin("public-api", k.root)
	var bares, ratios []float64
	for i := 0; i < rootRounds; i++ {
		d, _, ops, failed, err := plain.round()
		if err != nil {
			return nil, nil, err
		}
		bare := d.Seconds()
		bares = append(bares, 1e3*bare)
		k.res.Attempted += ops
		k.res.Failed += failed

		id := k.tr.begin("round", leg)
		if dd, ok := traced.(*direct); ok {
			dd.tr, dd.parent = k.tr, id
		}
		d, _, ops, failed, err = traced.round()
		k.tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		ratios = append(ratios, d.Seconds()/bare)
		k.res.Attempted += ops
		k.res.Failed += failed
	}
	k.tr.end(leg)
	// Rounds i of the two copies run back to back, so a slow phase of the
	// host hits both; the median of the pairwise ratios ignores it.
	k.res.set("bench.trace_overhead_frac", median(ratios)-1)
	k.res.set("round_ms_p90", percentile(bares, 90)) // of these few bare rounds; the untraced run has the real one
	k.res.set("serve.op_errors", float64(k.res.Failed))
	for _, inst := range []instance{plain, traced} {
		bad, err := inst.verify()
		if err != nil {
			return nil, nil, err
		}
		k.res.Failed += bad
	}
	return plain, traced, nil
}

// passes is how many times every replay leg runs. The fastest pass is the
// one reported, for the reason bestSegment gives: a leg and the parent its
// time is set against are measured seconds apart, and only their quietest
// passes are comparable.
const passes = 3

// best runs pass passes times and returns the smallest wall time, with the
// value that came with it.
func best(pass func() (wall, with float64)) (wall, with float64) {
	wall, with = pass()
	for p := 1; p < passes; p++ {
		if w, x := pass(); w < wall {
			wall, with = w, x
		}
	}
	return wall, with
}

// steps is the worker counts a scaling leg runs at: 1, then the configured
// count when that is more.
func (k *kit) steps() []int {
	if k.cfg.workers > 1 {
		return []int{1, k.cfg.workers}
	}
	return []int{1}
}

func totalBytes(chunks [][]byte) int64 {
	var n int64
	for _, c := range chunks {
		n += int64(len(c))
	}
	return n
}

// hashLeg replays dedup.SumBatch over the chunks in batches, at one worker
// and at the configured count. It returns the fingerprints and the wall
// time at each count.
func (k *kit) hashLeg(chunks [][]byte, batch int) ([]dedup.Fingerprint, map[int]float64) {
	var fps []dedup.Fingerprint
	wall := map[int]float64{}
	for _, w := range k.steps() {
		pool := parallel.New(w)
		wall[w], _ = best(func() (float64, float64) {
			leg := k.tr.begin(fmt.Sprintf("replay:dedup.SumBatch@%d", w), k.root)
			fps = fps[:0]
			for lo := 0; lo < len(chunks); lo += batch {
				part := chunks[lo:min(lo+batch, len(chunks))]
				k.tr.timed("dedup.SumBatch", leg, func() { fps = append(fps, dedup.SumBatch(pool, part)...) })
			}
			return k.tr.end(leg), 0
		})
		pool.Close()
	}
	k.res.set("dedup.hash_busy_s", wall[1])
	k.res.set("dedup.hash_mbps", float64(totalBytes(chunks))/1e6/wall[1])
	k.res.set("parallel.hash_speedup", wall[1]/wall[k.cfg.workers])
	return fps, wall
}

// probeLeg replays the index's part of the write path: Lookup, Insert on a
// miss, FlushAll at the end. It returns the indexes of the chunks that
// missed (the first occurrence of each content) and the wall time.
func (k *kit) probeLeg(fps []dedup.Fingerprint, sizes func(i int) int) ([]int, float64, error) {
	var uniq []int
	var steps, dups, flushes, journal, memory int64
	var err error
	wall, _ := best(func() (float64, float64) {
		var idx *dedup.BinIndex
		if idx, err = dedup.NewBinIndex(dedup.DefaultIndexConfig()); err != nil {
			return 0, 0
		}
		uniq = uniq[:0]
		steps, dups, flushes, journal = 0, 0, 0, 0
		var loc int64
		leg := k.tr.begin("replay:dedup.BinIndex", k.root)
		const block = 256
		for lo := 0; lo < len(fps); lo += block {
			hi := min(lo+block, len(fps))
			k.tr.timed("dedup.BinIndex.Lookup+Insert", leg, func() {
				for i := lo; i < hi; i++ {
					p := idx.Lookup(fps[i])
					steps += int64(p.TreeSteps)
					if p.Found {
						dups++
						continue
					}
					uniq = append(uniq, i)
					ir := idx.Insert(fps[i], dedup.Entry{Loc: loc, Size: uint32(sizes(i))})
					loc += int64(sizes(i))
					if ir.Flush != nil {
						flushes++
						journal += int64(ir.Flush.Bytes)
					}
				}
			})
		}
		memory = idx.MemoryBytes()
		k.tr.timed("dedup.BinIndex.FlushAll", leg, func() {
			for _, f := range idx.FlushAll() {
				flushes++
				journal += int64(f.Bytes)
			}
		})
		return k.tr.end(leg), 0
	})
	if err != nil {
		return nil, 0, err
	}
	n := float64(max(len(fps), 1))
	k.res.set("dedup.probe_busy_s", wall)
	k.res.set("dedup.probe_ns_op", wall*1e9/n)
	k.res.set("dedup.tree_steps_per_probe", float64(steps)/n)
	k.res.set("dedup.dup_frac", float64(dups)/n)
	k.res.set("dedup.flushes", float64(flushes))
	k.res.set("dedup.journal_bytes", float64(journal))
	k.res.set("dedup.index_bytes", float64(memory))
	return uniq, wall, nil
}

// encodeLeg replays the encoder over the unique chunks at one worker and at
// the configured count: lz.CompressCodec, or with sub set the sub-block
// kernel plus its post-processing. It returns the blobs and the wall time
// at each count.
func (k *kit) encodeLeg(uniq [][]byte, sub *lz.SubBlockParams) ([][]byte, map[int]float64, error) {
	blobs := make([][]byte, len(uniq))
	stats := make([]lz.Stats, len(uniq))
	errs := make([]error, len(uniq))
	name := "lz.CompressCodec"
	encode := func(i int) {
		blobs[i], stats[i] = lz.CompressCodec(lz.CodecLZSS, make([]byte, 0, len(uniq[i])+16), uniq[i], lz.DefaultParams())
	}
	if sub != nil {
		name = "lz.CompressSubBlocks+PostProcessOrRaw"
		encode = func(i int) {
			res := lz.CompressSubBlocks(uniq[i], *sub)
			blobs[i], stats[i], errs[i] = lz.PostProcessOrRaw(make([]byte, 0, len(uniq[i])+16), uniq[i], res)
		}
	}
	wall, busy := map[int]float64{}, map[int]float64{}
	for _, w := range k.steps() {
		wall[w], busy[w] = best(func() (float64, float64) { return k.tr.fanout(name, k.root, w, len(uniq), 64, encode) })
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	src := float64(totalBytes(uniq))
	if sub != nil {
		k.res.set("lz.subencode_mbps", src/1e6/busy[1])
		return blobs, wall, nil
	}
	var dst, pos, search, raw int64
	for i, st := range stats {
		dst += int64(st.DstBytes)
		pos += int64(st.Positions)
		search += int64(st.SearchSteps)
		if blobs[i][0] == lz.ModeRaw {
			raw++
		}
	}
	k.res.set("lz.encode_busy_s", busy[1])
	k.res.set("lz.encode_mbps", src/1e6/busy[1])
	k.res.set("lz.ratio", src/float64(max(dst, 1)))
	k.res.set("lz.search_steps_per_pos", float64(search)/float64(max(pos, 1)))
	k.res.set("lz.raw_fallbacks", float64(raw))
	k.res.set("parallel.encode_speedup", wall[1]/wall[k.cfg.workers])
	return blobs, wall, nil
}

// decodeLeg replays n calls of lz.Decompress, cycling over the blobs, and
// checks every output against its source.
func (k *kit) decodeLeg(blobs, src [][]byte, n int) float64 {
	var out []byte
	wall, decoded := best(func() (float64, float64) {
		var decoded int64
		wall, _ := k.tr.fanout("lz.Decompress", k.root, 1, n, 64, func(j int) {
			i := j % len(blobs)
			var err error
			if out, err = lz.Decompress(out[:0], blobs[i]); err != nil || !bytes.Equal(out, src[i]) {
				k.res.Failed++
			}
			decoded += int64(len(out))
		})
		return wall, float64(decoded)
	})
	k.res.set("lz.decode_busy_s", wall)
	k.res.set("lz.decode_mbps", decoded/1e6/wall)
	return wall
}

// subDecodeLeg replays n two-pass sub-block decodes, cycling over the
// blobs: boundary resolution, every part, then the deferred copies,
// checking every output.
func (k *kit) subDecodeLeg(blobs, src [][]byte, n int) {
	var lay lz.SubLayout
	var deferred []lz.DeferredCopy
	out := make([]byte, blockSize)
	wall, decoded := best(func() (float64, float64) {
		var decoded int64
		wall, _ := k.tr.fanout("lz.ResolveSubBlocks+DecodeSubPart+ResolveDeferred", k.root, 1, n, 64, func(j int) {
			i := j % len(blobs)
			ok, err := lz.ResolveSubBlocks(&lay, blobs[i])
			if err != nil {
				k.res.Failed++
				return
			}
			if !ok {
				return // stored raw: nothing for the sub-block decoder
			}
			out = out[:lay.SrcLen]
			deferred = deferred[:0]
			for p := range lay.Parts {
				if deferred, _, err = lz.DecodeSubPart(out, &lay, p, deferred); err != nil {
					k.res.Failed++
					return
				}
			}
			lz.ResolveDeferred(out, deferred)
			decoded += int64(len(out))
			if !bytes.Equal(out, src[i]) {
				k.res.Failed++
			}
		})
		return wall, float64(decoded)
	})
	k.res.set("lz.subdecode_mbps", decoded/1e6/wall)
}

// ssdLeg replays the drive model's host cost: one WriteBytes per stored
// blob, packed log-structured, then one Read per read miss.
func (k *kit) ssdLeg(writes, reads []int) float64 {
	wall, _ := best(func() (float64, float64) {
		drive := ssd.New(ssd.DefaultConfig())
		page := int64(drive.PageSize)
		var at time.Duration
		var cursor int64
		leg := k.tr.begin("replay:ssd.Drive", k.root)
		const block = 256
		for lo := 0; lo < len(writes); lo += block {
			part := writes[lo:min(lo+block, len(writes))]
			k.tr.timed("ssd.Drive.WriteBytes", leg, func() {
				for _, n := range part {
					at, _ = drive.WriteBytes(at, cursor/page, n) // no injector: cannot fail
					cursor += int64(n)
				}
			})
		}
		for lo := 0; lo < len(reads); lo += block {
			part := reads[lo:min(lo+block, len(reads))]
			k.tr.timed("ssd.Drive.Read", leg, func() {
				var pos int64
				for _, n := range part {
					at, _ = drive.Read(at, pos/page, drive.Pages(n))
					pos = (pos + int64(n)) % max(cursor, 1)
				}
			})
		}
		return k.tr.end(leg), 0
	})
	k.res.set("ssd.busy_s", wall)
	return wall
}

func (k *kit) setSSDCounts(st ssd.Stats) {
	k.res.set("ssd.host_pages", float64(st.HostWritePages))
	k.res.set("ssd.nand_pages", float64(st.NANDWritePages))
	k.res.set("ssd.write_amp", st.WriteAmplification())
	k.res.set("ssd.gc_runs", float64(st.GCRuns))
}

// mapLeg measures what one parallel.Pool.Map dispatch costs when the work
// itself is free.
func (k *kit) mapLeg() {
	pool := parallel.New(k.cfg.workers)
	defer pool.Close()
	const calls = 2000
	wall, _ := best(func() (float64, float64) {
		return k.tr.timed("replay:parallel.Pool.Map", k.root, func() {
			for c := 0; c < calls; c++ {
				pool.Map(1024, func(int) {})
			}
		}), 0
	})
	k.res.set("parallel.map_ns", wall*1e9/calls)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

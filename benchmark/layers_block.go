package main

import (
	"fmt"
	"time"

	"inlinered"
	"inlinered/internal/lz"
	"inlinered/internal/metrics"
	"inlinered/internal/parallel"
	"inlinered/internal/volume"
)

// replayBatches is how many batches (or segments, or storms) past the
// warm-up the per-layer legs of a block workload replay.
const replayBatches = 8

// shardOps projects an op list onto one shard of n: the ops routed to it,
// in order, with shard-local LBAs — what serve hands that shard's volume.
func shardOps(ops []inlinered.Op, shard, n int) []inlinered.Op {
	var out []inlinered.Op
	for _, op := range ops {
		if int(op.LBA%int64(n)) == shard {
			op.LBA /= int64(n)
			out = append(out, op)
		}
	}
	return out
}

func shardBatches(batches [][]inlinered.Op, shard, n int) [][]inlinered.Op {
	out := make([][]inlinered.Op, len(batches))
	for i, b := range batches {
		out[i] = shardOps(b, shard, n)
	}
	return out
}

func countOps(batches [][]inlinered.Op) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}

// shardBlocks is shard 0's capacity under serve's routing rule.
func shardBlocks(blocks int64, n int) int64 { return (blocks + int64(n) - 1) / int64(n) }

// rawVolumeConfig is the volume one shard of a device built from opts gets
// (BlockDeviceOptions.volumeConfig is not exported; these are the fields
// the workloads set).
func rawVolumeConfig(blocks int64, opts inlinered.BlockDeviceOptions) volume.Config {
	vc := volume.DefaultConfig()
	vc.Blocks = blocks
	if opts.CacheBytes > 0 {
		vc.CacheBytes = opts.CacheBytes
	}
	vc.SubBlocks = opts.SubBlocks
	return vc
}

// volumeReplay is what feeding one shard's ops to a raw volume.Volume
// recorded, for the legs that replay its children.
type volumeReplay struct {
	v       *volume.Volume
	writes  [][]byte           // payload of every timed write
	stored  [][]byte           // the ones the volume stored (no dedup hit)
	missed  []int32            // content id behind every cache-miss read
	opWall  float64            // summed Write + ReadInto + Trim spans
	clean   float64            // summed Clean spans
	metrics map[string]float64 // the volume.* values this pass measured
}

// replayVolume makes passes passes of replayVolumeOnce and reports the one
// whose op spans sum lowest (the counts are the same in every pass).
func (k *kit) replayVolume(vc volume.Config, pre, window [][]inlinered.Op, cleanEvery int) (*volumeReplay, error) {
	var bestPass *volumeReplay
	for p := 0; p < passes; p++ {
		r, err := k.replayVolumeOnce(vc, pre, window, cleanEvery)
		if err != nil {
			return nil, err
		}
		if bestPass == nil || r.opWall < bestPass.opWall {
			bestPass = r
		}
	}
	for name, v := range bestPass.metrics {
		k.res.set(name, v)
	}
	k.setSSDCounts(bestPass.v.Drive().Stats())
	return bestPass, nil
}

// replayVolumeOnce builds a raw volume, applies pre untimed (no cleaning on
// the first batch, the fill), then applies window with one span per call,
// cleaning every cleanEvery ops of a batch as serve does.
func (k *kit) replayVolumeOnce(vc volume.Config, pre, window [][]inlinered.Op, cleanEvery int) (*volumeReplay, error) {
	v, err := volume.New(vc)
	if err != nil {
		return nil, err
	}
	r := &volumeReplay{v: v}
	srv := volumeServerOn(v, k.cfg.seed)
	for b, batch := range pre {
		ce := cleanEvery
		if b == 0 {
			ce = 0
		}
		if _, err := srv(batch, ce); err != nil {
			return nil, err
		}
	}
	content := newShadow(vc.Blocks) // what a cache-miss read is about to decode
	for _, batch := range pre {
		content.apply(batch)
	}
	var buf []byte

	var sum, n [4]float64 // write, read hit (or unmapped), read miss, trim
	leg := k.tr.begin("replay:volume.Volume", k.root)
	prev := v.Stats()
	before := mallocs()
	for _, batch := range window {
		for i, op := range batch {
			var d float64
			var err error
			switch op.Kind {
			case inlinered.OpWrite:
				p := payload(nil, k.cfg.seed, op.Content)
				d = k.tr.timed("volume.Write", leg, func() { _, err = v.Write(op.LBA, p) })
				content[op.LBA] = op.Content
				st := v.Stats()
				r.writes = append(r.writes, p)
				if st.DedupHits == prev.DedupHits {
					r.stored = append(r.stored, p)
				}
				prev = st
				sum[0], n[0] = sum[0]+d, n[0]+1
			case inlinered.OpRead:
				d = k.tr.timed("volume.ReadInto", leg, func() { buf, _, err = v.ReadInto(buf[:0], op.LBA) })
				st := v.Stats()
				which := 1
				if st.CacheMisses > prev.CacheMisses {
					which = 2
					r.missed = append(r.missed, content[op.LBA])
				}
				prev = st
				sum[which], n[which] = sum[which]+d, n[which]+1
			case inlinered.OpTrim:
				d = k.tr.timed("volume.Trim", leg, func() { _, err = v.Trim(op.LBA) })
				content[op.LBA] = -1
				sum[3], n[3] = sum[3]+d, n[3]+1
			}
			if err != nil {
				return nil, err
			}
			r.opWall += d
			if cleanEvery > 0 && (i+1)%cleanEvery == 0 {
				r.clean += k.tr.timed("volume.Clean", leg, func() { _, err = v.Clean() })
				if err != nil {
					return nil, err
				}
			}
		}
	}
	allocs := mallocs() - before
	k.tr.end(leg)

	ops := n[0] + n[1] + n[2] + n[3]
	per := func(i int) float64 {
		if n[i] == 0 {
			return 0
		}
		return sum[i] * 1e9 / n[i]
	}
	st := v.Stats()
	r.metrics = map[string]float64{
		"volume.write_ns_op":     per(0),
		"volume.read_hit_ns_op":  per(1),
		"volume.read_miss_ns_op": per(2),
		"volume.trim_ns_op":      per(3),
		// The payload slices and the Stats calls between spans allocate
		// too; they are the same at both commits, so the count compares.
		"volume.allocs_per_op":     float64(allocs) / max(ops, 1),
		"volume.dedup_hit_frac":    float64(st.DedupHits) / float64(max(st.Writes, 1)),
		"volume.clean_s":           r.clean,
		"volume.clean_runs":        float64(st.CleanRuns),
		"volume.moved_bytes":       float64(st.MovedBytes),
		"volume.garbage_frac":      float64(st.GarbageBytes) / float64(max(st.LogBytes, 1)),
		"volume.virt_write_p50_us": float64(st.WriteLat.P50) / 1e3,
		"volume.virt_read_p50_us":  float64(st.ReadLat.P50) / 1e3,
	}
	return r, nil
}

// volumeChildren replays what the volume calls beneath it for the ops of r
// — hash, index, encoder, decoder, drive model — and sets the volume's
// budget from them. The volume runs them serially, so the 1-worker wall
// times are the ones that add up. It returns the blobs of r.stored.
func (k *kit) volumeChildren(r *volumeReplay, sub *lz.SubBlockParams) (stored [][]byte, err error) {
	children := 0.0
	var storedSizes, missSizes []int
	if len(r.writes) > 0 {
		fps, hashWall := k.hashLeg(r.writes, 1024)
		_, probeWall, err := k.probeLeg(fps, func(int) int { return blockSize })
		if err != nil {
			return nil, err
		}
		children += hashWall[1] + probeWall
	}
	if len(r.stored) > 0 {
		var encodeWall map[int]float64
		if stored, encodeWall, err = k.encodeLeg(r.stored, sub); err != nil {
			return nil, err
		}
		children += encodeWall[1]
		for _, b := range stored {
			storedSizes = append(storedSizes, len(b))
		}
	}
	if len(r.missed) > 0 {
		// One blob per distinct missed content, decoded once per miss.
		var src, blobs [][]byte
		seen := map[int32]bool{}
		for _, c := range r.missed {
			if !seen[c] {
				seen[c] = true
				p := payload(nil, k.cfg.seed, c)
				b, _ := lz.CompressCodec(lz.CodecLZSS, nil, p, lz.DefaultParams())
				src, blobs = append(src, p), append(blobs, b)
			}
		}
		children += k.decodeLeg(blobs, src, len(r.missed))
		for i := range r.missed {
			missSizes = append(missSizes, len(blobs[i%len(blobs)]))
		}
	}
	children += k.ssdLeg(storedSizes, missSizes)
	k.res.set("volume.self_s", r.opWall-children)
	k.res.set("volume.budget_coverage", children/r.opWall)
	return stored, nil
}

// payloadLeg times the payload synthesis Serve performs inside its timed
// path for the writes of window.
func (k *kit) payloadLeg(window [][]inlinered.Op) {
	var buf []byte
	wall := k.tr.timed("replay:workload.UniqueChunkInto", k.root, func() {
		for _, batch := range window {
			for _, op := range batch {
				if op.Kind == inlinered.OpWrite {
					buf = payload(buf, k.cfg.seed, op.Content)
				}
			}
		}
	})
	k.res.set("workload.payload_busy_s", wall)
}

// server is what the lockstep legs call on every tier: one batch of ops
// applied the way Array.Serve applies it.
type server func(ops []inlinered.Op, cleanEvery int) (errors int64, err error)

// volumeServer is a raw volume.Volume behind the server call: serve's shard
// loop (payload synthesis, op, periodic Clean) with nothing around it.
func volumeServer(vc volume.Config, seed int64) (server, error) {
	v, err := volume.New(vc)
	if err != nil {
		return nil, err
	}
	return volumeServerOn(v, seed), nil
}

func volumeServerOn(v *volume.Volume, seed int64) server {
	var data, buf []byte
	return func(ops []inlinered.Op, cleanEvery int) (int64, error) {
		for i, op := range ops {
			var err error
			switch op.Kind {
			case inlinered.OpWrite:
				data = payload(data, seed, op.Content)
				_, err = v.Write(op.LBA, data)
			case inlinered.OpRead:
				buf, _, err = v.ReadInto(buf[:0], op.LBA)
			case inlinered.OpTrim:
				_, err = v.Trim(op.LBA)
			}
			if err == nil && cleanEvery > 0 && (i+1)%cleanEvery == 0 {
				_, err = v.Clean()
			}
			if err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
}

func arrayServer(opts inlinered.BlockDeviceOptions, clients int, seed int64) (server, func(), error) {
	arr, err := inlinered.NewArray(opts)
	if err != nil {
		return nil, nil, err
	}
	return func(ops []inlinered.Op, cleanEvery int) (int64, error) {
		rep, err := arr.Serve(ops, inlinered.ServeOptions{Clients: clients, ContentSeed: seed, CleanEvery: cleanEvery})
		if err != nil {
			return 0, err
		}
		return rep.Errors, nil
	}, arr.Close, nil
}

func clusterServer(opts inlinered.BlockDeviceOptions, clients int, seed int64) (server, func(), error) {
	cl, err := inlinered.NewCluster(opts)
	if err != nil {
		return nil, nil, err
	}
	return func(ops []inlinered.Op, cleanEvery int) (int64, error) {
		rep, err := cl.Serve(ops, inlinered.ClusterServeOptions{Clients: clients, ContentSeed: seed, CleanEvery: cleanEvery})
		if err != nil {
			return 0, err
		}
		return rep.Errors + rep.Faults.ReadsUnserved, nil
	}, cl.Close, nil
}

// deviceServer is a BlockDevice called one op at a time, as blockdev-direct
// calls it.
func deviceServer(opts inlinered.BlockDeviceOptions, seed int64) (server, func(), error) {
	dev, err := inlinered.NewBlockDevice(opts)
	if err != nil {
		return nil, nil, err
	}
	var data []byte
	return func(ops []inlinered.Op, _ int) (int64, error) {
		for _, op := range ops {
			var err error
			switch op.Kind {
			case inlinered.OpWrite:
				data = payload(data, seed, op.Content)
				_, err = dev.Write(op.LBA, data)
			case inlinered.OpRead:
				_, _, err = dev.Read(op.LBA)
			case inlinered.OpTrim:
				_, err = dev.Trim(op.LBA)
			}
			if err != nil {
				return 0, err
			}
		}
		return 0, nil
	}, dev.Close, nil
}

// tier is one device of a lockstep leg. run executes step i of the leg's
// script; walls collects the timed steps.
type tier struct {
	name   string
	run    func(i int) (bad int64, err error)
	close  func()
	walls  []float64
	allocs uint64
}

// opsTier scripts a server: the untimed pre batches (the first, the fill,
// without cleaning), then the window.
func opsTier(name string, srv server, pre, window [][]inlinered.Op, cleanEvery int) *tier {
	return &tier{name: name, run: func(i int) (int64, error) {
		switch {
		case i == 0:
			return srv(pre[0], 0)
		case i < len(pre):
			return srv(pre[i], cleanEvery)
		}
		return srv(window[i-len(pre)], cleanEvery)
	}}
}

// lockstep drives several tiers through the same script step by step, each
// tier's timed step under its own span, so that the tiers being compared
// run within milliseconds of each other: the host's slow phases last
// seconds and would otherwise land on one tier and not the other. Compare
// tiers through vs, step by step.
func (k *kit) lockstep(untimed, steps int, tiers ...*tier) error {
	leg := k.tr.begin("replay:lockstep", k.root)
	defer k.tr.end(leg)
	for i := 0; i < untimed+steps; i++ {
		for _, t := range tiers {
			var bad int64
			var err error
			if i < untimed {
				bad, err = t.run(i)
			} else {
				before := mallocs()
				t.walls = append(t.walls, k.tr.timed(t.name, leg, func() { bad, err = t.run(i) }))
				t.allocs += mallocs() - before
			}
			if err != nil {
				return fmt.Errorf("%s: step %d: %w", t.name, i, err)
			}
			k.res.Failed += bad
		}
	}
	return nil
}

// vs is the median over the timed steps of f(a's wall, b's wall).
func vs(a, b *tier, f func(a, b float64) float64) float64 {
	var xs []float64
	for i := range a.walls {
		xs = append(xs, f(a.walls[i], b.walls[i]))
	}
	return median(xs)
}

func ratio(a, b float64) float64 { return a / b }

// perOp returns f for the extra nanoseconds per op of a over b.
func perOp(window [][]inlinered.Op) func(a, b float64) float64 {
	n := float64(max(countOps(window), 1)) / float64(max(len(window), 1))
	return func(a, b float64) float64 { return (a - b) * 1e9 / n }
}

func traceServeMixed(k *kit) error {
	cfg, res := k.cfg, k.res
	sz := sizesFor(cfg.scale)

	plain, traced, err := k.rootLegs(setupServeMixed)
	if err != nil {
		return err
	}
	res.set("serve.clean_runs", float64(traced.(*serveMixed).arr.Stats().CleanRuns))
	plain.close()
	traced.close()

	genStart := time.Now()
	ops, err := serveMixedOps(cfg)
	if err != nil {
		return err
	}
	res.set("workload.gen_s", time.Since(genStart).Seconds())
	fill, batches := splitOps(ops, sz.ServeBlocks, sz.ServeBatch)
	pre := append([][]inlinered.Op{fill}, batches[:warmRounds]...)
	window := batches[warmRounds : warmRounds+min(replayBatches, len(batches)-warmRounds)]

	// One shard's sub-sequence through a raw volume call by call, for the
	// volume's own budget.
	pre0, window0 := shardBatches(pre, 0, cfg.workers), shardBatches(window, 0, cfg.workers)
	opts0 := inlinered.BlockDeviceOptions{Blocks: shardBlocks(sz.ServeBlocks, cfg.workers), Shards: 1}
	vc0 := rawVolumeConfig(opts0.Blocks, opts0)
	k.payloadLeg(window0)
	vr, err := k.replayVolume(vc0, pre0, window0, sz.ServeClean)
	if err != nil {
		return err
	}
	if _, err := k.volumeChildren(vr, nil); err != nil {
		return err
	}

	// The same sub-sequence through a raw volume and a 1-shard array in
	// lockstep: what separates them is serve.
	volSrv, err := volumeServer(vc0, cfg.seed)
	if err != nil {
		return err
	}
	arrSrv, closeArr, err := arrayServer(opts0, 1, cfg.seed)
	if err != nil {
		return err
	}
	vol := opsTier("volume.Volume batch", volSrv, pre0, window0, sz.ServeClean)
	arr := opsTier("serve.Array.Serve@1shard", arrSrv, pre0, window0, sz.ServeClean)
	err = k.lockstep(len(pre0), len(window0), vol, arr)
	closeArr()
	if err != nil {
		return err
	}
	res.set("serve.overhead_ns_op", vs(arr, vol, perOp(window0)))

	// The whole op list on 1 shard/1 client and on nproc shards/nproc
	// clients, and each again with one observability plane switched on.
	var tiers []*tier
	for _, c := range []struct {
		name     string
		shards   int
		metrics  bool
		recorder bool
	}{
		{"serve.Array.Serve@1", 1, false, false},
		{fmt.Sprintf("serve.Array.Serve@%d", cfg.workers), cfg.workers, false, false},
		{"serve.Array.Serve+metrics", cfg.workers, true, false},
		{"serve.Array.Serve+recorder", 1, false, true},
	} {
		o := inlinered.BlockDeviceOptions{Blocks: sz.ServeBlocks, Shards: c.shards}
		if c.recorder {
			o.Recorder = inlinered.NewRecorder()
		}
		srv, closeFn, err := arrayServer(o, c.shards, cfg.seed)
		if err != nil {
			return err
		}
		defer closeFn()
		t := opsTier(c.name, srv, pre, window, sz.ServeClean)
		if c.metrics {
			inner := t.run
			t.run = func(i int) (int64, error) {
				metrics.Enable()
				defer metrics.Disable()
				return inner(i)
			}
		}
		tiers = append(tiers, t)
	}
	if err := k.lockstep(len(pre), len(window), tiers...); err != nil {
		return err
	}
	one, many, withMetrics, withRecorder := tiers[0], tiers[1], tiers[2], tiers[3]
	res.set("serve.shard_speedup", vs(one, many, ratio))
	res.set("serve.allocs_per_op", float64(many.allocs)/float64(max(countOps(window), 1)))
	res.set("metrics.overhead_frac", vs(withMetrics, many, ratio)-1)
	res.set("obs.overhead_frac", vs(withRecorder, one, ratio)-1)
	return nil
}

func traceCluster(k *kit) error {
	cfg, res := k.cfg, k.res
	sz := sizesFor(cfg.scale)

	plain, traced, err := k.rootLegs(setupCluster)
	if err != nil {
		return err
	}
	c := traced.(*clusterRun)
	res.set("cluster.crashes", float64(c.faults.NodeCrashes))
	res.set("cluster.rejoins", float64(c.faults.NodeRejoins))
	res.set("cluster.reads_fallback", float64(c.faults.ReadsFallback))
	res.set("cluster.reads_stale", float64(c.faults.ReadsStale))
	res.set("cluster.reads_unserved", float64(c.faults.ReadsUnserved))
	res.set("cluster.read_repairs", float64(c.faults.ReadRepairs))
	res.set("cluster.repair_writes", float64(c.faults.RepairWrites))
	res.set("cluster.scrub_mismatched", float64(c.scrub.Mismatched))
	plain.close()
	traced.close()

	genStart := time.Now()
	ops, err := clusterOps(cfg)
	if err != nil {
		return err
	}
	res.set("workload.gen_s", time.Since(genStart).Seconds())
	fill, batches := splitOps(ops, sz.ClusterBlocks, sz.ClusterBatch)
	pre := append([][]inlinered.Op{fill}, batches[:warmRounds]...)
	window := batches[warmRounds : warmRounds+min(replayBatches, len(batches)-warmRounds)]

	// A node here is a 1-shard array, so the whole op list is what the raw
	// volume under a 1-node cluster sees.
	one := inlinered.BlockDeviceOptions{Blocks: sz.ClusterBlocks, Shards: 1}
	vc := rawVolumeConfig(one.Blocks, one)
	k.payloadLeg(window)
	vr, err := k.replayVolume(vc, pre, window, sz.ServeClean)
	if err != nil {
		return err
	}
	if _, err := k.volumeChildren(vr, nil); err != nil {
		return err
	}

	// Raw volume, bare array, 1-node cluster and the 3-node R=2 cluster in
	// lockstep over the same ops.
	volSrv, err := volumeServer(vc, cfg.seed)
	if err != nil {
		return err
	}
	arrSrv, closeArr, err := arrayServer(one, 1, cfg.seed)
	if err != nil {
		return err
	}
	defer closeArr()
	single := clusterOptions(cfg, 1, 1)
	single.NodeFaultRate = 0
	oneSrv, closeOne, err := clusterServer(single, 1, cfg.seed)
	if err != nil {
		return err
	}
	defer closeOne()
	threeSrv, closeThree, err := clusterServer(clusterOptions(cfg, 3, 2), cfg.workers, cfg.seed)
	if err != nil {
		return err
	}
	defer closeThree()
	vol := opsTier("volume.Volume batch", volSrv, pre, window, sz.ServeClean)
	arr := opsTier("serve.Array.Serve@1", arrSrv, pre, window, sz.ServeClean)
	oneNode := opsTier("cluster.Cluster.Serve@1node", oneSrv, pre, window, sz.ServeClean)
	threeNodes := opsTier("cluster.Cluster.Serve@3nodes", threeSrv, pre, window, sz.ServeClean)
	if err := k.lockstep(len(pre), len(window), vol, arr, oneNode, threeNodes); err != nil {
		return err
	}
	res.set("serve.overhead_ns_op", vs(arr, vol, perOp(window)))
	res.set("serve.allocs_per_op", float64(arr.allocs)/float64(max(countOps(window), 1)))
	res.set("cluster.route_overhead_ns_op", vs(oneNode, arr, perOp(window)))
	res.set("cluster.replication_cost_x", vs(threeNodes, oneNode, ratio))
	return nil
}

func traceDirect(k *kit) error {
	cfg, res := k.cfg, k.res
	sz := sizesFor(cfg.scale)

	plain, traced, err := k.rootLegs(setupDirect)
	if err != nil {
		return err
	}
	for name, v := range plain.(*direct).collect().extra {
		res.set(name, v) // the per-op latencies, from the copy that ran without spans
	}
	plain.close()
	traced.close()

	// Client 0's ops, shard-local, as batches of one segment.
	genStart := time.Now()
	mine := directOps(cfg, sz, 0)
	res.set("workload.gen_s", time.Since(genStart).Seconds())
	var fill []inlinered.Op
	for lba := int64(0); lba < sz.DirectBlocks; lba += int64(cfg.workers) {
		fill = append(fill, inlinered.Op{Kind: inlinered.OpWrite, LBA: lba / int64(cfg.workers), Content: int32(lba * 7919 % sz.DirectBlocks)})
	}
	var segs [][]inlinered.Op
	for s := 0; s < warmRounds+replayBatches && (s+1)*sz.DirectSegment <= len(mine); s++ {
		var seg []inlinered.Op
		for _, op := range mine[s*sz.DirectSegment : (s+1)*sz.DirectSegment] {
			seg = append(seg, inlinered.Op{Kind: op.kind, LBA: int64(op.lba) / int64(cfg.workers), Content: op.content})
		}
		segs = append(segs, seg)
	}
	pre := append([][]inlinered.Op{fill}, segs[:warmRounds]...)
	window := segs[warmRounds:]

	opts0 := inlinered.BlockDeviceOptions{Blocks: shardBlocks(sz.DirectBlocks, cfg.workers), Shards: 1}
	vc0 := rawVolumeConfig(opts0.Blocks, opts0)
	vr, err := k.replayVolume(vc0, pre, window, 0)
	if err != nil {
		return err
	}
	if _, err := k.volumeChildren(vr, nil); err != nil {
		return err
	}
	st := vr.v.Stats()
	res.set("volume.cache_hit_rate", float64(st.CacheHits)/float64(max(st.CacheHits+st.CacheMisses, 1)))
	res.set("volume.cache_admissions", float64(st.CacheAdmissions))
	res.set("volume.cache_ghost_hits", float64(st.CacheGhostHits))

	// The same calls on a raw volume and through a 1-shard BlockDevice in
	// lockstep: what separates them is the route and the shard lock.
	volSrv, err := volumeServer(vc0, cfg.seed)
	if err != nil {
		return err
	}
	devSrv, closeDev, err := deviceServer(opts0, cfg.seed)
	if err != nil {
		return err
	}
	defer closeDev()
	vol := opsTier("volume.Volume segment", volSrv, pre, window, 0)
	dev := opsTier("BlockDevice@1shard segment", devSrv, pre, window, 0)
	if err := k.lockstep(len(pre), len(window), vol, dev); err != nil {
		return err
	}
	res.set("serve.overhead_ns_op", vs(dev, vol, perOp(window)))
	return nil
}

func traceBootStorm(k *kit) error {
	cfg, tr, res := k.cfg, k.tr, k.res
	sz := sizesFor(cfg.scale)

	plain, traced, err := k.rootLegs(setupBootStorm)
	if err != nil {
		return err
	}
	last := traced.(*bootStorm).last
	res.set("volume.cache_hit_rate", last.HitRate())
	res.set("volume.cache_admissions", float64(last.CacheAdmissions))
	res.set("volume.cache_ghost_hits", float64(last.CacheGhostHits))
	plain.close()
	traced.close()

	genStart := time.Now()
	spec := stormSpec(cfg)
	fill, err := spec.Fill()
	if err != nil {
		return err
	}
	lbas, err := spec.Storm()
	if err != nil {
		return err
	}
	res.set("workload.gen_s", time.Since(genStart).Seconds())

	// Shard 0's image through a raw volume (its writes are the only encoder
	// work this workload ever does, all of it in set-up), then its share of
	// the storm through Plan, RunItem and Commit, stage by stage.
	opts0 := stormOptions(cfg, 1)
	opts0.Blocks = shardBlocks(sz.StormBlocks, cfg.workers)
	fill0 := shardOps(fill, 0, cfg.workers)
	var lbas0 []int64
	for _, lba := range lbas {
		if int(lba%int64(cfg.workers)) == 0 {
			lbas0 = append(lbas0, lba/int64(cfg.workers))
		}
	}
	vr, err := k.replayVolume(rawVolumeConfig(opts0.Blocks, opts0), nil, [][]inlinered.Op{fill0}, 0)
	if err != nil {
		return err
	}
	sub := lz.SubBlockParams{Params: lz.DefaultParams(), SubBlocks: opts0.SubBlocks, Overlap: lz.Window / 8}
	blobs, err := k.volumeChildren(vr, &sub)
	if err != nil {
		return err
	}

	rb := vr.v.NewReadBatch()
	defer rb.Release()
	pool := parallel.New(cfg.workers)
	defer pool.Close()
	var plan, commit []float64
	decode := map[bool][]float64{}
	leg := tr.begin("replay:volume.ReadBatch", k.root)
	for r := 0; r < warmRounds+2*replayBatches; r++ {
		pooled := r%2 == 0
		var perr error
		p := tr.timed("volume.ReadBatch.Plan", leg, func() { perr = rb.Plan(lbas0) })
		if perr != nil {
			return perr
		}
		d := tr.timed(fmt.Sprintf("volume.ReadBatch.RunItem pooled=%v", pooled), leg, func() {
			if pooled {
				pool.Map(rb.Items(), rb.RunItem)
				return
			}
			for i := 0; i < rb.Items(); i++ {
				rb.RunItem(i)
			}
		})
		c := tr.timed("volume.ReadBatch.Commit", leg, rb.Commit)
		res.Failed += int64(rb.Errors())
		if r >= warmRounds {
			plan, commit = append(plan, p), append(commit, c)
			decode[pooled] = append(decode[pooled], d)
		}
	}
	tr.end(leg)
	res.set("volume.plan_s", median(plan))
	res.set("volume.decode_s", median(decode[true]))
	res.set("volume.commit_s", median(commit))
	res.set("volume.decode_par_speedup", median(decode[false])/median(decode[true]))

	// The decoders on their own, over every blob the image stored.
	k.subDecodeLeg(blobs, vr.stored, 4*len(blobs))
	k.decodeLeg(blobs, vr.stored, 4*len(blobs))
	var missSizes []int
	for i := 0; i < rb.DecodedBlobs(); i++ {
		missSizes = append(missSizes, len(blobs[i%len(blobs)]))
	}
	k.ssdLeg(nil, missSizes)
	k.mapLeg()

	// Storms in lockstep: the shard on a raw volume against the same shard
	// behind a 1-shard array, then the whole storm on 1 shard/1 client
	// against nproc shards/nproc clients.
	v2, err := volume.New(rawVolumeConfig(opts0.Blocks, opts0))
	if err != nil {
		return err
	}
	if _, err := volumeServerOn(v2, cfg.seed)(fill0, 0); err != nil {
		return err
	}
	var rb2 *volume.ReadBatch
	defer func() { rb2.Release() }()
	raw := &tier{name: "volume.Volume.ReadBatch", run: func(int) (int64, error) {
		var err error
		if rb2, err = v2.ReadBatch(rb2, lbas0, pool); err != nil {
			return 0, err
		}
		return int64(rb2.Errors()), nil
	}}
	stormTier := func(name string, o inlinered.BlockDeviceOptions, clients int, image []inlinered.Op, reads []int64) (*tier, error) {
		arr, err := inlinered.NewArray(o)
		if err != nil {
			return nil, err
		}
		if _, err := arr.Serve(image, inlinered.ServeOptions{Clients: clients, ContentSeed: cfg.seed}); err != nil {
			arr.Close()
			return nil, err
		}
		return &tier{name: name, run: func(int) (int64, error) {
			rep, err := arr.ReadBatch(reads, inlinered.ReadBatchOptions{Clients: clients})
			if err != nil {
				return 0, err
			}
			return rep.Errors, nil
		}, close: arr.Close}, nil
	}
	oneShard, err := stormTier("serve.Array.ReadBatch@1shard", opts0, 1, fill0, lbas0)
	if err != nil {
		return err
	}
	defer oneShard.close()
	if err := k.lockstep(warmRounds, replayBatches, raw, oneShard); err != nil {
		return err
	}
	res.set("serve.readbatch_overhead_frac", vs(oneShard, raw, ratio)-1)
	one, err := stormTier("serve.Array.ReadBatch@1", stormOptions(cfg, 1), 1, fill, lbas)
	if err != nil {
		return err
	}
	defer one.close()
	many, err := stormTier(fmt.Sprintf("serve.Array.ReadBatch@%d", cfg.workers), stormOptions(cfg, cfg.workers), cfg.workers, fill, lbas)
	if err != nil {
		return err
	}
	defer many.close()
	if err := k.lockstep(warmRounds, replayBatches, one, many); err != nil {
		return err
	}
	res.set("serve.shard_speedup", vs(one, many, ratio))
	return nil
}

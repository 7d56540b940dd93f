package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"inlinered"
	"inlinered/internal/workload"
)

const blockSize = 4096

// nodeFaultSeed schedules cluster-replicated's crashes and divergences. It
// is part of the device's configuration, not of the generated inputs, so
// -seed does not move it.
const nodeFaultSeed = 1337

// payload returns the bytes Serve derives for a write of content id c: the
// generator's convention (ContentSeed = the run's seed, default fill).
func payload(dst []byte, seed int64, c int32) []byte {
	return workload.UniqueChunkInto(dst, seed, c, blockSize, 0.5)
}

// shadow is the reference model the block workloads check against: the
// content id last written to each LBA, -1 when unmapped.
type shadow []int32

func newShadow(blocks int64) shadow {
	s := make(shadow, blocks)
	for i := range s {
		s[i] = -1
	}
	return s
}

func (s shadow) apply(ops []inlinered.Op) {
	for _, op := range ops {
		switch op.Kind {
		case inlinered.OpWrite:
			s[op.LBA] = op.Content
		case inlinered.OpTrim:
			s[op.LBA] = -1
		}
	}
}

// readBack reads every LBA through read and counts blocks that differ from
// the shadow (payload or zeros) or fail.
func (s shadow) readBack(seed int64, read func(lba int64) ([]byte, error)) int64 {
	var bad int64
	var want []byte
	zeros := make([]byte, blockSize)
	for lba, c := range s {
		got, err := read(int64(lba))
		exp := zeros
		if c >= 0 {
			want = payload(want, seed, c)
			exp = want
		}
		if err != nil || !bytes.Equal(got, exp) {
			bad++
		}
	}
	return bad
}

// spaceRatios turns device accounting into the two exact end-to-end
// metrics: live stored + journal bytes per live user byte, and log bytes
// appended (cleaner moves included) + journal bytes per user byte written.
func spaceRatios(st inlinered.DeviceStats) (stored, written float64) {
	stored = float64(st.StoredBytes+st.JournalBytes) / float64(st.LogicalBytes)
	written = float64(st.LogBytes+st.JournalBytes) / float64(st.Writes*blockSize)
	return stored, written
}

// splitOps cuts a NewOps list into its fill prefix (one write per LBA) and
// fixed-size batches of the mix that follows.
func splitOps(ops []inlinered.Op, blocks int64, batch int) (fill []inlinered.Op, batches [][]inlinered.Op) {
	fill, rest := ops[:blocks], ops[blocks:]
	for len(rest) >= batch {
		batches = append(batches, rest[:batch])
		rest = rest[batch:]
	}
	return fill, batches
}

// warmRounds is how many untimed rounds precede the timed region.
const warmRounds = 2

// ---------------------------------------------------------------- serve-mixed

type serveMixed struct {
	base
	cfg     config
	sz      sizes
	arr     *inlinered.Array
	fill    []inlinered.Op
	batches [][]inlinered.Op // warm-up batches first
	done    int              // batches executed, warm-up included
}

func (s *serveMixed) opts() inlinered.ServeOptions {
	return inlinered.ServeOptions{Clients: s.cfg.workers, ContentSeed: s.cfg.seed, CleanEvery: s.sz.ServeClean}
}

// serveMixedOps generates the workload's whole op list.
func serveMixedOps(cfg config) ([]inlinered.Op, error) {
	sz := sizesFor(cfg.scale)
	return inlinered.NewOps(inlinered.OpsSpec{
		Ops: (sz.ServeMax + warmRounds) * sz.ServeBatch, Blocks: sz.ServeBlocks,
		WriteFrac: 0.6, TrimFrac: 0.05, DedupRatio: 2, Hotspot: 0.5, Seed: cfg.seed,
	})
}

func setupServeMixed(cfg config) (instance, error) {
	s := &serveMixed{cfg: cfg, sz: sizesFor(cfg.scale)}
	ops, err := serveMixedOps(cfg)
	if err != nil {
		return nil, err
	}
	s.fill, s.batches = splitOps(ops, s.sz.ServeBlocks, s.sz.ServeBatch)
	s.heap0 = liveHeap()
	s.arr, err = inlinered.NewArray(inlinered.BlockDeviceOptions{Blocks: s.sz.ServeBlocks, Shards: cfg.workers})
	if err != nil {
		return nil, err
	}
	if _, err := s.arr.Serve(s.fill, inlinered.ServeOptions{Clients: cfg.workers, ContentSeed: cfg.seed}); err != nil {
		return nil, err
	}
	for ; s.done < warmRounds; s.done++ {
		if _, err := s.arr.Serve(s.batches[s.done], s.opts()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *serveMixed) run(seconds float64, atSnap func()) timed {
	before := s.arr.Stats().CleanRuns
	t := roundLoop(seconds, s.sz.ServeSnap, s.sz.ServeMax, atSnap, s.round)
	t.extra = map[string]float64{"serve.clean_runs": float64(s.arr.Stats().CleanRuns - before)}
	return t
}

func (s *serveMixed) round() (time.Duration, int64, int64, int64, error) {
	batch := s.batches[s.done]
	start := time.Now()
	rep, err := s.arr.Serve(batch, s.opts())
	d := time.Since(start)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	s.done++
	return d, int64(len(batch)) * blockSize, int64(len(batch)), rep.Errors, nil
}

func (s *serveMixed) exact() (float64, float64) { return spaceRatios(s.arr.Stats()) }

func (s *serveMixed) verify() (int64, error) {
	sh := newShadow(s.sz.ServeBlocks)
	sh.apply(s.fill)
	for _, b := range s.batches[:s.done] {
		sh.apply(b)
	}
	return sh.readBack(s.cfg.seed, func(lba int64) ([]byte, error) {
		b, _, err := s.arr.Read(lba)
		return b, err
	}), nil
}

// ------------------------------------------------------------ blockdev-direct

// directOp is one pre-generated per-op call.
type directOp struct {
	kind    inlinered.OpKind
	lba     int32
	content int32
}

// directClient is one closed-loop caller. It owns the LBAs congruent to its
// index modulo the client count, which is also the device's shard routing
// rule: every shard sees one client's ops in one fixed order, so every
// count repeats exactly however the goroutines are scheduled.
type directClient struct {
	lane   int // 1-based: the client's trace lane
	ops    []directOp
	next   int
	lat    [2][]int32 // wall ns per op: [0] writes, [1] reads
	rounds []float64  // seconds per segment
	failed int64
}

type direct struct {
	base
	cfg     config
	sz      sizes
	dev     *inlinered.BlockDevice
	tr      *tracer // non-nil in the traced root leg: one span per call
	parent  int32
	pool    [][]byte // payload by content id
	fillIDs []int32  // content installed at each LBA before the run
	clients []*directClient
}

// directOps generates client c's op list: 50/48/2 write/read/trim over its
// own LBAs, contents drawn from a pool the size of the LBA space (about
// four writes in ten find their content already stored).
func directOps(cfg config, sz sizes, c int) []directOp {
	rng := rand.New(rand.NewSource(cfg.seed*1000003 + int64(c)))
	own := (sz.DirectBlocks - int64(c) + int64(cfg.workers) - 1) / int64(cfg.workers)
	contents := int32(sz.DirectBlocks)
	ops := make([]directOp, (sz.DirectMax+warmRounds)*sz.DirectSegment)
	for i := range ops {
		op := directOp{lba: int32(int64(c) + int64(cfg.workers)*rng.Int63n(own))}
		switch p := rng.Float64(); {
		case p < 0.50:
			op.kind, op.content = inlinered.OpWrite, rng.Int31n(contents)
		case p < 0.98:
			op.kind = inlinered.OpRead
		default:
			op.kind = inlinered.OpTrim
		}
		ops[i] = op
	}
	return ops
}

func setupDirect(cfg config) (instance, error) {
	d := &direct{cfg: cfg, sz: sizesFor(cfg.scale)}
	contents := int(d.sz.DirectBlocks)
	d.pool = make([][]byte, contents)
	for c := range d.pool {
		d.pool[c] = payload(nil, cfg.seed, int32(c))
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	d.fillIDs = make([]int32, d.sz.DirectBlocks)
	for lba := range d.fillIDs {
		d.fillIDs[lba] = rng.Int31n(int32(contents))
	}
	for c := 0; c < cfg.workers; c++ {
		cl := &directClient{lane: c + 1, ops: directOps(cfg, d.sz, c)}
		var n [2]int
		for _, op := range cl.ops {
			switch op.kind {
			case inlinered.OpWrite:
				n[0]++
			case inlinered.OpRead:
				n[1]++
			}
		}
		cl.lat[0], cl.lat[1] = make([]int32, 0, n[0]), make([]int32, 0, n[1])
		cl.rounds = make([]float64, 0, d.sz.DirectMax+warmRounds)
		d.clients = append(d.clients, cl)
	}
	d.heap0 = liveHeap()
	var err error
	d.dev, err = inlinered.NewBlockDevice(inlinered.BlockDeviceOptions{Blocks: d.sz.DirectBlocks, Shards: cfg.workers})
	if err != nil {
		return nil, err
	}
	for lba, c := range d.fillIDs {
		if _, err := d.dev.Write(int64(lba), d.pool[c]); err != nil {
			return nil, err
		}
	}
	// Warm-up: two segments per client, concurrently as in the timed region.
	d.each(func(cl *directClient) {
		for w := 0; w < warmRounds; w++ {
			d.segment(cl)
		}
		cl.lat[0], cl.lat[1], cl.rounds, cl.failed = cl.lat[0][:0], cl.lat[1][:0], cl.rounds[:0], 0
	})
	return d, nil
}

// each runs fn for every client on its own goroutine and waits.
func (d *direct) each(fn func(cl *directClient)) {
	var wg sync.WaitGroup
	for _, cl := range d.clients {
		wg.Add(1)
		go func(cl *directClient) {
			defer wg.Done()
			fn(cl)
		}(cl)
	}
	wg.Wait()
}

// segment issues one round of a client's ops, one public-API call each,
// timing every call.
func (d *direct) segment(cl *directClient) {
	start := time.Now()
	for _, op := range cl.ops[cl.next : cl.next+d.sz.DirectSegment] {
		var err error
		var took time.Duration
		name := "BlockDevice.Trim"
		t0 := time.Now()
		switch op.kind {
		case inlinered.OpWrite:
			_, err = d.dev.Write(int64(op.lba), d.pool[op.content])
			took = time.Since(t0)
			cl.lat[0] = append(cl.lat[0], int32(took))
			name = "BlockDevice.Write"
		case inlinered.OpRead:
			_, _, err = d.dev.Read(int64(op.lba))
			took = time.Since(t0)
			cl.lat[1] = append(cl.lat[1], int32(took))
			name = "BlockDevice.Read"
		case inlinered.OpTrim:
			_, err = d.dev.Trim(int64(op.lba))
			took = time.Since(t0)
		}
		if err != nil {
			cl.failed++
		}
		if d.tr != nil {
			at := int64(t0.Sub(d.tr.t0))
			d.tr.leaf(cl.lane, name, d.parent, at, at+int64(took))
		}
	}
	cl.next += d.sz.DirectSegment
	cl.rounds = append(cl.rounds, time.Since(start).Seconds())
}

func (d *direct) run(seconds float64, atSnap func()) timed {
	var atBarrier sync.WaitGroup
	atBarrier.Add(len(d.clients))
	resume := make(chan struct{})
	go func() {
		atBarrier.Wait()
		atSnap()
		close(resume)
	}()
	d.each(func(cl *directClient) {
		busy := 0.0
		for s := 0; s < d.sz.DirectMax && (s < d.sz.DirectSnap || busy < seconds); s++ {
			d.segment(cl)
			busy += cl.rounds[len(cl.rounds)-1]
			if s+1 == d.sz.DirectSnap {
				atBarrier.Done()
				<-resume
			}
		}
	})
	return d.collect()
}

// round runs one segment on every client at once.
func (d *direct) round() (time.Duration, int64, int64, int64, error) {
	var before int64
	for _, cl := range d.clients {
		before += cl.failed
	}
	start := time.Now()
	d.each(d.segment)
	dur := time.Since(start)
	ops := int64(len(d.clients) * d.sz.DirectSegment)
	failed := -before
	for _, cl := range d.clients {
		failed += cl.failed
	}
	return dur, ops * blockSize, ops, failed, nil
}

// collect turns what the clients recorded into the timed region's result.
// Clients run for the same time box, not in lockstep, so each is a lane of
// its own; the per-op latencies follow the same rule as every timing (see
// bestSegment): percentile per segment of the run, best segment reported.
func (d *direct) collect() timed {
	t := timed{extra: map[string]float64{}}
	var lat [2][][]float64
	for _, cl := range d.clients {
		t.lanes = append(t.lanes, cl.rounds)
		t.ops += int64(len(cl.rounds) * d.sz.DirectSegment)
		t.failed += cl.failed
		for k := range lat {
			us := make([]float64, len(cl.lat[k]))
			for i, ns := range cl.lat[k] {
				us[i] = float64(ns) / 1e3
			}
			lat[k] = append(lat[k], us)
		}
	}
	t.bytes = t.ops * blockSize
	best := func(lanes [][]float64, p float64) float64 {
		return bestSegment(lanes, func(pooled []float64) float64 { return percentile(pooled, p) })
	}
	t.extra["write_p50_us"], t.extra["read_p50_us"] = best(lat[0], 50), best(lat[1], 50)
	t.extra["write_p99_us"], t.extra["read_p99_us"] = best(lat[0], 99), best(lat[1], 99)
	return t
}

func (d *direct) exact() (float64, float64) { return spaceRatios(d.dev.Stats()) }

func (d *direct) verify() (int64, error) {
	sh := newShadow(d.sz.DirectBlocks)
	copy(sh, d.fillIDs)
	for _, cl := range d.clients {
		for _, op := range cl.ops[:cl.next] {
			switch op.kind {
			case inlinered.OpWrite:
				sh[op.lba] = op.content
			case inlinered.OpTrim:
				sh[op.lba] = -1
			}
		}
	}
	return sh.readBack(d.cfg.seed, func(lba int64) ([]byte, error) {
		b, _, err := d.dev.Read(lba)
		return b, err
	}), nil
}

// ----------------------------------------------------------------- boot-storm

type bootStorm struct {
	base
	cfg  config
	sz   sizes
	arr  *inlinered.Array
	fill []inlinered.Op
	lbas []int64
	last *inlinered.ReadBatchReport
}

func stormSpec(cfg config) inlinered.BootStormSpec {
	sz := sizesFor(cfg.scale)
	spec := inlinered.DefaultBootStormSpec()
	spec.Clients = sz.StormClients
	spec.ImageBlocks = sz.StormBlocks
	spec.UniqueBlocks = sz.StormBlocks
	spec.ReadsPerClient = sz.StormReads
	spec.Seed = cfg.seed
	return spec
}

// stormOptions is the boot-storm device: sub-block containers so decode
// fans out, and a cache a sixteenth of the image — about a quarter of its
// unique content, so admission decides what stays.
func stormOptions(cfg config, shards int) inlinered.BlockDeviceOptions {
	sz := sizesFor(cfg.scale)
	return inlinered.BlockDeviceOptions{
		Blocks: sz.StormBlocks, Shards: shards, SubBlocks: 4, Parallelism: cfg.workers,
		CacheBytes: sz.StormBlocks * blockSize / 16,
	}
}

func setupBootStorm(cfg config) (instance, error) {
	b := &bootStorm{cfg: cfg, sz: sizesFor(cfg.scale)}
	spec := stormSpec(cfg)
	var err error
	if b.fill, err = spec.Fill(); err != nil {
		return nil, err
	}
	if b.lbas, err = spec.Storm(); err != nil {
		return nil, err
	}
	b.heap0 = liveHeap()
	if b.arr, err = inlinered.NewArray(stormOptions(cfg, cfg.workers)); err != nil {
		return nil, err
	}
	if _, err := b.arr.Serve(b.fill, inlinered.ServeOptions{Clients: cfg.workers, ContentSeed: cfg.seed}); err != nil {
		return nil, err
	}
	for w := 0; w < warmRounds; w++ {
		if _, err := b.arr.ReadBatch(b.lbas, inlinered.ReadBatchOptions{Clients: cfg.workers}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *bootStorm) run(seconds float64, atSnap func()) timed {
	return roundLoop(seconds, b.sz.StormSnap, b.sz.StormMax, atSnap, b.round)
}

func (b *bootStorm) round() (time.Duration, int64, int64, int64, error) {
	start := time.Now()
	rep, err := b.arr.ReadBatch(b.lbas, inlinered.ReadBatchOptions{Clients: b.cfg.workers})
	d := time.Since(start)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	b.last = rep
	return d, int64(len(b.lbas)) * blockSize, int64(len(b.lbas)), rep.Errors, nil
}

func (b *bootStorm) exact() (float64, float64) { return spaceRatios(b.arr.Stats()) }

// verify runs one more storm with a Sink and compares every block it
// delivers with the image the fill installed.
func (b *bootStorm) verify() (int64, error) {
	sh := newShadow(b.sz.StormBlocks)
	sh.apply(b.fill)
	want := map[int32][]byte{}
	for _, c := range sh {
		if _, ok := want[c]; !ok {
			want[c] = payload(nil, b.cfg.seed, c)
		}
	}
	var bad atomic.Int64
	rep, err := b.arr.ReadBatch(b.lbas, inlinered.ReadBatchOptions{
		Clients: b.cfg.workers,
		Sink: func(i int, block []byte, err error) {
			if err != nil || !bytes.Equal(block, want[sh[b.lbas[i]]]) {
				bad.Add(1)
			}
		},
	})
	if err != nil {
		return 0, err
	}
	if int64(rep.Reads) != int64(len(b.lbas)) {
		return 0, fmt.Errorf("storm delivered %d of %d reads", rep.Reads, len(b.lbas))
	}
	return bad.Load(), nil
}

func (b *bootStorm) close() { b.arr.Close() }

// --------------------------------------------------------- cluster-replicated

type clusterRun struct {
	base
	cfg     config
	sz      sizes
	cl      *inlinered.Cluster
	fill    []inlinered.Op
	batches [][]inlinered.Op
	done    int
	faults  inlinered.ClusterFaultCounters // summed over the timed rounds
	scrub   *inlinered.ScrubReport
}

func clusterOps(cfg config) ([]inlinered.Op, error) {
	sz := sizesFor(cfg.scale)
	return inlinered.NewOps(inlinered.ReadMostlyOps((sz.ClusterMax+warmRounds)*sz.ClusterBatch, sz.ClusterBlocks, cfg.seed))
}

func clusterOptions(cfg config, nodes, replicas int) inlinered.BlockDeviceOptions {
	return inlinered.BlockDeviceOptions{
		Blocks: sizesFor(cfg.scale).ClusterBlocks, Shards: 1, Nodes: nodes, Replicas: replicas,
		NodeFaultRate: 0.002, NodeFaultSeed: nodeFaultSeed,
	}
}

func (c *clusterRun) opts() inlinered.ClusterServeOptions {
	return inlinered.ClusterServeOptions{Clients: c.cfg.workers, ContentSeed: c.cfg.seed, CleanEvery: c.sz.ServeClean}
}

func setupCluster(cfg config) (instance, error) {
	c := &clusterRun{cfg: cfg, sz: sizesFor(cfg.scale)}
	ops, err := clusterOps(cfg)
	if err != nil {
		return nil, err
	}
	c.fill, c.batches = splitOps(ops, c.sz.ClusterBlocks, c.sz.ClusterBatch)
	c.heap0 = liveHeap()
	if c.cl, err = inlinered.NewCluster(clusterOptions(cfg, 3, 2)); err != nil {
		return nil, err
	}
	if _, err := c.cl.Serve(c.fill, inlinered.ClusterServeOptions{Clients: cfg.workers, ContentSeed: cfg.seed}); err != nil {
		return nil, err
	}
	for ; c.done < warmRounds; c.done++ {
		if _, err := c.cl.Serve(c.batches[c.done], c.opts()); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *clusterRun) run(seconds float64, atSnap func()) timed {
	return roundLoop(seconds, c.sz.ClusterSnap, c.sz.ClusterMax, atSnap, c.round)
}

func (c *clusterRun) round() (time.Duration, int64, int64, int64, error) {
	batch := c.batches[c.done]
	start := time.Now()
	rep, err := c.cl.Serve(batch, c.opts())
	d := time.Since(start)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	c.done++
	f := rep.Faults
	c.faults.NodeCrashes += f.NodeCrashes
	c.faults.NodeRejoins += f.NodeRejoins
	c.faults.ReadsFallback += f.ReadsFallback
	c.faults.ReadsStale += f.ReadsStale
	c.faults.ReadsUnserved += f.ReadsUnserved
	c.faults.ReadRepairs += f.ReadRepairs
	c.faults.RepairWrites += f.RepairWrites
	return d, int64(len(batch)) * blockSize, int64(len(batch)), rep.Errors + f.ReadsUnserved, nil
}

func (c *clusterRun) exact() (float64, float64) { return spaceRatios(c.cl.Stats()) }

// verify scrubs (divergence injection leaves stale replica copies that no
// read happened to repair; Scrub must heal them without errors) and then
// reads every LBA back through the cluster.
func (c *clusterRun) verify() (int64, error) {
	var err error
	if c.scrub, err = c.cl.Scrub(); err != nil {
		return 0, err
	}
	bad := c.scrub.Errors + c.scrub.Mismatched - c.scrub.Repaired
	sh := newShadow(c.sz.ClusterBlocks)
	sh.apply(c.fill)
	for _, b := range c.batches[:c.done] {
		sh.apply(b)
	}
	return bad + sh.readBack(c.cfg.seed, func(lba int64) ([]byte, error) {
		b, _, err := c.cl.Read(lba)
		return b, err
	}), nil
}

func (c *clusterRun) close() { c.cl.Close() }

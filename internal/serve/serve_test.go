package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"inlinered/internal/fault"
	"inlinered/internal/obs"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// testConfig is a small array config with faults armed, so determinism
// covers the injected-fault streams too.
func testConfig(shards int) Config {
	vc := volume.DefaultConfig()
	vc.Blocks = 4096
	vc.SSD.BlocksPerChannel = 128
	vc.SegmentBytes = 1 << 20
	vc.CacheBytes = 0
	vc.Index.BinBits = 4
	vc.Index.BufferEntries = 4
	vc.Faults = fault.Config{Seed: 42, Rates: fault.Rates{
		fault.SSDWriteTransient: 0.05,
		fault.SSDReadTransient:  0.05,
		fault.SSDLatencySpike:   0.02,
		fault.JournalTorn:       0.05,
	}}
	return Config{Volume: vc, Shards: shards}
}

func testOps(t *testing.T) []workload.Op {
	t.Helper()
	ops, err := workload.ClosedLoop(workload.ClosedLoopSpec{
		Ops:        1200,
		Blocks:     512,
		WriteFrac:  0.5,
		TrimFrac:   0.1,
		DedupRatio: 2.0,
		Hotspot:    0.2,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestServeOneShardMatchesRawVolume proves the 1-shard array is the raw
// volume: same routing (identity), same seed, same clock, same stats —
// through the direct API, then through batch Serve.
func TestServeOneShardMatchesRawVolume(t *testing.T) {
	cfg := testConfig(1)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := volume.New(cfg.Volume)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range testOps(t) {
		switch op.Kind {
		case workload.OpWrite:
			data := workload.UniqueChunk(9, op.Content, cfg.Volume.BlockSize, 0.5)
			a.Write(op.LBA, data)
			v.Write(op.LBA, data)
		case workload.OpRead:
			a.Read(op.LBA)
			v.Read(op.LBA)
		case workload.OpTrim:
			a.Trim(op.LBA)
			v.Trim(op.LBA)
		}
	}
	if a.Now() != v.Now() {
		t.Fatalf("1-shard clock %v != raw volume clock %v", a.Now(), v.Now())
	}
	if !reflect.DeepEqual(a.Stats(), v.Stats()) {
		t.Fatalf("1-shard stats diverged from raw volume:\n%+v\n%+v", a.Stats(), v.Stats())
	}

	// The batch leg: Serve with a clean cadence and a recorder against the
	// raw volume's per-op loop cleaning at the same cadence — a one-volume
	// replay IS Serve on one shard, down to the trace bytes.
	const cleanEvery = 256
	cfg.Volume.SegmentBytes = 64 << 10 // small segments, so the cleaner has work
	recA, recV := obs.NewRecorder(), obs.NewRecorder()
	cfg.Volume.Obs = recA
	if a, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	vc := cfg.Volume
	vc.Obs = recV
	if v, err = volume.New(vc); err != nil {
		t.Fatal(err)
	}
	ops := testOps(t)
	rep, err := a.Serve(ops, RunOptions{ContentSeed: 9, CleanEvery: cleanEvery})
	if err != nil {
		t.Fatal(err)
	}
	var cleaned int
	for k, op := range ops {
		switch op.Kind {
		case workload.OpWrite:
			v.Write(op.LBA, workload.UniqueChunk(9, op.Content, vc.BlockSize, 0.5))
		case workload.OpRead:
			v.Read(op.LBA)
		case workload.OpTrim:
			v.Trim(op.LBA)
		}
		if (k+1)%cleanEvery == 0 {
			n, _ := v.Clean()
			cleaned += n
		}
	}
	if rep.Cleaned == 0 || rep.Cleaned != cleaned {
		t.Fatalf("Serve cleaned %d segments, the per-op loop %d (want equal, non-zero)", rep.Cleaned, cleaned)
	}
	if a.Now() != v.Now() || rep.Elapsed != v.Now() {
		t.Fatalf("batch clock %v (elapsed %v) != raw volume clock %v", a.Now(), rep.Elapsed, v.Now())
	}
	if !reflect.DeepEqual(rep.Merged, v.Stats()) {
		t.Fatalf("batch stats diverged from raw volume:\n%+v\n%+v", rep.Merged, v.Stats())
	}
	var traceA, traceV bytes.Buffer
	if err := recA.WriteTrace(&traceA); err != nil {
		t.Fatal(err)
	}
	if err := recV.WriteTrace(&traceV); err != nil {
		t.Fatal(err)
	}
	if traceA.Len() == 0 || !bytes.Equal(traceA.Bytes(), traceV.Bytes()) {
		t.Fatalf("trace bytes differ: Serve %d bytes, per-op loop %d", traceA.Len(), traceV.Len())
	}
}

// TestServeShardCountChangesCapacityNotCorrectness: every written block
// reads back byte-identical regardless of shard count.
func TestServeRoundTripAcrossShardCounts(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		cfg := testConfig(shards)
		cfg.Volume.Faults = fault.Config{} // clean media for exact round trips
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 257 // not a multiple of any shard count above
		for i := int64(0); i < n; i++ {
			data := workload.UniqueChunk(1, int32(i%40), cfg.Volume.BlockSize, 0.5)
			if _, err := a.Write(i, data); err != nil {
				t.Fatalf("shards=%d write %d: %v", shards, i, err)
			}
		}
		for i := int64(0); i < n; i++ {
			want := workload.UniqueChunk(1, int32(i%40), cfg.Volume.BlockSize, 0.5)
			got, _, err := a.Read(i)
			if err != nil {
				t.Fatalf("shards=%d read %d: %v", shards, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("shards=%d lba %d: round trip mismatch", shards, i)
			}
		}
		if st := a.Stats(); st.Writes != n || st.Reads != n {
			t.Fatalf("shards=%d merged counts: %+v", shards, st)
		}
		// Out-of-range LBAs are rejected at the front door.
		if _, err := a.Write(cfg.Volume.Blocks, make([]byte, cfg.Volume.BlockSize)); err == nil {
			t.Fatal("out-of-range write accepted")
		}
	}
}

// TestServeConcurrentDirectAPI hammers the direct (non-batch) API from 16
// goroutines over 8 shards — the configuration CI runs under -race — and
// verifies every goroutine's blocks read back correctly. Direct calls are
// goroutine-safe; they just don't promise cross-run bit-identity.
func TestServeConcurrentDirectAPI(t *testing.T) {
	const (
		shards     = 8
		goroutines = 16
		perG       = 64
	)
	cfg := testConfig(shards)
	cfg.Volume.Faults = fault.Config{}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Disjoint LBA range per goroutine; the ranges still stripe
			// across all shards, so shard mutexes are genuinely contended.
			base := int64(g * perG)
			for i := int64(0); i < perG; i++ {
				lba := base + i
				data := workload.UniqueChunk(3, int32(lba), cfg.Volume.BlockSize, 0.5)
				if _, err := a.Write(lba, data); err != nil {
					errs <- fmt.Errorf("g%d write %d: %v", g, lba, err)
					return
				}
			}
			for i := int64(0); i < perG; i++ {
				lba := base + i
				got, _, err := a.Read(lba)
				if err != nil {
					errs <- fmt.Errorf("g%d read %d: %v", g, lba, err)
					return
				}
				if !bytes.Equal(got, workload.UniqueChunk(3, int32(lba), cfg.Volume.BlockSize, 0.5)) {
					errs <- fmt.Errorf("g%d lba %d: corrupted", g, lba)
					return
				}
			}
			if _, err := a.Trim(base); err != nil {
				errs <- fmt.Errorf("g%d trim: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := a.Stats()
	if st.Writes != goroutines*perG || st.Reads != goroutines*perG || st.Trims != goroutines {
		t.Fatalf("merged counts under concurrency: %+v", st)
	}
	if st.WriteLat.Count != st.Writes || st.ReadLat.Count != st.Reads {
		t.Fatalf("histogram counts drifted under concurrency: %+v", st)
	}
}

// TestServeConcurrentBatch runs the batch path under -race with many more
// clients than shards (workers must exit cleanly when queues run out).
func TestServeConcurrentBatch(t *testing.T) {
	a, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Serve(testOps(t), RunOptions{Clients: 16, ContentSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 1200+512 || rep.Shards != 4 {
		t.Fatalf("report shape: %+v", rep)
	}
	var perOps int
	for _, sr := range rep.PerShard {
		perOps += sr.Ops
	}
	if perOps != rep.Ops {
		t.Fatalf("per-shard ops %d != total %d", perOps, rep.Ops)
	}
	if rep.Merged.Writes+rep.Merged.Reads+rep.Merged.Trims != int64(rep.Ops) {
		t.Fatalf("merged op counts don't cover the batch: %+v", rep.Merged)
	}
}

// TestServeScratchReuseBitIdentical proves buffer reuse is invisible: a
// Serve that reuses the warm scratch, a Serve whose scratch is cold, and a
// Serve forced onto the fallback-allocation path (scratch held by someone
// else, as during a concurrent Serve) all produce bit-identical reports
// from identical array states.
func TestServeScratchReuseBitIdentical(t *testing.T) {
	ops := testOps(t)
	mk := func() *Array {
		a, err := New(testConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	run := func(a *Array) []byte {
		rep, err := a.Serve(ops, RunOptions{Clients: 3, ContentSeed: 9, CleanEvery: 100})
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	warm, fallback := mk(), mk()
	first := run(warm) // cold scratch
	// Take the pooled partition away, as a concurrent Serve would.
	held := opPartitions.Get()
	firstFB := run(fallback) // fallback allocations
	opPartitions.Put(held)
	if !bytes.Equal(first, firstFB) {
		t.Fatal("fallback-allocation Serve diverged from scratch Serve")
	}
	// Same state on both arrays now; second round exercises warm scratch vs
	// cold scratch.
	second := run(warm)       // warm scratch (reused queues, backing, per)
	secondFB := run(fallback) // cold scratch
	if !bytes.Equal(second, secondFB) {
		t.Fatal("warm-scratch Serve diverged from cold-scratch Serve")
	}
	if bytes.Equal(first, second) {
		t.Fatal("second batch should differ from the first (state advanced); test is vacuous")
	}
}

// TestServeBatchMatchesDirect: the batch path's reused payload and read
// buffers must leave the virtual clock and stats exactly where per-op
// direct calls with freshly allocated buffers leave them.
func TestServeBatchMatchesDirect(t *testing.T) {
	ops := testOps(t)
	cfg := testConfig(1)
	batch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := volume.New(cfg.Volume)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := batch.Serve(ops, RunOptions{ContentSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		switch op.Kind {
		case workload.OpWrite:
			direct.Write(op.LBA, workload.UniqueChunk(9, op.Content, cfg.Volume.BlockSize, 0.5))
		case workload.OpRead:
			direct.Read(op.LBA)
		case workload.OpTrim:
			direct.Trim(op.LBA)
		}
	}
	if rep.Elapsed != direct.Now() {
		t.Fatalf("batch clock %v != direct clock %v", rep.Elapsed, direct.Now())
	}
	if !reflect.DeepEqual(rep.Merged, direct.Stats()) {
		t.Fatalf("batch stats diverged from direct:\n%+v\n%+v", rep.Merged, direct.Stats())
	}
}

// TestServeReadAllocCeiling guards the zero-alloc read path: once the
// shard's read buffer and the Serve scratch are warm, a read-only batch
// must stay under a small per-op allocation budget (reads decompress into
// the reused buffer; only per-Serve bookkeeping may allocate).
func TestServeReadAllocCeiling(t *testing.T) {
	cfg := testConfig(1)
	cfg.Volume.Faults = fault.Config{} // deterministic media, no retries
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 64
	for i := int64(0); i < blocks; i++ {
		data := workload.UniqueChunk(5, int32(i), cfg.Volume.BlockSize, 0.5)
		if _, err := a.Write(i, data); err != nil {
			t.Fatal(err)
		}
	}
	reads := make([]workload.Op, 512)
	for i := range reads {
		reads[i] = workload.Op{Kind: workload.OpRead, LBA: int64(i % blocks)}
	}
	serve := func() {
		if _, err := a.Serve(reads, RunOptions{Clients: 1}); err != nil {
			t.Fatal(err)
		}
	}
	serve() // warm the scratch and the shard's read buffer
	allocs := testing.AllocsPerRun(5, serve)
	// Budget: well under one allocation per op. The old path allocated the
	// decode output plus decode-time growth for every read (several/op).
	if perOp := allocs / float64(len(reads)); perOp > 0.25 {
		t.Fatalf("read path allocates %.2f objects/op after warm-up (%.0f total), want <= 0.25", perOp, allocs)
	}
}

// TestServeConfigValidation rejects bad shapes at construction.
func TestServeConfigValidation(t *testing.T) {
	bad := []Config{
		func() Config { c := testConfig(1); c.Shards = -1; return c }(),
		func() Config { c := testConfig(2); c.Volume.Blocks = 1; return c }(),
		func() Config { c := testConfig(2); c.Volume.Obs = obs.NewRecorder(); return c }(),
		func() Config { c := testConfig(1); c.Volume.BlockSize = 8; return c }(),
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	// A batch is validated whole before any op runs (workload.CheckOps).
	a, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []workload.Op{{Kind: 'X'}, {Kind: workload.OpWrite, LBA: 1 << 40, Content: 1}, {Kind: workload.OpRead, LBA: -1}} {
		if _, err := a.Serve([]workload.Op{{Kind: workload.OpWrite, LBA: 0, Content: 1}, op}, RunOptions{}); err == nil {
			t.Errorf("batch with %+v accepted", op)
		}
	}
	if st := a.Stats(); st.Writes != 0 {
		t.Errorf("a rejected batch ran %d writes", st.Writes)
	}
}

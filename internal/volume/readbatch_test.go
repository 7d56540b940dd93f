package volume

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"inlinered/internal/fault"
	"inlinered/internal/lz"
	"inlinered/internal/parallel"
)

// subConfig is smallConfig with the indexed sub-block write path on, so
// batch reads decode the containers the GPU kernel's format writes.
func subConfig() Config {
	cfg := smallConfig()
	cfg.SubBlocks = 4
	return cfg
}

// fillVolume writes n deterministic blocks (with some duplicates to
// exercise dedup-shared fingerprints) and returns the written images.
func fillVolume(t *testing.T, v *Volume, n int) [][]byte {
	t.Helper()
	blocks := make([][]byte, n)
	for i := 0; i < n; i++ {
		data := block(i % (n * 3 / 4)) // last quarter duplicates earlier content
		if _, err := v.Write(int64(i), data); err != nil {
			t.Fatal(err)
		}
		blocks[i] = data
	}
	return blocks
}

// stormLBAs is a deterministic boot-storm-ish request stream: repeated
// sweeps over a hot set plus some unmapped holes.
func stormLBAs(n int64, reads int) []int64 {
	lbas := make([]int64, reads)
	for i := range lbas {
		switch {
		case i%17 == 0:
			lbas[i] = n + int64(i%7) // unmapped hole
		default:
			lbas[i] = int64((i * 13) % int(n))
		}
	}
	return lbas
}

// TestReadBatchMatchesSerial: on a healthy volume, one ReadBatch must be
// indistinguishable from the same reads issued serially — same bytes, same
// per-request latencies, same final clock, stats, and histogram summary.
func TestReadBatchMatchesSerial(t *testing.T) {
	for _, sub := range []int{0, 4} {
		t.Run(fmt.Sprintf("subblocks=%d", sub), func(t *testing.T) {
			cfg := smallConfig()
			cfg.SubBlocks = sub
			vs := newVolume(t, cfg)
			vb := newVolume(t, cfg)
			fillVolume(t, vs, 64)
			fillVolume(t, vb, 64)
			lbas := stormLBAs(64, 200)

			type res struct {
				data []byte
				lat  int64
			}
			serial := make([]res, len(lbas))
			var buf []byte
			for i, lba := range lbas {
				out, lat, err := vs.ReadInto(buf[:0], lba)
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = res{data: append([]byte(nil), out...), lat: int64(lat)}
				buf = out
			}

			b, err := vb.ReadBatch(nil, lbas, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := b.Totals().Reads; n != len(lbas) {
				t.Fatalf("batch len %d, want %d", n, len(lbas))
			}
			for i := range lbas {
				if err := b.Err(i); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !bytes.Equal(b.Block(i), serial[i].data) {
					t.Fatalf("read %d (lba %d): batch bytes diverge from serial", i, lbas[i])
				}
				if int64(b.Latency(i)) != serial[i].lat {
					t.Fatalf("read %d (lba %d): batch latency %v, serial %v",
						i, lbas[i], b.Latency(i), serial[i].lat)
				}
			}
			if vs.Now() != vb.Now() {
				t.Fatalf("clock diverged: serial %v, batch %v", vs.Now(), vb.Now())
			}
			ss, bs := vs.Stats(), vb.Stats()
			if ss != bs {
				t.Fatalf("stats diverged:\nserial %+v\nbatch  %+v", ss, bs)
			}
		})
	}
}

// TestReadBatchDeterministicAcrossWorkers: the committed batch (bytes,
// latencies, stats) must be bit-identical whether the decode phase runs
// inline or fanned out over any pool size.
func TestReadBatchDeterministicAcrossWorkers(t *testing.T) {
	lbas := stormLBAs(64, 300)
	var ref *Volume
	var refB *ReadBatch
	for _, workers := range []int{0, 1, 2, 4, 8} {
		v := newVolume(t, subConfig())
		fillVolume(t, v, 64)
		var pool *parallel.Pool
		if workers > 0 {
			pool = parallel.New(workers)
		}
		b, err := v.ReadBatch(nil, lbas, pool)
		if pool != nil {
			pool.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refB = v, b
			continue
		}
		for i := range lbas {
			if !bytes.Equal(b.Block(i), refB.Block(i)) {
				t.Fatalf("workers=%d: read %d bytes diverge", workers, i)
			}
			if b.Latency(i) != refB.Latency(i) {
				t.Fatalf("workers=%d: read %d latency diverges", workers, i)
			}
		}
		if v.Now() != ref.Now() {
			t.Fatalf("workers=%d: clock diverged", workers)
		}
		if v.Stats() != ref.Stats() {
			t.Fatalf("workers=%d: stats diverged", workers)
		}
	}
}

// TestReadBatchReuse: recycling one batch across many calls must not leak
// state between batches.
func TestReadBatchReuse(t *testing.T) {
	v := newVolume(t, subConfig())
	blocks := fillVolume(t, v, 32)
	var b *ReadBatch
	var err error
	for round := 0; round < 4; round++ {
		lbas := stormLBAs(32, 50+round*37)
		b, err = v.ReadBatch(b, lbas, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, lba := range lbas {
			if err := b.Err(i); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, v.cfg.BlockSize)
			if lba < 32 {
				want = blocks[lba]
			}
			if !bytes.Equal(b.Block(i), want) {
				t.Fatalf("round %d read %d (lba %d): bytes diverge", round, i, lba)
			}
		}
	}
}

// TestReadBatchReuseIndexedThenRaw: recycled item slots must not leak one
// batch's decode into the next. Batch 1 decodes an indexed container whose
// later parts match into earlier lanes' output; batch 2 reuses the same
// ReadBatch to read raw-fallback blobs through those slots.
func TestReadBatchReuseIndexedThenRaw(t *testing.T) {
	v := newVolume(t, subConfig())
	bs := v.cfg.BlockSize

	// lba 0: short repeating pattern — the indexed container's later parts
	// encode matches reaching into earlier lanes' output.
	indexed := bytes.Repeat([]byte{0x10, 0x33, 0x52, 0x71, 0x9c, 0xbe, 0xd4, 0xf7}, bs/8)
	// lbas 1, 2: incompressible content stores as raw blobs, decoded by
	// items that recycle batch 1's slot.
	rng := rand.New(rand.NewSource(7))
	raw1, raw2 := make([]byte, bs), make([]byte, bs)
	rng.Read(raw1)
	rng.Read(raw2)
	for lba, data := range map[int64][]byte{0: indexed, 1: raw1, 2: raw2} {
		if _, err := v.Write(lba, data); err != nil {
			t.Fatal(err)
		}
	}

	b, err := v.ReadBatch(nil, []int64{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Err(0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Block(0), indexed) {
		t.Fatal("indexed read returned wrong bytes")
	}

	b, err = v.ReadBatch(b, []int64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]byte{raw1, raw2} {
		if err := b.Err(i); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Block(i), want) {
			t.Fatalf("raw read %d corrupted by state left from the previous batch", i)
		}
	}
}

// TestReadBatchItemsAnyOrder: each item owns its whole blob — decode and
// cache fill — so the order items run in cannot show. Over indexed, raw and single-stream blobs, a corrupt
// boundary table, a corrupt token in one part and pending hits on a healthy
// and on each corrupt blob, running the items in order, reversed and in a
// seeded permutation leaves identical blocks, errors, totals, stats and
// cache contents — and the same blocks and failing reads as serial ReadInto
// on a twin volume.
func TestReadBatchItemsAnyOrder(t *testing.T) {
	bs := smallConfig().BlockSize
	build := func() *Volume {
		v := newVolume(t, subConfig())
		rng := rand.New(rand.NewSource(3))
		for lba := int64(0); lba < 12; lba++ {
			data := block(int(lba))
			switch {
			case lba == 8 || lba == 9: // incompressible: the raw fallback
				data = make([]byte, bs)
				rng.Read(data)
			case lba == 10:
				v.enc.Sub = lz.SubBlockParams{} // single-stream codec from here on
			}
			if _, err := v.Write(lba, data); err != nil {
				t.Fatal(err)
			}
		}
		for lba, mode := range map[int64]byte{0: lz.ModeSubIdx, 8: lz.ModeRaw, 10: lz.ModeLZSS} {
			if got := v.chunks[v.lbaMap[lba]].blob[0]; got != mode {
				t.Fatalf("lba %d stored as mode %d, want %d", lba, got, mode)
			}
		}
		// lba 2: the header claims 4095 bytes, the table's parts sum to 4096.
		copy(v.chunks[v.lbaMap[2]].blob[1:3], []byte{0xFF, 0x1F})
		if _, err := lz.ResolveSubBlocks(new(lz.SubLayout), v.chunks[v.lbaMap[2]].blob); err == nil {
			t.Fatal("lba 2's boundary table still parses")
		}
		// lba 5: part 0 opens with a match, which has no history to copy from.
		var lay lz.SubLayout
		if _, err := lz.ResolveSubBlocks(&lay, v.chunks[v.lbaMap[5]].blob); err != nil {
			t.Fatal(err)
		}
		lay.Parts[0].Tokens[0] = 0x01
		return v
	}
	// Misses of every kind, a pending hit on a healthy, a corrupt-table and a
	// corrupt-token blob, and an unmapped read.
	lbas := []int64{0, 1, 2, 3, 5, 8, 9, 10, 11, 0, 2, 4000, 5}

	type outcome struct {
		blocks [][]byte
		errs   []string
		totals ReadTotals
		stats  Stats
		cache  [][]byte // fingerprint + bytes of each entry, protected then probation, MRU first
	}
	run := func(order func(n int) []int) outcome {
		v := build()
		b := &ReadBatch{v: v}
		if err := b.Plan(lbas); err != nil {
			t.Fatal(err)
		}
		if b.Items() != b.DecodedBlobs() {
			t.Fatalf("%d items for %d blobs", b.Items(), b.DecodedBlobs())
		}
		for _, j := range order(b.Items()) {
			b.RunItem(j)
		}
		b.Commit()
		var o outcome
		for i := range lbas {
			o.blocks = append(o.blocks, append([]byte(nil), b.Block(i)...))
			o.errs = append(o.errs, fmt.Sprint(b.Err(i)))
		}
		o.totals, o.stats = b.Totals(), v.Stats()
		for _, l := range []cacheList{v.cache.prot, v.cache.prob} {
			for e := l.head; e != nil; e = e.next {
				o.cache = append(o.cache, append(e.fp[:len(e.fp):len(e.fp)], e.data...))
			}
		}
		return o
	}
	inOrder := run(func(n int) []int {
		o := make([]int, n)
		for i := range o {
			o[i] = i
		}
		return o
	})
	// Three healthy indexed blobs, the corrupt-token and the corrupt-table
	// ones, two raw and two single-stream blobs.
	if tt := inOrder.totals; tt.DecodedBlobs != 9 || tt.Errors != 4 || tt.CacheHits != 3 {
		t.Fatalf("scenario drifted: %+v", tt)
	}
	for name, order := range map[string]func(n int) []int{
		"reversed": func(n int) []int {
			o := make([]int, n)
			for i := range o {
				o[i] = n - 1 - i
			}
			return o
		},
		"permuted": func(n int) []int { return rand.New(rand.NewSource(42)).Perm(n) },
	} {
		if got := run(order); !reflect.DeepEqual(got, inOrder) {
			t.Errorf("%s: items run out of order changed the batch:\n%+v\n%+v", name, got.totals, inOrder.totals)
		}
	}

	twin := build()
	for i, lba := range lbas {
		out, _, err := twin.ReadInto(nil, lba)
		if failed := inOrder.errs[i] != "<nil>"; failed != (err != nil) {
			t.Fatalf("read %d (lba %d): batch failed %v, serial error %v", i, lba, failed, err)
		}
		if err == nil && !bytes.Equal(out, inOrder.blocks[i]) {
			t.Fatalf("read %d (lba %d): batch bytes diverge from serial", i, lba)
		}
	}
}

// TestReadBatchDriveError: a failed SSD read inside a batch follows the
// serial error-path accounting contract (time committed, read counted) and
// only fails its own request.
func TestReadBatchDriveError(t *testing.T) {
	v := newVolume(t, subConfig())
	fillVolume(t, v, 16)
	// Rate-1 transient read errors exhaust the bounded retries, surfacing
	// as permanent failures.
	armFaults(v, fault.Config{Seed: 11, Rates: fault.Rates{fault.SSDReadTransient: 1}})
	before := v.Stats()
	lbas := []int64{0, 1, 2}
	b, err := v.ReadBatch(nil, lbas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Errors() != len(lbas) {
		t.Fatalf("errors = %d, want %d (every uncached read hits the drive)", b.Errors(), len(lbas))
	}
	st := v.Stats()
	if st.Reads != before.Reads+int64(len(lbas)) {
		t.Fatalf("failed batch reads missing from Stats.Reads: %d -> %d", before.Reads, st.Reads)
	}
	if st.ReadLat.Count != before.ReadLat.Count+int64(len(lbas)) {
		t.Fatalf("failed batch reads missing from the histogram")
	}
	// The volume still serves the blocks once the fault clears.
	disarmFaults(v)
	b, err = v.ReadBatch(b, lbas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Errors() != 0 {
		t.Fatalf("reads still failing after faults cleared: %d", b.Errors())
	}
}

// TestReadBatchCorruptBlob: a blob corrupted in the store fails its read at
// commit, never populates the cache with garbage, and leaves the other
// reads in the batch intact.
func TestReadBatchCorruptBlob(t *testing.T) {
	v := newVolume(t, subConfig())
	blocks := fillVolume(t, v, 8)
	// Corrupt lba 2's stored blob in place (flip a token byte, keeping the
	// container header plausible).
	fp := v.lbaMap[2]
	blob := v.chunks[fp].blob
	blob[len(blob)-1] ^= 0xFF
	lbas := []int64{0, 2, 1, 2}
	b, err := v.ReadBatch(nil, lbas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Err(1) == nil || b.Err(3) == nil {
		t.Fatal("corrupt blob must fail both reads that need it")
	}
	if b.Err(0) != nil || b.Err(2) != nil {
		t.Fatalf("healthy reads failed: %v / %v", b.Err(0), b.Err(2))
	}
	if !bytes.Equal(b.Block(0), blocks[0]) || !bytes.Equal(b.Block(2), blocks[1]) {
		t.Fatal("healthy reads corrupted by a failing neighbour")
	}
	// The reserved cache slot must have been removed: a retry decodes from
	// the store again and fails again (it must NOT hit a garbage entry).
	b, err = v.ReadBatch(b, []int64{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Err(0) == nil {
		t.Fatal("corrupt blob served from cache after a failed decode")
	}
}

// TestReadBatchTotals: Totals() is the batch's whole accounting — the four
// cache counters as deltas of the volume's, the clock the plan advanced, and
// the read / error / decode counts — over a miss, a pending hit on the entry
// that miss reserved, an unmapped read, a plain hit and a drive error.
func TestReadBatchTotals(t *testing.T) {
	v := newVolume(t, subConfig())
	fillVolume(t, v, 16)
	var b *ReadBatch
	run := func(lbas ...int64) ReadTotals {
		t.Helper()
		before, start := v.Stats(), v.Now()
		var err error
		if b, err = v.ReadBatch(b, lbas, nil); err != nil {
			t.Fatal(err)
		}
		st, got := v.Stats(), b.Totals()
		want := ReadTotals{
			Reads: len(lbas), Errors: int64(b.Errors()), DecodedBlobs: int64(b.DecodedBlobs()),
			CacheCounters: CacheCounters{
				CacheHits: st.CacheHits - before.CacheHits, CacheMisses: st.CacheMisses - before.CacheMisses,
				CacheAdmissions: st.CacheAdmissions - before.CacheAdmissions,
				CacheGhostHits:  st.CacheGhostHits - before.CacheGhostHits,
			},
			Elapsed: v.Now() - start,
		}
		if got != want {
			t.Fatalf("Totals() = %+v, the volume's own deltas say %+v", got, want)
		}
		return got
	}
	cold := run(0, 0, 4000, 1) // miss, pending hit, unmapped, miss
	if cold.Reads != 4 || cold.CacheHits != 1 || cold.CacheMisses != 2 || cold.DecodedBlobs != 2 ||
		cold.Errors != 0 || cold.Elapsed <= 0 {
		t.Fatalf("cold batch: %+v", cold)
	}
	if warm := run(0); warm.CacheHits != 1 || warm.CacheMisses != 0 || warm.DecodedBlobs != 0 || warm.HitRate() != 1 {
		t.Fatalf("warm batch: %+v", warm)
	}
	armFaults(v, fault.Config{Seed: 11, Rates: fault.Rates{fault.SSDReadTransient: 1}})
	if failed := run(2, 4001); failed.Reads != 2 || failed.Errors != 1 || failed.CacheMisses != 1 || failed.DecodedBlobs != 0 {
		t.Fatalf("batch with a drive error: %+v", failed)
	}
	var sum ReadTotals
	sum.Add(cold)
	sum.Add(ReadTotals{Reads: 1, Elapsed: cold.Elapsed + 1})
	if sum.Reads != 5 || sum.CacheHits != cold.CacheHits || sum.Elapsed != cold.Elapsed+1 {
		t.Fatalf("Add: counters must sum and Elapsed be the slowest child's: %+v", sum)
	}
}

// TestReadBatchAliasedBuffersNotReused: a batch's blocks alias the cache
// entries its hits found and its misses decoded into, and this storm's
// misses cycle an 8-entry cache dozens of times inside the one batch,
// evicting entries that earlier reads of the batch still alias. Every block
// must still equal the serial ReadInto bytes after Commit: a buffer a live
// batch may alias is never handed to another fingerprint.
func TestReadBatchAliasedBuffersNotReused(t *testing.T) {
	cfg := subConfig()
	cfg.CacheBytes = 8 * int64(cfg.BlockSize)
	vs, vb := newVolume(t, cfg), newVolume(t, cfg)
	fillVolume(t, vs, 64)
	fillVolume(t, vb, 64)
	rng := rand.New(rand.NewSource(5))
	lbas := make([]int64, 600)
	for i := range lbas {
		lbas[i] = int64(rng.Intn(64))
		if i%5 == 4 {
			lbas[i] = lbas[i-1] // a pending hit, or a hit on the entry just reserved
		}
	}
	pool := parallel.New(2)
	defer pool.Close()
	b, err := vb.ReadBatch(nil, lbas, pool)
	if err != nil {
		t.Fatal(err)
	}
	if tt := b.Totals(); tt.CacheHits < 100 || tt.DecodedBlobs < 4*8 {
		t.Fatalf("storm does not cycle the cache under aliased hits: %+v", tt)
	}
	for i, lba := range lbas {
		want, _, err := vs.ReadInto(nil, lba)
		if err != nil || b.Err(i) != nil {
			t.Fatalf("read %d: serial %v, batch %v", i, err, b.Err(i))
		}
		if !bytes.Equal(b.Block(i), want) {
			t.Fatalf("read %d (lba %d): an aliased buffer was refilled with another block", i, lba)
		}
	}
}

// TestReadBatchUnreleasedBoundsCacheBuffers: a batch nobody releases keeps
// its lease for good. That may stop the cache reusing the buffers it
// evicts, but never grows memory: over 1,000 forgotten batches the buffers
// the cache owns — resident, free and retired — stay within its capacity
// in blocks plus the largest batch planned, and the heap after a GC stays
// flat.
func TestReadBatchUnreleasedBoundsCacheBuffers(t *testing.T) {
	cfg := subConfig()
	cfg.CacheBytes = 8 * int64(cfg.BlockSize)
	v := newVolume(t, cfg)
	fillVolume(t, v, 64)
	lbas := stormLBAs(64, 100)
	bound := 8 + len(lbas)
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var base int64
	for i := 0; i < 1000; i++ {
		if _, err := v.ReadBatch(nil, lbas, nil); err != nil {
			t.Fatal(err)
		}
		if owned := v.cache.len() + len(v.cache.bufs) + len(v.cache.retired); owned > bound {
			t.Fatalf("batch %d: the cache owns %d buffers, bound %d", i, owned, bound)
		}
		if i == 99 {
			base = heap()
		}
	}
	if len(v.cache.retired) == 0 {
		t.Fatal("forgotten leases retired nothing: the test no longer exercises the bound")
	}
	if grew := heap() - base; grew > 256<<10 {
		t.Fatalf("heap grew %d bytes over 900 unreleased batches", grew)
	}
}

// TestReadBatchDecodesEachBlobOnce: with a two-block cache, the reads
// A B C A B C A evict every slot before its fingerprint comes round again,
// so the batch charges a decode per read but runs one item per blob. The
// repeats must still read as N serial ReadInto calls — same bytes, errors,
// totals and stats, in any item order — and a repeat's own slot must hold
// its block for later hits. With the cache off the repeats alias the first
// read's bytes. A corrupt blob fails every read of it with the serial error
// and leaves no entry behind; its cache counters are the batch's own (its
// slots stay reserved until Commit, see ReadBatch), but still independent
// of item order.
func TestReadBatchDecodesEachBlobOnce(t *testing.T) {
	lbas := []int64{0, 1, 2, 0, 1, 2, 0}
	for _, tc := range []struct {
		name        string
		cacheBlocks int64
		corrupt     bool
	}{{"cache", 2, false}, {"no-cache", 0, false}, {"corrupt", 2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Volume {
				cfg := subConfig()
				cfg.CacheBytes = tc.cacheBlocks * int64(cfg.BlockSize)
				v := newVolume(t, cfg)
				for lba := int64(0); lba < 3; lba++ {
					if _, err := v.Write(lba, block(int(lba))); err != nil {
						t.Fatal(err)
					}
				}
				if blob := v.chunks[v.lbaMap[1]].blob; tc.corrupt {
					blob[len(blob)-1] ^= 0xFF
				}
				return v
			}
			type outcome struct {
				blocks [][]byte
				errs   []string
				totals ReadTotals
				stats  Stats
			}
			run := func(order func(n int) []int) (outcome, *Volume, *ReadBatch) {
				v := build()
				b := v.NewReadBatch()
				if err := b.Plan(lbas); err != nil {
					t.Fatal(err)
				}
				if b.Items() != 3 || b.DecodedBlobs() != len(lbas) {
					t.Fatalf("%d items for %d decodes charged, want 3 for %d", b.Items(), b.DecodedBlobs(), len(lbas))
				}
				for _, i := range order(b.Items()) {
					b.RunItem(i)
				}
				b.Commit()
				var o outcome
				for i := range lbas {
					o.blocks = append(o.blocks, append([]byte(nil), b.Block(i)...))
					o.errs = append(o.errs, fmt.Sprint(b.Err(i)))
				}
				o.totals, o.stats = b.Totals(), v.Stats()
				return o, v, b
			}
			inOrder, v, b := run(func(n int) []int {
				o := make([]int, n)
				for i := range o {
					o[i] = i
				}
				return o
			})
			defer b.Release()
			for name, order := range map[string]func(n int) []int{
				"reversed": func(n int) []int { return []int{2, 1, 0}[:n] },
				"permuted": func(n int) []int { return rand.New(rand.NewSource(42)).Perm(n) },
			} {
				got, _, gb := run(order)
				gb.Release()
				if !reflect.DeepEqual(got, inOrder) {
					t.Errorf("%s: items run out of order changed the batch:\n%+v\n%+v", name, got.totals, inOrder.totals)
				}
			}

			twin := build()
			want := ReadTotals{Reads: len(lbas), DecodedBlobs: int64(len(lbas))}
			start := twin.Now()
			for i, lba := range lbas {
				out, _, err := twin.ReadInto(nil, lba)
				if got := inOrder.errs[i]; got != fmt.Sprint(err) {
					t.Fatalf("read %d (lba %d): batch error %s, serial %v", i, lba, got, err)
				}
				if err != nil {
					want.Errors++
				} else if !bytes.Equal(out, inOrder.blocks[i]) {
					t.Fatalf("read %d (lba %d): batch bytes diverge from serial", i, lba)
				}
			}
			st := twin.Stats()
			want.CacheHits, want.CacheMisses = st.CacheHits, st.CacheMisses
			want.CacheAdmissions, want.CacheGhostHits = st.CacheAdmissions, st.CacheGhostHits
			want.Elapsed = twin.Now() - start
			if tc.corrupt {
				if inOrder.totals.Errors != 2 || want.Errors != 2 {
					t.Fatalf("%d reads failed, want both reads of the corrupt blob", want.Errors)
				}
				if _, ok := v.cache.byFP[v.lbaMap[1]]; ok {
					t.Fatal("a garbage entry for the corrupt blob survived Commit")
				}
			} else {
				if inOrder.totals != want {
					t.Fatalf("Totals() = %+v, serial twin %+v", inOrder.totals, want)
				}
				if !reflect.DeepEqual(inOrder.stats, st) {
					t.Fatalf("stats diverge from serial:\n%+v\n%+v", inOrder.stats, st)
				}
			}

			if tc.cacheBlocks == 0 {
				for i := 3; i < len(lbas); i++ {
					if &b.Block(i)[0] != &b.Block(i % 3)[0] {
						t.Fatalf("uncached repeat %d does not alias its first read's bytes", i)
					}
				}
				return
			}

			// Every entry left in the cache is a slot the batch reserved for
			// a repeat and filled by a copy; a batch of hits must read it back.
			var hot []int64
			for _, l := range []cacheList{v.cache.prot, v.cache.prob} {
				for e := l.head; e != nil; e = e.next {
					first := slices.IndexFunc(lbas, func(lba int64) bool { return v.lbaMap[lba] == e.fp })
					owner := slices.IndexFunc(b.ops, func(op batchOp) bool { return op.src == srcDecode && &op.data[0] == &e.data[0] })
					if owner <= first {
						t.Fatalf("lba %d's cache entry is read %d's slot, not a repeat's", lbas[first], owner)
					}
					hot = append(hot, lbas[first])
				}
			}
			if len(hot) == 0 {
				t.Fatal("the batch left no entry in the cache")
			}
			var err error
			if b, err = v.ReadBatch(b, hot, nil); err != nil {
				t.Fatal(err)
			}
			if hits := b.Totals().CacheHits; hits != int64(len(hot)) {
				t.Fatalf("%d hits on %d repeats' slots", hits, len(hot))
			}
			for i, lba := range hot {
				if b.Err(i) != nil || !bytes.Equal(b.Block(i), block(int(lba))) {
					t.Fatalf("lba %d read back from a repeat's slot: err %v, or wrong bytes", lba, b.Err(i))
				}
			}
		})
	}
}

package volume

import (
	"bytes"
	"math/rand"
	"testing"

	"inlinered/internal/cpusim"
	"inlinered/internal/workload"
)

// smallConfig keeps tests fast: a modest drive and small segments so
// cleaning paths get exercised.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Blocks = 4096
	cfg.SSD.BlocksPerChannel = 128 // 8ch * 128blk * 128pg * 4K = 512 MiB
	cfg.SegmentBytes = 1 << 20
	return cfg
}

func newVolume(t *testing.T, cfg Config) *Volume {
	t.Helper()
	v, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// block materializes deterministic block content with moderate
// compressibility.
func block(id int) []byte {
	return workload.UniqueChunk(99, int32(id), 4096, 0.5)
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.BlockSize = 8 },
		func(c *Config) { c.Blocks = 0 },
		func(c *Config) { c.SegmentBytes = 1024 },
		func(c *Config) { c.CleanThreshold = 0 },
		func(c *Config) { c.CleanThreshold = 1.5 },
		func(c *Config) { c.Index.BufferEntries = 0 },
	}
	for i, mut := range bad {
		cfg := smallConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d should be rejected", i)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	v := newVolume(t, smallConfig())
	for i := 0; i < 64; i++ {
		lat, err := v.Write(int64(i), block(i))
		if err != nil {
			t.Fatal(err)
		}
		if lat <= 0 {
			t.Fatal("write must consume virtual time")
		}
	}
	for i := 0; i < 64; i++ {
		got, lat, err := v.Read(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, block(i)) {
			t.Fatalf("lba %d: read mismatch", i)
		}
		if lat <= 0 {
			t.Fatal("read must consume virtual time")
		}
	}
}

func TestUnmappedReadsZeros(t *testing.T) {
	cfg := smallConfig()
	v := newVolume(t, cfg)
	got, lat, err := v.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	// The zero block never touches media, but the staging copy into the
	// caller's buffer is charged like a cache hit's copy: pin the latency to
	// exactly the memcpy + stage-overhead cost on an idle CPU.
	cpu := cpusim.New(cpusim.DefaultConfig())
	_, want := cpu.Run(0, cpu.Cost.MemcpyCycles(cfg.BlockSize)+cpu.Cost.StageOverheadCycles)
	if lat != want {
		t.Fatalf("unmapped read latency = %v, want the zero-fill copy charge %v", lat, want)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unmapped read must return zeros")
		}
	}
}

func TestBoundsChecking(t *testing.T) {
	v := newVolume(t, smallConfig())
	if _, err := v.Write(-1, block(0)); err == nil {
		t.Fatal("negative lba accepted")
	}
	if _, err := v.Write(v.cfg.Blocks, block(0)); err == nil {
		t.Fatal("out-of-range lba accepted")
	}
	if _, err := v.Write(0, []byte{1, 2, 3}); err == nil {
		t.Fatal("short write accepted")
	}
	if _, _, err := v.Read(-1); err == nil {
		t.Fatal("negative read accepted")
	}
	if _, err := v.Trim(1 << 40); err == nil {
		t.Fatal("out-of-range trim accepted")
	}
}

func TestDedupRefcounting(t *testing.T) {
	v := newVolume(t, smallConfig())
	data := block(1)
	for lba := int64(0); lba < 100; lba++ {
		if _, err := v.Write(lba, data); err != nil {
			t.Fatal(err)
		}
	}
	st := v.Stats()
	if st.DedupHits != 99 {
		t.Fatalf("dedup hits: %d, want 99", st.DedupHits)
	}
	// One stored blob serves 100 blocks.
	if st.StoredBytes > int64(len(data)) {
		t.Fatalf("stored %d bytes for one unique block", st.StoredBytes)
	}
	if st.LogicalBytes != 100*4096 {
		t.Fatalf("logical bytes: %d", st.LogicalBytes)
	}
	if r := st.ReductionRatio(); r < 100 {
		t.Fatalf("reduction ratio %g for 100x duplication", r)
	}
}

func TestOverwriteReleasesChunk(t *testing.T) {
	v := newVolume(t, smallConfig())
	v.Write(0, block(1))
	before := v.Stats().StoredBytes
	v.Write(0, block(2)) // overwrite with different content
	st := v.Stats()
	if st.GarbageBytes == 0 {
		t.Fatal("overwrite should orphan the old chunk")
	}
	if st.StoredBytes >= before*2 {
		t.Fatalf("old chunk still counted live: %d", st.StoredBytes)
	}
	got, _, _ := v.Read(0)
	if !bytes.Equal(got, block(2)) {
		t.Fatal("overwrite lost the new data")
	}
}

func TestOverwriteSharedChunkKeepsIt(t *testing.T) {
	v := newVolume(t, smallConfig())
	v.Write(0, block(1))
	v.Write(1, block(1)) // second reference
	v.Write(0, block(2)) // drop one reference
	if got, _, _ := v.Read(1); !bytes.Equal(got, block(1)) {
		t.Fatal("shared chunk prematurely reclaimed")
	}
	if v.Stats().GarbageBytes != 0 {
		t.Fatal("refcounted chunk should not be garbage yet")
	}
}

func TestTrim(t *testing.T) {
	v := newVolume(t, smallConfig())
	v.Write(0, block(1))
	if _, err := v.Trim(0); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.LogicalBytes != 0 || st.GarbageBytes == 0 {
		t.Fatalf("trim accounting: %+v", st)
	}
	got, _, _ := v.Read(0)
	for _, b := range got {
		if b != 0 {
			t.Fatal("trimmed block must read zeros")
		}
	}
	// Idempotent.
	if _, err := v.Trim(0); err != nil {
		t.Fatal(err)
	}
}

func TestCleaningReclaimsSpace(t *testing.T) {
	cfg := smallConfig()
	cfg.SegmentBytes = 64 << 10 // small segments, quick turnover
	v := newVolume(t, cfg)
	// Fill and overwrite to generate garbage.
	for pass := 0; pass < 4; pass++ {
		for lba := int64(0); lba < 64; lba++ {
			if _, err := v.Write(lba, block(pass*1000+int(lba))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if v.Stats().GarbageBytes == 0 {
		t.Fatal("overwrites should create garbage")
	}
	cleaned, err := v.Clean()
	if err != nil {
		t.Fatal(err)
	}
	if cleaned == 0 {
		t.Fatal("cleaner found nothing despite heavy overwrite")
	}
	st := v.Stats()
	if st.CleanRuns == 0 {
		t.Fatal("no clean runs recorded")
	}
	if len(v.freeSegs) == 0 {
		t.Fatal("cleaning should free segments")
	}
	// All data still readable.
	for lba := int64(0); lba < 64; lba++ {
		got, _, err := v.Read(lba)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, block(3*1000+int(lba))) {
			t.Fatalf("lba %d corrupted by cleaning", lba)
		}
	}
}

func TestSpaceReuseUnderChurn(t *testing.T) {
	// Sustained overwrites within a bounded working set must never fill
	// the log as long as the volume is cleaned periodically.
	cfg := smallConfig()
	cfg.SSD.BlocksPerChannel = 16 // tiny drive: 64 MiB
	cfg.SegmentBytes = 256 << 10
	v := newVolume(t, cfg)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		lba := rng.Int63n(256)
		if _, err := v.Write(lba, block(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%256 == 0 {
			if _, err := v.Clean(); err != nil {
				t.Fatalf("clean at %d: %v", i, err)
			}
		}
	}
	if v.Stats().MovedBytes == 0 {
		t.Fatal("churn should force the cleaner to move live data")
	}
}

func TestVolumeMatchesReferenceModel(t *testing.T) {
	// Property: under a random mix of writes, overwrites, trims, reads,
	// and cleans, the volume always agrees with a plain map[LBA][]byte.
	cfg := smallConfig()
	cfg.SegmentBytes = 128 << 10
	v := newVolume(t, cfg)
	ref := map[int64][]byte{}
	rng := rand.New(rand.NewSource(9))
	for op := 0; op < 3000; op++ {
		lba := rng.Int63n(128)
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // write
			data := block(rng.Intn(200)) // small content pool -> lots of dedup
			if _, err := v.Write(lba, data); err != nil {
				t.Fatal(err)
			}
			ref[lba] = data
		case 6: // trim
			if _, err := v.Trim(lba); err != nil {
				t.Fatal(err)
			}
			delete(ref, lba)
		case 7: // clean
			if _, err := v.Clean(); err != nil {
				t.Fatal(err)
			}
		default: // read
			got, _, err := v.Read(lba)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := ref[lba]
			if !ok {
				want = make([]byte, cfg.BlockSize)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: lba %d diverged from reference", op, lba)
			}
		}
	}
	// Final sweep.
	for lba := int64(0); lba < 128; lba++ {
		got, _, err := v.Read(lba)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := ref[lba]
		if !ok {
			want = make([]byte, cfg.BlockSize)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final: lba %d diverged", lba)
		}
	}
	// Space accounting invariants.
	st := v.Stats()
	if st.LogicalBytes != int64(len(ref))*4096 {
		t.Fatalf("logical bytes %d != %d mapped blocks", st.LogicalBytes, len(ref))
	}
	if st.StoredBytes < 0 || st.GarbageBytes < 0 {
		t.Fatalf("negative space accounting: %+v", st)
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	v := newVolume(t, smallConfig())
	t0 := v.Now()
	v.Write(0, block(1))
	t1 := v.Now()
	if t1 <= t0 {
		t.Fatal("clock must advance on writes")
	}
	v.Read(0)
	if v.Now() <= t1 {
		t.Fatal("clock must advance on reads")
	}
}

func TestDuplicateWriteFasterThanUnique(t *testing.T) {
	v := newVolume(t, smallConfig())
	uniqLat, _ := v.Write(0, block(1))
	dupLat, _ := v.Write(1, block(1))
	if dupLat >= uniqLat {
		t.Fatalf("duplicate write (%v) should be faster than unique (%v): no compression, no destage", dupLat, uniqLat)
	}
}

func TestNoCompressMode(t *testing.T) {
	cfg := smallConfig()
	cfg.Compress = false
	v := newVolume(t, cfg)
	v.Write(0, block(1))
	st := v.Stats()
	if st.StoredBytes < 4096 {
		t.Fatalf("raw mode stored %d bytes for a 4K block", st.StoredBytes)
	}
	got, _, _ := v.Read(0)
	if !bytes.Equal(got, block(1)) {
		t.Fatal("raw mode round trip failed")
	}
}

func TestReadCacheHitsAndSpeed(t *testing.T) {
	cfg := smallConfig()
	cfg.CacheBytes = 1 << 20
	v := newVolume(t, cfg)
	v.Write(0, block(1))
	_, missLat, err := v.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	got, hitLat, err := v.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(1)) {
		t.Fatal("cached read returned wrong data")
	}
	if v.Stats().CacheHits != 1 {
		t.Fatalf("cache hits: %d", v.Stats().CacheHits)
	}
	if hitLat >= missLat {
		t.Fatalf("cache hit (%v) should be faster than SSD+decode (%v)", hitLat, missLat)
	}
}

func TestReadCacheServesDuplicateBlocks(t *testing.T) {
	cfg := smallConfig()
	cfg.CacheBytes = 1 << 20
	v := newVolume(t, cfg)
	v.Write(0, block(1))
	v.Write(1, block(1)) // same content, different LBA
	v.Read(0)            // warms the cache by fingerprint
	if _, _, err := v.Read(1); err != nil {
		t.Fatal(err)
	}
	if v.Stats().CacheHits != 1 {
		t.Fatalf("content-addressed cache should serve the duplicate block: hits=%d", v.Stats().CacheHits)
	}
}

func TestReadCacheCannotGoStale(t *testing.T) {
	cfg := smallConfig()
	cfg.CacheBytes = 1 << 20
	v := newVolume(t, cfg)
	v.Write(0, block(1))
	v.Read(0) // cache block(1)
	v.Write(0, block(2))
	got, _, err := v.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(2)) {
		t.Fatal("overwrite must never be masked by the cache")
	}
}

func TestReadCacheEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.CacheBytes = 3 * 4096 // three blocks
	v := newVolume(t, cfg)
	for i := int64(0); i < 8; i++ {
		v.Write(i, block(int(i)))
		v.Read(i)
	}
	if v.cache.len() > 3 {
		t.Fatalf("cache exceeded capacity: %d blocks", v.cache.len())
	}
	if v.cache.usedBytes > cfg.CacheBytes {
		t.Fatalf("cache bytes exceeded: %d", v.cache.usedBytes)
	}
	// Oldest entries evicted; most recent present.
	v.Read(7)
	if v.Stats().CacheHits == 0 {
		t.Fatal("most recent block should still be cached")
	}
}

func TestReadCacheDisabled(t *testing.T) {
	cfg := smallConfig()
	cfg.CacheBytes = 0
	v := newVolume(t, cfg)
	v.Write(0, block(1))
	v.Read(0)
	v.Read(0)
	if v.Stats().CacheHits != 0 {
		t.Fatal("disabled cache must not hit")
	}
}

func TestCacheCopiesOnPutAndGet(t *testing.T) {
	cfg := smallConfig()
	cfg.CacheBytes = 1 << 20
	v := newVolume(t, cfg)
	v.Write(0, block(1))
	out1, _, _ := v.Read(0)
	out1[0] ^= 0xFF // caller scribbles on its buffer
	out2, _, _ := v.Read(0)
	if !bytes.Equal(out2, block(1)) {
		t.Fatal("caller mutation leaked into the cache")
	}
}

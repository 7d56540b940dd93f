package dedup

import (
	"encoding/binary"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"inlinered/internal/fault"
)

func fpFor(i int) Fingerprint {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return Sum(b[:])
}

func smallIndex(t *testing.T, cfg IndexConfig) *BinIndex {
	t.Helper()
	x, err := NewBinIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestIndexConfigValidation(t *testing.T) {
	bad := []IndexConfig{
		{BinBits: -1, BufferEntries: 4},
		{BinBits: 25, BufferEntries: 4},
		{BinBits: 8, BufferEntries: 0},
		{BinBits: 8, BufferEntries: 4, PrefixBytes: 2}, // needs 16 bin bits
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d should be invalid: %+v", i, cfg)
		}
		if _, err := NewBinIndex(cfg); err == nil {
			t.Errorf("NewBinIndex should reject config %d", i)
		}
	}
	if err := DefaultIndexConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestLookupMissThenHit(t *testing.T) {
	x := smallIndex(t, IndexConfig{BinBits: 4, BufferEntries: 8})
	fp := fpFor(1)
	p := x.Lookup(fp)
	if p.Found {
		t.Fatal("empty index reported a hit")
	}
	x.Insert(fp, Entry{Loc: 7, Size: 100})
	p = x.Lookup(fp)
	if !p.Found || !p.InBuffer || p.Entry.Loc != 7 {
		t.Fatalf("buffered hit: %+v", p)
	}
	if x.Len() != 1 {
		t.Fatalf("len: %d", x.Len())
	}
}

func TestBufferFlushMovesToTree(t *testing.T) {
	x := smallIndex(t, IndexConfig{BinBits: 0, BufferEntries: 4}) // one bin
	var flush *Flush
	for i := 0; i < 4; i++ {
		r := x.Insert(fpFor(i), Entry{Loc: int64(i)})
		if i < 3 && r.Flush != nil {
			t.Fatalf("premature flush at %d", i)
		}
		if i == 3 {
			flush = r.Flush
		}
	}
	if flush == nil {
		t.Fatal("4th insert should flush a 4-entry buffer")
	}
	if len(flush.Entries) != 4 || flush.TreeSteps < 4 {
		t.Fatalf("flush: %d entries, %d steps", len(flush.Entries), flush.TreeSteps)
	}
	if flush.Bytes != 4*x.EntryBytes() {
		t.Fatalf("flush bytes: got %d", flush.Bytes)
	}
	if x.BufferedEntries() != 0 || x.TreeEntries() != 4 {
		t.Fatalf("post-flush: buffered=%d tree=%d", x.BufferedEntries(), x.TreeEntries())
	}
	// Entries remain findable, now via the tree.
	p := x.Lookup(fpFor(2))
	if !p.Found || p.InBuffer || p.TreeSteps < 1 {
		t.Fatalf("tree hit: %+v", p)
	}
	if len(flush.Keys()) != 4 || len(flush.Values()) != 4 {
		t.Fatal("flush accessors misaligned")
	}
}

func TestInsertDuplicateInBufferUpdates(t *testing.T) {
	x := smallIndex(t, IndexConfig{BinBits: 0, BufferEntries: 8})
	fp := fpFor(1)
	x.Insert(fp, Entry{Loc: 1})
	x.Insert(fp, Entry{Loc: 2})
	if x.Len() != 1 {
		t.Fatalf("duplicate buffer insert should not grow index: %d", x.Len())
	}
	if p := x.Lookup(fp); p.Entry.Loc != 2 {
		t.Fatalf("buffered update lost: %+v", p)
	}
}

func TestFlushCollapsesTreeDuplicates(t *testing.T) {
	x := smallIndex(t, IndexConfig{BinBits: 0, BufferEntries: 2})
	fp := fpFor(1)
	x.Insert(fp, Entry{Loc: 1})
	x.Insert(fpFor(2), Entry{Loc: 2}) // flush: both in tree
	// Re-inserting fp (e.g. after its duplicate was missed) buffers a copy
	// that collapses into the tree entry at the next flush.
	x.Insert(fp, Entry{Loc: 9})
	x.Insert(fpFor(3), Entry{Loc: 3}) // flush again
	if x.Len() != 3 {
		t.Fatalf("len after collapse: got %d, want 3", x.Len())
	}
	if p := x.Lookup(fp); !p.Found || p.Entry.Loc != 9 {
		t.Fatalf("latest value should win: %+v", p)
	}
}

func TestFlushAll(t *testing.T) {
	x := smallIndex(t, IndexConfig{BinBits: 4, BufferEntries: 100})
	for i := 0; i < 40; i++ {
		x.Insert(fpFor(i), Entry{Loc: int64(i)})
	}
	if x.TreeEntries() != 0 {
		t.Fatal("nothing should have flushed yet")
	}
	flushes := x.FlushAll()
	if len(flushes) == 0 {
		t.Fatal("FlushAll returned nothing")
	}
	total := 0
	for _, f := range flushes {
		total += len(f.Entries)
	}
	if total != 40 || x.BufferedEntries() != 0 || x.TreeEntries() != 40 {
		t.Fatalf("flushall: total=%d buffered=%d tree=%d", total, x.BufferedEntries(), x.TreeEntries())
	}
}

func TestPrefixTruncationStillDeduplicates(t *testing.T) {
	x := smallIndex(t, IndexConfig{BinBits: 16, BufferEntries: 4, PrefixBytes: 2})
	if x.EntryBytes() != 30 {
		t.Fatalf("entry bytes: %d", x.EntryBytes())
	}
	for i := 0; i < 1000; i++ {
		x.Insert(fpFor(i), Entry{Loc: int64(i)})
	}
	for i := 0; i < 1000; i++ {
		if p := x.Lookup(fpFor(i)); !p.Found || p.Entry.Loc != int64(i) {
			t.Fatalf("truncated lookup %d failed: %+v", i, p)
		}
	}
	if p := x.Lookup(fpFor(5000)); p.Found {
		t.Fatal("false positive under truncation")
	}
	if x.MemoryBytes() != x.Len()*30 {
		t.Fatalf("memory accounting: %d", x.MemoryBytes())
	}
}

// faultSeeds returns the fault seeds to sweep: the FAULT_SEEDS environment
// variable (comma-separated, set by the CI fault matrix) or a fixed default.
func faultSeeds(t *testing.T) []int64 {
	env := os.Getenv("FAULT_SEEDS")
	if env == "" {
		return []int64{1, 7}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("FAULT_SEEDS: %v", err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

func pressuredIndex(t *testing.T, seed int64, rate float64) *BinIndex {
	t.Helper()
	x := smallIndex(t, IndexConfig{BinBits: 2, BufferEntries: 2})
	x.SetFaultInjector(fault.New(fault.Config{Seed: seed, Rates: fault.Rates{fault.IndexEvict: rate}}))
	return x
}

// TestIndexEvictKeepsIndexUsable: memory pressure on every insert drops
// flushed entries only, so each fresh insert is found right after it,
// FaultEvicted counts what left, and the buffer and tree counts still add
// up to Len.
func TestIndexEvictKeepsIndexUsable(t *testing.T) {
	for _, seed := range faultSeeds(t) {
		x := pressuredIndex(t, seed, 1)
		const n = 1000
		for i := 0; i < n; i++ {
			x.Insert(fpFor(i), Entry{Loc: int64(i)})
			if p := x.Lookup(fpFor(i)); !p.Found || p.Entry.Loc != int64(i) {
				t.Fatalf("seed %d: insert %d not found after it: %+v", seed, i, p)
			}
		}
		if x.FaultEvicted() == 0 || x.Len() != n-x.FaultEvicted() ||
			x.Len() != int64(x.BufferedEntries()+x.TreeEntries()) {
			t.Fatalf("seed %d: %d evicted, %d resident (%d buffered + %d in trees) of %d inserted",
				seed, x.FaultEvicted(), x.Len(), x.BufferedEntries(), x.TreeEntries(), n)
		}
	}
}

// TestIndexEvictMissesOldDuplicates: §3.1 accepts that a memory-only index
// "cannot find some duplicate data". Under injected memory pressure early
// fingerprints miss, exactly as many as FaultEvicted counts.
func TestIndexEvictMissesOldDuplicates(t *testing.T) {
	for _, seed := range faultSeeds(t) {
		x := pressuredIndex(t, seed, 0.5)
		const n = 500
		for i := 0; i < n; i++ {
			x.Insert(fpFor(i), Entry{Loc: int64(i)})
		}
		missed := int64(0)
		for i := 0; i < n; i++ {
			if !x.Lookup(fpFor(i)).Found {
				missed++
			}
		}
		if missed == 0 || missed != x.FaultEvicted() {
			t.Fatalf("seed %d: %d of %d old duplicates missed, %d evicted", seed, missed, n, x.FaultEvicted())
		}
	}
}

func TestBinDistribution(t *testing.T) {
	x := smallIndex(t, IndexConfig{BinBits: 4, BufferEntries: 1 << 20})
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		counts[x.BinOf(fpFor(i))]++
	}
	for b, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("bin %d skewed: %d of 16000 (SHA-1 should spread evenly)", b, c)
		}
	}
}

func TestProbeWorkCounts(t *testing.T) {
	x := smallIndex(t, IndexConfig{BinBits: 0, BufferEntries: 16})
	for i := 0; i < 8; i++ {
		x.Insert(fpFor(i), Entry{})
	}
	// A miss scans the whole buffer.
	p := x.Lookup(fpFor(100))
	if p.BufferScanned != 8 {
		t.Fatalf("miss should scan all 8 buffered entries, scanned %d", p.BufferScanned)
	}
	// The most recent insert is found on the first comparison
	// (newest-first scan = temporal locality).
	p = x.Lookup(fpFor(7))
	if p.BufferScanned != 1 {
		t.Fatalf("newest entry should hit immediately, scanned %d", p.BufferScanned)
	}
}

func TestIndexDeduplicatesStream(t *testing.T) {
	// End-to-end: a stream with a known duplicate pattern deduplicates to
	// exactly the unique count.
	x := smallIndex(t, DefaultIndexConfig())
	rng := rand.New(rand.NewSource(4))
	const unique = 500
	dups := 0
	for i := 0; i < 3000; i++ {
		fp := fpFor(rng.Intn(unique))
		if p := x.Lookup(fp); p.Found {
			dups++
			continue
		}
		x.Insert(fp, Entry{Loc: int64(i)})
	}
	if got := int(x.Len()); got > unique {
		t.Fatalf("unique entries: got %d, want <= %d", got, unique)
	}
	if dups != 3000-int(x.Len()) {
		t.Fatalf("dups (%d) + uniques (%d) != stream length", dups, x.Len())
	}
}

func TestRemove(t *testing.T) {
	x := smallIndex(t, IndexConfig{BinBits: 4, BufferEntries: 4})
	// One entry in the buffer, several flushed into the tree.
	for i := 0; i < 9; i++ {
		x.Insert(fpFor(i), Entry{Loc: int64(i)})
	}
	before := x.Len()
	removed, bufScanned, _ := x.Remove(fpFor(8))
	if !removed || bufScanned == 0 {
		t.Fatalf("buffered entry should be removable: removed=%v scanned=%d", removed, bufScanned)
	}
	if x.Lookup(fpFor(8)).Found {
		t.Fatal("removed entry still found")
	}
	// Remove a tree-resident entry.
	removed, _, treeSteps := x.Remove(fpFor(0))
	if !removed {
		t.Fatal("tree entry should be removable")
	}
	if treeSteps == 0 && x.TreeEntries() > 0 {
		// Depending on bin layout the entry may have been buffered; only
		// require that it is gone.
		t.Log("entry was buffered, not in tree")
	}
	if x.Lookup(fpFor(0)).Found {
		t.Fatal("removed tree entry still found")
	}
	if x.Len() != before-2 {
		t.Fatalf("len after removes: %d, want %d", x.Len(), before-2)
	}
	// Removing a missing key is a no-op.
	if removed, _, _ := x.Remove(fpFor(1000)); removed {
		t.Fatal("missing key reported removed")
	}
}

func TestRemoveThenReinsert(t *testing.T) {
	x := smallIndex(t, DefaultIndexConfig())
	fp := fpFor(42)
	x.Insert(fp, Entry{Loc: 1})
	x.Remove(fp)
	x.Insert(fp, Entry{Loc: 2})
	if p := x.Lookup(fp); !p.Found || p.Entry.Loc != 2 {
		t.Fatalf("reinsert after remove broken: %+v", p)
	}
}

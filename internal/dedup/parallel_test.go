package dedup

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

func TestParallelIndexerMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fps := make([]Fingerprint, 5000)
	for i := range fps {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(rng.Intn(1200)))
		fps[i] = Sum(b[:])
	}
	run := func(workers int) (found []bool, entries int64) {
		x, err := NewBinIndex(IndexConfig{BinBits: 8, BufferEntries: 8})
		if err != nil {
			t.Fatal(err)
		}
		pi := NewParallelIndexer(x, workers)
		res, _ := pi.Process(fps, func(i int) Entry { return Entry{Loc: int64(i)} })
		found = make([]bool, len(res))
		for i, r := range res {
			found[i] = r.Probe.Found
		}
		return found, x.Len()
	}
	f1, n1 := run(1)
	for _, w := range []int{2, 4, 8} {
		fw, nw := run(w)
		if nw != n1 {
			t.Fatalf("workers=%d unique count %d != serial %d", w, nw, n1)
		}
		for i := range fw {
			if fw[i] != f1[i] {
				t.Fatalf("workers=%d item %d dup decision differs", w, i)
			}
		}
	}
}

func TestParallelIndexerWorkAccounting(t *testing.T) {
	x, _ := NewBinIndex(IndexConfig{BinBits: 6, BufferEntries: 4})
	pi := NewParallelIndexer(x, 4)
	fps := make([]Fingerprint, 300)
	for i := range fps {
		fps[i] = fpFor(i)
	}
	res, work := pi.Process(fps, func(i int) Entry { return Entry{Loc: int64(i)} })
	items := 0
	for _, w := range work {
		items += w.Items
	}
	if items != len(fps) {
		t.Fatalf("work items %d != batch %d", items, len(fps))
	}
	flushes := 0
	for _, w := range work {
		flushes += len(w.Flushes)
	}
	if flushes == 0 {
		t.Fatal("4-entry buffers over 300 uniques must flush")
	}
	for i, r := range res {
		if r.Probe.Found {
			t.Fatalf("item %d: all-unique stream reported a duplicate", i)
		}
	}
}

func TestParallelIndexerRejectsCappedIndex(t *testing.T) {
	x, _ := NewBinIndex(IndexConfig{BinBits: 4, BufferEntries: 4, MaxEntries: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("capped index with >1 worker should panic")
		}
	}()
	NewParallelIndexer(x, 2)
}

func TestParallelIndexerFirstOccurrenceSemantics(t *testing.T) {
	// Every duplicate must resolve to the Entry of its first occurrence.
	x, _ := NewBinIndex(IndexConfig{BinBits: 6, BufferEntries: 1 << 16})
	pi := NewParallelIndexer(x, 8)
	fps := make([]Fingerprint, 0, 2000)
	for i := 0; i < 1000; i++ {
		fps = append(fps, fpFor(i))
	}
	for i := 0; i < 1000; i++ { // second pass: all duplicates
		fps = append(fps, fpFor(i))
	}
	res, _ := pi.Process(fps, func(i int) Entry { return Entry{Loc: int64(i)} })
	for i := 0; i < 1000; i++ {
		if res[i].Probe.Found {
			t.Fatalf("first occurrence %d reported duplicate", i)
		}
		d := res[1000+i]
		if !d.Probe.Found {
			t.Fatalf("second occurrence %d not deduplicated", i)
		}
		if d.Probe.Entry.Loc != int64(i) {
			t.Fatalf("dup %d resolved to loc %d, want %d", i, d.Probe.Entry.Loc, i)
		}
	}
}

func TestLockedMapBasics(t *testing.T) {
	m := NewLockedMap()
	fp := fpFor(1)
	if _, ok := m.Lookup(fp); ok {
		t.Fatal("empty map hit")
	}
	m.Insert(fp, Entry{Loc: 5})
	if e, ok := m.Lookup(fp); !ok || e.Loc != 5 {
		t.Fatalf("lookup: %v %v", e, ok)
	}
	e, dup := m.LookupOrInsert(fp, Entry{Loc: 9})
	if !dup || e.Loc != 5 {
		t.Fatalf("LookupOrInsert dup: %v %v", e, dup)
	}
	_, dup = m.LookupOrInsert(fpFor(2), Entry{Loc: 9})
	if dup {
		t.Fatal("fresh key reported dup")
	}
	if m.Len() != 2 {
		t.Fatalf("len: %d", m.Len())
	}
	lookups, inserts := m.Ops()
	if lookups != 4 || inserts != 2 {
		t.Fatalf("ops: %d lookups %d inserts", lookups, inserts)
	}
}

func TestLockedMapConcurrent(t *testing.T) {
	// Run with -race: the global lock must make concurrent use safe.
	m := NewLockedMap()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.LookupOrInsert(fpFor(i), Entry{Loc: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != 500 {
		t.Fatalf("len: %d, want 500", m.Len())
	}
}

package dedup

import (
	"encoding/binary"
	"math/rand"
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

package dedup

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"inlinered/internal/parallel"
)

// partitionPools are the pool sizes every partitioned run is checked on: one
// worker runs the owners one after another on the caller, four run them
// concurrently.
var partitionPools = []int{1, 4}

// partitionOwners are the owner counts checked on each pool.
var partitionOwners = []int{1, 2, 4, 8}

func locEntry(i int) Entry { return Entry{Loc: int64(i)} }

// indexed is one resident entry as Walk reports it.
type indexed struct {
	bin uint32
	key string
	loc int64
}

func walkAll(x *BinIndex) []indexed {
	var out []indexed
	x.Walk(func(bin uint32, key []byte, e Entry) bool {
		out = append(out, indexed{bin, string(key), e.Loc})
		return true
	})
	return out
}

// TestIndexPartitionedMatchesSerial: whatever the owner count and pool size,
// every bin sees its items in stream order, so the index ends up holding
// exactly what a serial Lookup/Insert loop leaves — same entries, same
// buffer/tree split, same count — and entry is asked for first occurrences
// only.
func TestIndexPartitionedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fps := make([]Fingerprint, 5000)
	for i := range fps {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(rng.Intn(1200)))
		fps[i] = Sum(b[:])
	}
	cfg := IndexConfig{BinBits: 8, BufferEntries: 8}
	serial := smallIndex(t, cfg)
	first := make([]bool, len(fps))
	for i, fp := range fps {
		if !serial.Lookup(fp).Found {
			serial.Insert(fp, locEntry(i))
			first[i] = true
		}
	}
	want := walkAll(serial)
	for _, workers := range partitionPools {
		pool := parallel.New(workers)
		for _, owners := range partitionOwners {
			t.Run(fmt.Sprintf("pool%d/owners%d", workers, owners), func(t *testing.T) {
				x := smallIndex(t, cfg)
				asked := make([]bool, len(fps))
				if _, err := IndexPartitioned(pool, x, fps, owners, func(i int) Entry {
					asked[i] = true
					return locEntry(i)
				}); err != nil {
					t.Fatal(err)
				}
				if x.Len() != serial.Len() {
					t.Fatalf("Len %d, serial %d", x.Len(), serial.Len())
				}
				got := walkAll(x)
				if len(got) != len(want) {
					t.Fatalf("Walk visits %d entries, serial %d", len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("entry %d is %+v, serial %+v", k, got[k], want[k])
					}
				}
				for i := range asked {
					if asked[i] != first[i] {
						t.Fatalf("item %d: entry asked %v, first occurrence %v", i, asked[i], first[i])
					}
				}
			})
		}
		pool.Close()
	}
}

// TestIndexPartitionedFirstOccurrence: every duplicate resolves to the
// entry of its first occurrence, from the bin buffer or, once flushed, the
// bin tree.
func TestIndexPartitionedFirstOccurrence(t *testing.T) {
	fps := make([]Fingerprint, 0, 2000)
	for pass := 0; pass < 2; pass++ { // the second pass is all duplicates
		for i := 0; i < 1000; i++ {
			fps = append(fps, fpFor(i))
		}
	}
	for _, workers := range partitionPools {
		pool := parallel.New(workers)
		for _, owners := range partitionOwners {
			for _, buf := range []int{4, 1 << 16} {
				x := smallIndex(t, IndexConfig{BinBits: 6, BufferEntries: buf})
				if _, err := IndexPartitioned(pool, x, fps, owners, locEntry); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 1000; i++ {
					p := x.Lookup(fpFor(i))
					if !p.Found || p.Entry.Loc != int64(i) {
						t.Fatalf("pool %d, owners %d, buffer %d: fingerprint %d resolves to %+v, want loc %d",
							workers, owners, buf, i, p, i)
					}
				}
			}
		}
		pool.Close()
	}
}

// TestIndexPartitionedWorkAccounting: the owners' items add up to the
// stream, and small buffers over many uniques flush into the trees, which
// the owners' tree steps count.
func TestIndexPartitionedWorkAccounting(t *testing.T) {
	fps := make([]Fingerprint, 300)
	for i := range fps {
		fps[i] = fpFor(i)
	}
	for _, workers := range partitionPools {
		pool := parallel.New(workers)
		for _, owners := range partitionOwners {
			x := smallIndex(t, IndexConfig{BinBits: 6, BufferEntries: 4})
			work, err := IndexPartitioned(pool, x, fps, owners, locEntry)
			if err != nil {
				t.Fatal(err)
			}
			if len(work) != owners {
				t.Fatalf("owners %d: %d work summaries", owners, len(work))
			}
			items, steps := 0, 0
			for _, w := range work {
				items += w.Items
				steps += w.TreeSteps
			}
			if items != len(fps) {
				t.Fatalf("pool %d, owners %d: work items %d != stream %d", workers, owners, items, len(fps))
			}
			if steps == 0 {
				t.Fatalf("pool %d, owners %d: 4-entry buffers over 300 uniques must flush into the trees", workers, owners)
			}
		}
		pool.Close()
	}
}

// TestIndexPartitionedRejectsFaultedIndex: memory-pressure evictions draw
// from one injector stream and may reach any bin, so an index with a fault
// injector cannot be split across owners; nor can a run have no owner.
func TestIndexPartitionedRejectsFaultedIndex(t *testing.T) {
	pool := parallel.New(2)
	defer pool.Close()
	fps := []Fingerprint{fpFor(1)}
	if _, err := IndexPartitioned(pool, smallIndex(t, IndexConfig{BinBits: 4, BufferEntries: 4}), fps, 2, locEntry); err != nil {
		t.Fatalf("index without injector, 2 owners: %v", err)
	}
	faulted := pressuredIndex(t, 1, 1)
	if _, err := IndexPartitioned(pool, faulted, fps, 2, locEntry); err == nil {
		t.Fatal("index with a fault injector and 2 owners accepted")
	}
	if _, err := IndexPartitioned(pool, faulted, fps, 1, locEntry); err != nil {
		t.Fatalf("index with a fault injector and 1 owner: %v", err)
	}
	if _, err := IndexPartitioned(pool, smallIndex(t, IndexConfig{BufferEntries: 4}), fps, 0, locEntry); err == nil {
		t.Fatal("0 owners accepted")
	}
}

package dedup

import (
	"crypto/sha1"
	"fmt"
	"math/rand"
	"testing"

	"inlinered/internal/parallel"
)

// BenchmarkSum4K compares Sum's two kernels at the fixed chunk size and at
// the CDC mean; each sub-benchmark checks its digest against crypto/sha1.
func BenchmarkSum4K(b *testing.B) {
	for _, k := range []struct {
		name string
		on   bool
	}{{"shani", true}, {"stdlib", false}} {
		for _, n := range []int{4 << 10, 6 << 10} {
			b.Run(fmt.Sprintf("%s/%dK", k.name, n>>10), func(b *testing.B) {
				withSHANI(b, k.on, func() {
					data := make([]byte, n)
					rand.New(rand.NewSource(int64(n))).Read(data)
					if Sum(data) != Fingerprint(sha1.Sum(data)) {
						b.Fatal("Sum differs from crypto/sha1")
					}
					b.SetBytes(int64(n))
					for i := 0; i < b.N; i++ {
						Sum(data)
					}
				})
			})
		}
	}
}

// BenchmarkSumBatch fingerprints a 1024×4 KB batch through a persistent
// parallel.Pool — the batch form the benchmark module's dedup layer replays
// (the engine hashes group by group, core/front.go; the volume's write
// front window by window, volume/writebatch.go).
func BenchmarkSumBatch(b *testing.B) {
	chunks := make([][]byte, 1024)
	for i := range chunks {
		chunks[i] = make([]byte, 4096)
		chunks[i][0] = byte(i)
	}
	pool := parallel.New(8)
	defer pool.Close()
	b.SetBytes(int64(len(chunks)) * 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumBatch(pool, chunks)
	}
}

func BenchmarkBinIndexLookupHit(b *testing.B) {
	x, _ := NewBinIndex(DefaultIndexConfig())
	const n = 1 << 18
	fps := make([]Fingerprint, n)
	for i := range fps {
		fps[i] = fpFor(i)
		x.Insert(fps[i], Entry{Loc: int64(i)})
	}
	x.FlushAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := x.Lookup(fps[i%n]); !p.Found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkBinIndexLookupMiss(b *testing.B) {
	x, _ := NewBinIndex(DefaultIndexConfig())
	const n = 1 << 18
	for i := 0; i < n; i++ {
		x.Insert(fpFor(i), Entry{Loc: int64(i)})
	}
	x.FlushAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := x.Lookup(fpFor(n + i)); p.Found {
			b.Fatal("false hit")
		}
	}
}

func BenchmarkBinIndexInsert(b *testing.B) {
	x, _ := NewBinIndex(DefaultIndexConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Insert(fpFor(i), Entry{Loc: int64(i)})
	}
}

func BenchmarkIndexPartitioned8Owners(b *testing.B) {
	fps := make([]Fingerprint, 1<<16)
	for i := range fps {
		fps[i] = fpFor(i % (1 << 14))
	}
	pool := parallel.New(8)
	defer pool.Close()
	b.SetBytes(int64(len(fps)))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		x, _ := NewBinIndex(DefaultIndexConfig())
		b.StartTimer()
		if _, err := IndexPartitioned(pool, x, fps, 8, func(i int) Entry { return Entry{Loc: int64(i)} }); err != nil {
			b.Fatal(err)
		}
	}
}

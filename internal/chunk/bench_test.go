package chunk

import (
	"bytes"
	"io"
	"testing"
)

// The chunker benchmarks run over the shared 1 MiB corpora from
// gearref_test.go rather than purely random bytes: boundary density — and
// with it how far the pre-Min skip and the multi-byte step get to run —
// depends on content. Random data cuts near Avg; compressible stripes cut
// on the stripe cadence; zero runs coast to Max (the best case for the
// skip); the shifted corpus pins content-defined behavior. Every benchmark
// reports allocations, so an allocation regression in the scan or the fill
// path shows in allocs/op even when ns/op noise hides it.

// benchGear drains a fresh Gear chunker over data with pooled payload
// buffers and a reused reader — the configuration the benchmark module's
// chunk.busy_s replay uses — so it measures the chunker (scan + payload copy
// + read-ahead fill), not the allocator: allocs/op is the chunker and its
// read slab, nothing per chunk. The engine itself attaches no pool and takes
// views: that path is BenchmarkGearCDCViews.
func benchGear(b *testing.B, data []byte, ref bool) {
	pool := &testPool{}
	r := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		g := NewGear(r, DefaultGearConfig())
		g.ref = ref
		g.SetBuffers(pool)
		if drain(b, g, pool) == 0 {
			b.Fatal("no chunks")
		}
	}
}

// BenchmarkGearCDC measures the content-defined chunker on each corpus,
// through the multi-byte fast path.
func BenchmarkGearCDC(b *testing.B) {
	for _, c := range goldenCorpora() {
		b.Run(c.name, func(b *testing.B) { benchGear(b, c.data, false) })
	}
}

// BenchmarkGearCDCRef is the same measurement through the retained scalar
// reference scan — the denominator of the chunker's ref/fast speedup.
func BenchmarkGearCDCRef(b *testing.B) {
	for _, c := range goldenCorpora() {
		b.Run(c.name, func(b *testing.B) { benchGear(b, c.data, true) })
	}
}

// BenchmarkGearCDCViews is the engine's path: no pool, chunks are views into
// the read slabs, so allocs/op is the slab count and there is no payload copy.
func BenchmarkGearCDCViews(b *testing.B) {
	data := goldenCorpora()[0].data
	r := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		g := NewGear(r, DefaultGearConfig())
		for {
			if _, err := g.Next(); err != nil {
				break
			}
		}
	}
}

// BenchmarkFixed4K chunks the same corpora at a fixed 4 KB grain — content
// cannot change the work, but the corpus variants keep the two chunkers'
// numbers directly comparable.
func BenchmarkFixed4K(b *testing.B) {
	for _, c := range goldenCorpora() {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := split(NewFixed(bytes.NewReader(c.data), 4096)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// testPool is a minimal Buffers implementation: a LIFO free list, like the
// engine's pool but without the locking the single-threaded benchmarks
// don't need.
type testPool struct{ free [][]byte }

func (p *testPool) Get(capacity int) []byte {
	for n := len(p.free); n > 0; n = len(p.free) {
		buf := p.free[n-1]
		p.free = p.free[:n-1]
		if cap(buf) >= capacity {
			return buf
		}
	}
	return make([]byte, 0, capacity)
}

func (p *testPool) Put(buf []byte) { p.free = append(p.free, buf[:0]) }

// drain runs a chunker to EOF, returning every chunk buffer to the pool —
// the engine's steady-state pattern.
func drain(b *testing.B, ck Chunker, pool *testPool) int {
	chunks := 0
	for {
		c, err := ck.Next()
		if err != nil {
			if err == io.EOF {
				return chunks
			}
			b.Fatal(err)
		}
		chunks++
		pool.Put(c.Data)
	}
}

// BenchmarkFixed4KPooled measures the allocs/op floor of the fixed chunker
// with recycled payload buffers (pair with BenchmarkFixed4K for the delta):
// the chunker itself, nothing per chunk.
func BenchmarkFixed4KPooled(b *testing.B) {
	data := goldenCorpora()[0].data
	pool := &testPool{}
	r := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		f := NewFixed(r, 4096)
		f.SetBuffers(pool)
		drain(b, f, pool)
	}
}

// BenchmarkGearCDCPooled measures the allocs/op floor of the Gear chunker
// with recycled payload buffers and a fresh chunker per stream: the chunker
// and its read slab — the regression guard for any per-chunk allocation
// sneaking back into the read path.
func BenchmarkGearCDCPooled(b *testing.B) {
	data := goldenCorpora()[0].data
	pool := &testPool{}
	r := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		g := NewGear(r, DefaultGearConfig())
		g.SetBuffers(pool)
		drain(b, g, pool)
	}
}

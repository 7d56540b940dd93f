package chunk

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

// Without a Buffers pool a chunker hands out views into its read slabs
// instead of copies. The tests below hold the two modes together — same
// (Offset, Data) sequence whatever the read granularity — and pin what makes
// a view safe to retain: it is never overwritten, and its capacity stops at
// its length.

// shortReads returns 1..len(p) bytes per Read.
type shortReads struct {
	r   io.Reader
	rng *rand.Rand
}

func (s *shortReads) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1+s.rng.Intn(len(p))]
	}
	return s.r.Read(p)
}

var viewReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"plain", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"short", func(r io.Reader) io.Reader { return &shortReads{r, rand.New(rand.NewSource(9))} }},
}

// resetter is what both chunkers offer beyond Chunker.
type resetter interface {
	Chunker
	Reset(io.Reader)
}

// sameChunks runs view (no pool) and pooled over the same bytes and requires
// identical chunks; it returns the view-mode chunks.
func sameChunks(t testing.TB, what string, view, pooled resetter, data []byte, wrap func(io.Reader) io.Reader) []Chunk {
	t.Helper()
	view.Reset(wrap(bytes.NewReader(data)))
	pooled.Reset(wrap(bytes.NewReader(data)))
	got, err := split(view)
	if err != nil {
		t.Fatal(err)
	}
	want, err := split(pooled)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d view chunks, %d pooled chunks", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Offset != want[i].Offset || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("%s: chunk %d differs between view and pooled mode", what, i)
		}
		if cap(got[i].Data) != len(got[i].Data) {
			t.Fatalf("%s: chunk %d: cap %d > len %d, an append would scribble on its neighbour", what, i, cap(got[i].Data), len(got[i].Data))
		}
	}
	return got
}

// TestViewChunksMatchPooledChunks is the differential over the golden corpora
// and configurations, with each chunker pair Reset from stream to stream. A
// Reset must not hand out bytes an earlier view still covers, so every
// stream's chunks are checked against their source again after the last one.
func TestViewChunksMatchPooledChunks(t *testing.T) {
	check := func(what string, view, pooled resetter) {
		pooled.(interface{ SetBuffers(Buffers) }).SetBuffers(&testPool{})
		type held struct {
			what   string
			src    []byte
			chunks []Chunk
		}
		var all []held
		for _, c := range goldenCorpora() {
			for _, rd := range viewReaders {
				data := c.data
				if rd.name == "one-byte" {
					data = data[:len(data)/8] // a Read per byte: keep it quick
				}
				name := what + "/" + c.name + "/" + rd.name
				all = append(all, held{name, data, sameChunks(t, name, view, pooled, data, rd.wrap)})
			}
		}
		for _, h := range all {
			for i, c := range h.chunks {
				if !bytes.Equal(c.Data, h.src[c.Offset:c.Offset+int64(len(c.Data))]) {
					t.Fatalf("%s: chunk %d was overwritten after it was handed out", h.what, i)
				}
			}
		}
	}
	for _, cfg := range gearConfigs() {
		check(fmt.Sprintf("gear/%d-%d-%d", cfg.Min, cfg.Avg, cfg.Max), NewGear(nil, cfg), NewGear(nil, cfg))
	}
	for _, size := range []int{512, 4096, 5000, slabBytes + 1} {
		check(fmt.Sprintf("fixed/%d", size), NewFixed(nil, size), NewFixed(nil, size))
	}
	// One-byte chunks (many per slab), on a stream short enough to be quick.
	pooled := NewFixed(nil, 1)
	pooled.SetBuffers(&testPool{})
	sameChunks(t, "fixed/1", NewFixed(nil, 1), pooled, goldenCorpora()[0].data[:3000], viewReaders[0].wrap)
}

// TestViewChunksSurviveTheStream holds every chunk of a 4 MiB stream until
// EOF — dozens of slabs later — and compares each against the source; then
// appends to each, which must reallocate rather than grow into the slab.
func TestViewChunksSurviveTheStream(t *testing.T) {
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(3)).Read(data)
	for name, ck := range map[string]Chunker{
		"gear":  NewGear(&shortReads{bytes.NewReader(data), rand.New(rand.NewSource(4))}, DefaultGearConfig()),
		"fixed": NewFixed(&shortReads{bytes.NewReader(data), rand.New(rand.NewSource(4))}, 4096),
	} {
		chunks, err := split(ck)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			_ = append(c.Data, 0xEE)
		}
		var n int64
		for i, c := range chunks {
			if c.Offset != n || !bytes.Equal(c.Data, data[n:n+int64(len(c.Data))]) {
				t.Fatalf("%s: chunk %d (offset %d) does not match the source", name, i, c.Offset)
			}
			n += int64(len(c.Data))
		}
		if n != int64(len(data)) {
			t.Fatalf("%s: chunks cover %d of %d bytes", name, n, len(data))
		}
	}
}

// TestViewChunkerAllocsPerSlab bounds the view path the way
// TestChunkerSteadyStateAllocFree bounds the pooled one: a stream costs its
// slabs plus a constant, nothing per chunk.
func TestViewChunkerAllocsPerSlab(t *testing.T) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(data)
	r := bytes.NewReader(data)
	cfg := DefaultGearConfig()
	for name, tc := range map[string]struct {
		mk    func() Chunker
		slabs int
	}{
		// A Gear slab carries up to Max unconsumed bytes over from the last.
		"gear":  {func() Chunker { return NewGear(r, cfg) }, len(data)/(readSlack*cfg.Max) + 1},
		"fixed": {func() Chunker { return NewFixed(r, 4096) }, len(data)/slabBytes + 1},
	} {
		chunks := 0
		got := testing.AllocsPerRun(5, func() {
			r.Reset(data)
			ck := tc.mk()
			for chunks = 0; ; chunks++ {
				if _, err := ck.Next(); err != nil {
					return
				}
			}
		})
		if limit := float64(tc.slabs + 4); got > limit {
			t.Errorf("%s: %.0f allocs for %d chunks in %d slabs; want <= %.0f", name, got, chunks, tc.slabs, limit)
		}
	}
}

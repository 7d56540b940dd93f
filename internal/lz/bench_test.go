package lz

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func benchChunk(fill float64) []byte {
	rng := rand.New(rand.NewSource(1))
	out := make([]byte, 4096)
	for i := 0; i < len(out); i += 64 {
		n := int(fill * 64)
		rng.Read(out[i : i+n])
	}
	return out
}

// BenchmarkMatchLen measures the innermost compare loop at the match
// lengths that dominate real streams: barely-minimum (4), typical (16),
// and a compare longer than any token (256: the word loop's steady state).
func BenchmarkMatchLen(b *testing.B) {
	for _, ml := range []int{4, 16, 256} {
		b.Run(fmt.Sprintf("len%d", ml), func(b *testing.B) {
			data := make([]byte, 2*ml+16)
			rng := rand.New(rand.NewSource(int64(ml)))
			rng.Read(data[:ml])
			copy(data[ml:2*ml], data[:ml])
			data[2*ml] = ^data[ml] // force the mismatch exactly at ml
			b.SetBytes(int64(ml))
			for i := 0; i < b.N; i++ {
				if got := matchLen(data, 0, ml, ml+8); got != ml {
					b.Fatalf("matchLen = %d, want %d", got, ml)
				}
			}
		})
	}
}

func BenchmarkCompress4KIncompressible(b *testing.B) {
	data := benchChunk(1.0)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Compress(nil, data, DefaultParams())
	}
}

func BenchmarkCompress4KHalfCompressible(b *testing.B) {
	data := benchChunk(0.5)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Compress(nil, data, DefaultParams())
	}
}

func BenchmarkCompress4KZeros(b *testing.B) {
	data := make([]byte, 4096)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Compress(nil, data, DefaultParams())
	}
}

// BenchmarkDecompress4K decodes one LZSS block per match shape the token
// loop copies differently: the storm payload (half its matches offset-1
// overlaps), all zeros (offset 1 throughout), period-42 text (offsets of 8
// and up) and incompressible input (literals only). Each decodes into a
// reused dst, so it allocates nothing, and checks the round trip.
func BenchmarkDecompress4K(b *testing.B) {
	shapes := []struct {
		name string
		data []byte
	}{
		{"storm", benchChunk(0.5)},
		{"zeros", make([]byte, 4096)},
		{"text", bytes.Repeat([]byte("inline data reduction on primary storage "), 100)[:4096]},
		{"incompressible", benchChunk(1.0)},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			blob, _ := Compress(nil, sh.data, DefaultParams())
			if blob[0] != ModeLZSS {
				// Compress stores incompressible input raw; the token
				// loop's all-literal case is built by hand.
				blob = appendUvarint([]byte{ModeLZSS}, uint64(len(sh.data)))
				blob = append(blob, litStream(string(sh.data))...)
			}
			dst := make([]byte, 0, len(sh.data))
			b.SetBytes(int64(len(sh.data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := Decompress(dst[:0], blob)
				if err != nil || !bytes.Equal(out, sh.data) {
					b.Fatalf("round trip failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkSubDecode4K compares the two ways into one token loop over an
// indexed 4-lane container, on one goroutine: Decompress decodes the parts
// in order and defers nothing; the two-pass resolve + per-part decode +
// deferred patch-up is what lanes decoding parts concurrently would run,
// so its extra cost is the table walk and the overlap copies it defers.
func BenchmarkSubDecode4K(b *testing.B) {
	data := benchChunk(0.5)
	res := CompressSubBlocks(data, DefaultSubBlockParams())
	blob, _ := PostProcess(nil, res)
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		var out []byte
		for i := 0; i < b.N; i++ {
			var err error
			out, err = Decompress(out[:0], blob)
			if err != nil || !bytes.Equal(out, data) {
				b.Fatalf("round trip failed: %v", err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		var lay SubLayout
		out := make([]byte, len(data))
		var deferred []DeferredCopy
		for i := 0; i < b.N; i++ {
			ok, err := ResolveSubBlocks(&lay, blob)
			if !ok || err != nil {
				b.Fatalf("resolve: ok=%v err=%v", ok, err)
			}
			deferred = deferred[:0]
			for p := range lay.Parts {
				var derr error
				deferred, _, derr = DecodeSubPart(out, &lay, p, deferred)
				if derr != nil {
					b.Fatal(derr)
				}
			}
			ResolveDeferred(out, deferred)
			if !bytes.Equal(out, data) {
				b.Fatal("round trip failed")
			}
		}
	})
}

// BenchmarkCompressSubBlocks4K is the GPU-shaped encode of one chunk: one
// chain build, four lane parses, and one allocation per retained lane
// stream plus the lane slice (TestSubBlockAllocs holds the count).
func BenchmarkCompressSubBlocks4K(b *testing.B) {
	data := benchChunk(0.5)
	p := DefaultSubBlockParams()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompressSubBlocks(data, p)
	}
}

func BenchmarkPostProcess(b *testing.B) {
	data := benchChunk(0.5)
	res := CompressSubBlocks(data, DefaultSubBlockParams())
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, _, err := PostProcessOrRaw(nil, data, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLikelyIncompressible prices the bypass check on a 6 KiB random
// chunk (the CDC mean): the table-driven check against Entropy, its oracle.
func BenchmarkLikelyIncompressible(b *testing.B) {
	data := make([]byte, 6<<10)
	rand.New(rand.NewSource(6)).Read(data)
	b.Run("table", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if !LikelyIncompressible(data, 7.2) {
				b.Fatal("random chunk judged compressible")
			}
		}
	})
	b.Run("entropy", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if Entropy(data) <= 7.2 {
				b.Fatal("random chunk judged compressible")
			}
		}
	})
}

package lz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// decompressMeasured decodes src after a copy of prefix and reports what
// the call allocated (TotalAlloc is monotonic, so the delta bounds it).
func decompressMeasured(prefix, src []byte) (out []byte, err error, allocated uint64) {
	dst := append(make([]byte, 0, len(prefix)), prefix...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err = Decompress(dst, src)
	runtime.ReadMemStats(&after)
	return out, err, after.TotalAlloc - before.TotalAlloc
}

// FuzzDecompress: the decoder must never panic; on arbitrary input after a
// non-empty dst prefix it must agree with decompressRef on accept or reject,
// on the bytes when both accept, and on leaving dst as it was when both
// reject; an N-byte input allocates no more than a fixed 8 KiB plus 32·N;
// and valid blobs must round trip.
//
// The factor 32 covers every mode: an LZSS stream expands at most
// MaxMatch/2 = 9× (a 2-byte match token for 18 bytes), output is sized
// once and rounded to a size class (≤ 12.5 %), and an indexed table of more
// than eight parts costs a 40-byte SubPart and an 8-byte length per part, a
// part taking at least two table bytes.
func FuzzDecompress(f *testing.F) {
	for _, data := range corpus() {
		blob, _ := Compress(nil, data, DefaultParams())
		f.Add(blob)
		// The same payload under the retired mode 3 must be rejected.
		f.Add(append([]byte{ModeQLZ}, blob[1:]...))
	}
	for _, data := range corpus() {
		// Sub-block containers with the boundary table (what PostProcess
		// writes) and the retired table-less layout (must be rejected).
		res := CompressSubBlocks(data, DefaultSubBlockParams())
		iblob, _ := PostProcess(nil, res)
		f.Add(iblob)
		var legacy []byte
		legacy = append(legacy, ModeSub)
		legacy = appendUvarint(legacy, uint64(len(data)))
		legacy = appendUvarint(legacy, uint64(len(res.Lanes)))
		for _, l := range res.Lanes {
			legacy = appendUvarint(legacy, uint64(len(l.Tokens)))
		}
		for _, l := range res.Lanes {
			legacy = append(legacy, l.Tokens...)
		}
		f.Add(legacy)
	}
	lzssShapes, subShapes := shapeSeeds()
	for _, blob := range append(lzssShapes, subShapes...) {
		f.Add(blob)
	}
	f.Add([]byte{ModeSub, 4, 2, 1, 1, 0, 0})
	f.Add([]byte{ModeSub, 0x04, 0xFF, 0xFF, 0x03})    // part count > payload
	f.Add([]byte{ModeSubIdx, 0x04, 0xFF, 0xFF, 0x03}) // same, indexed mode
	f.Add([]byte{ModeSubIdx, 0, 0})                   // empty indexed container
	f.Add([]byte{99, 0})
	text := corpus()["text"]
	for _, blob := range [][]byte{
		func() []byte { b, _ := Compress(nil, text, DefaultParams()); return b }(),
		func() []byte { b, _ := PostProcess(nil, CompressSubBlocks(text, DefaultSubBlockParams())); return b }(),
	} {
		f.Add(blob[:len(blob)*2/3]) // truncated stream
		flipped := append([]byte(nil), blob...)
		flipped[1] ^= 0x04 // a bit of the header's length
		f.Add(flipped)
	}
	f.Add([]byte{ModeLZSS})
	f.Add([]byte{ModeLZSS, 1})
	f.Add([]byte{ModeLZSS, 1, 0})
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	f.Add(every)
	f.Add(bytes.Repeat([]byte{ModeLZSS}, 512))
	f.Add(bytes.Repeat([]byte{ModeSubIdx}, 512))
	prefix := []byte("pre")
	f.Fuzz(func(t *testing.T, junk []byte) {
		out, err, alloc := decompressMeasured(prefix, junk)
		_, _, alloc2 := decompressMeasured(prefix, junk)
		// The smaller of two runs keeps a background allocation out of the
		// verdict.
		if limit := 8<<10 + 32*uint64(len(junk)); min(alloc, alloc2) > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(junk), min(alloc, alloc2), limit)
		}
		ref, rerr := decompressRef(append([]byte(nil), prefix...), junk)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Decompress err=%v, reference err=%v", err, rerr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !bytes.Equal(out, prefix) {
				t.Fatalf("rejected input: err=%v, dst %q", err, out)
			}
			return
		}
		if !bytes.Equal(out, ref) {
			t.Fatal("Decompress diverges from the reference decoder")
		}
		if len(junk) > 0 && (junk[0] == ModeSub || junk[0] == ModeQLZ) {
			t.Fatalf("retired mode %d blob accepted", junk[0])
		}
		// A valid blob must re-encode/round trip consistently.
		re, _ := Compress(nil, out[len(prefix):], DefaultParams())
		back, err2 := Decompress(nil, re)
		if err2 != nil || !bytes.Equal(back, out[len(prefix):]) {
			t.Fatalf("re-encode of valid decode failed: %v", err2)
		}
	})
}

// FuzzMatchLen: the word-wise matchLen must agree with the scalar
// reference loop for every (data, a, b, max) the encoder can legally form,
// including overlapping ranges (b-a < 8) and mismatches at every byte lane.
func FuzzMatchLen(f *testing.F) {
	for _, data := range corpus() {
		f.Add(data, 0, 1, MaxMatch)
		f.Add(data, 3, 5, 256)
	}
	f.Add(bytes.Repeat([]byte{7}, 64), 0, 1, 63)
	f.Fuzz(func(t *testing.T, data []byte, a, b, max int) {
		if len(data) == 0 {
			return
		}
		// Normalize to the encoder's contract: 0 <= a < b < len(data),
		// 0 <= max <= len(data)-b.
		a %= len(data)
		if a < 0 {
			a = -a % len(data)
		}
		b %= len(data)
		if b < 0 {
			b = -b % len(data)
		}
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if max < 0 {
			max = -max
		}
		if max > len(data)-b {
			max %= len(data) - b + 1
		}
		got := matchLen(data, a, b, max)
		want := matchLenRef(data, a, b, max)
		if got != want {
			t.Fatalf("a=%d b=%d max=%d: matchLen=%d, ref=%d", a, b, max, got, want)
		}
	})
}

// FuzzCompressRoundTrip: the codec must round trip any input.
func FuzzCompressRoundTrip(f *testing.F) {
	for _, data := range corpus() {
		f.Add(data)
		f.Add(bytes.Repeat(data, 2)) // the second copy repeats from one input length back
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		blob, st := Compress(nil, data, DefaultParams())
		if st.DstBytes != len(blob) {
			t.Fatal("stats mismatch")
		}
		out, err := Decompress(nil, blob)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

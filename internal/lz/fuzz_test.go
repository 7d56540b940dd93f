package lz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// FuzzDecompress: the decoder must never panic and never mis-handle
// arbitrary input; valid blobs from both codecs must round trip.
func FuzzDecompress(f *testing.F) {
	for _, data := range corpus() {
		blob, _ := Compress(nil, data, DefaultParams())
		f.Add(blob)
		qblob, _ := CompressQLZ(nil, data)
		f.Add(qblob)
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
	f.Add([]byte{ModeSub, 4, 2, 1, 1, 0, 0})
	f.Add([]byte{ModeSub, 0x04, 0xFF, 0xFF, 0x03})    // part count > payload
	f.Add([]byte{ModeSubIdx, 0x04, 0xFF, 0xFF, 0x03}) // same, indexed mode
	f.Add([]byte{ModeSubIdx, 0, 0})                   // empty indexed container
	f.Add([]byte{99, 0})
	f.Fuzz(func(t *testing.T, junk []byte) {
		out, err := Decompress(nil, junk)
		if len(junk) > 0 && junk[0] == ModeSub && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("retired ModeSub blob must be ErrCorrupt, got %v", err)
		}
		if err == nil && len(junk) > 0 {
			// A valid blob must re-encode/round trip consistently.
			re, _ := Compress(nil, out, DefaultParams())
			back, err2 := Decompress(nil, re)
			if err2 != nil || !bytes.Equal(back, out) {
				t.Fatalf("re-encode of valid decode failed: %v", err2)
			}
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

// FuzzCompressRoundTrip: both codecs must round trip any input.
func FuzzCompressRoundTrip(f *testing.F) {
	for _, data := range corpus() {
		f.Add(data, true)
		f.Add(data, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, useQLZ bool) {
		codec := CodecLZSS
		if useQLZ {
			codec = CodecQLZ
		}
		blob, st := CompressCodec(codec, nil, data, DefaultParams())
		if st.DstBytes != len(blob) {
			t.Fatal("stats mismatch")
		}
		out, err := Decompress(nil, blob)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

package lz

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// corpus builds test payloads of varying compressibility.
func corpus() map[string][]byte {
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 4096)
	rng.Read(random)
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 100)
	periodic := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 700)
	mixed := append(append([]byte{}, random[:2048]...), bytes.Repeat([]byte{0}, 2048)...)
	return map[string][]byte{
		"empty":    {},
		"onebyte":  {42},
		"zeros":    make([]byte, 4096),
		"random":   random,
		"text":     text,
		"periodic": periodic,
		"mixed":    mixed,
		"tiny":     []byte("abc"),
	}
}

func TestCompressRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		blob, st := Compress(nil, data, DefaultParams())
		if st.SrcBytes != len(data) || st.DstBytes != len(blob) {
			t.Fatalf("%s: stats mismatch: %+v vs blob %d", name, st, len(blob))
		}
		out, err := Decompress(nil, blob)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestCompressibleDataCompresses(t *testing.T) {
	data := corpus()
	for _, name := range []string{"zeros", "text", "periodic"} {
		_, st := Compress(nil, data[name], DefaultParams())
		if st.Ratio() < 2.0 {
			t.Errorf("%s: ratio %.2f, want >= 2", name, st.Ratio())
		}
	}
}

func TestRandomDataStoredRaw(t *testing.T) {
	data := corpus()["random"]
	blob, st := Compress(nil, data, DefaultParams())
	if blob[0] != ModeRaw {
		t.Fatalf("random data should store raw, mode %d", blob[0])
	}
	if st.DstBytes > len(data)+4 {
		t.Fatalf("raw overhead too large: %d vs %d", st.DstBytes, len(data))
	}
	if st.Ratio() > 1.0 {
		t.Fatalf("raw ratio should be <= 1: %g", st.Ratio())
	}
}

func TestZerosRatioHigh(t *testing.T) {
	_, st := Compress(nil, make([]byte, 4096), DefaultParams())
	// 4096 zero bytes: matches of 18 bytes cost 2 bytes + flag bits.
	if st.Ratio() < 7 {
		t.Fatalf("all-zeros ratio only %.2f", st.Ratio())
	}
	if st.Matches == 0 {
		t.Fatal("no matches on all-zeros input")
	}
}

func TestSearchStepsTracked(t *testing.T) {
	_, st := Compress(nil, corpus()["text"], DefaultParams())
	if st.SearchSteps == 0 {
		t.Fatal("text input must exercise the match search")
	}
	// Deeper chains do at least as much work.
	_, deep := Compress(nil, corpus()["text"], Params{MaxChain: 256})
	if deep.SearchSteps < st.SearchSteps {
		t.Fatalf("deeper chain searched less: %d < %d", deep.SearchSteps, st.SearchSteps)
	}
}

func TestMaxChainImprovesOrEqualRatio(t *testing.T) {
	data := corpus()["text"]
	_, shallow := Compress(nil, data, Params{MaxChain: 1})
	_, deep := Compress(nil, data, Params{MaxChain: 64})
	if deep.DstBytes > shallow.DstBytes {
		t.Fatalf("deeper search compressed worse: %d > %d", deep.DstBytes, shallow.DstBytes)
	}
}

func TestCompressAppendsToDst(t *testing.T) {
	prefix := []byte("header")
	blob, _ := Compress(append([]byte{}, prefix...), []byte("payload payload payload"), DefaultParams())
	if !bytes.HasPrefix(blob, prefix) {
		t.Fatal("Compress must append to dst")
	}
	out, err := Decompress(nil, blob[len(prefix):])
	if err != nil || string(out) != "payload payload payload" {
		t.Fatalf("decode after prefix: %q %v", out, err)
	}
}

func TestDecompressAppendsToDst(t *testing.T) {
	blob, _ := Compress(nil, []byte("xyz"), DefaultParams())
	out, err := Decompress([]byte("pre"), blob)
	if err != nil || string(out) != "prexyz" {
		t.Fatalf("append decode: %q %v", out, err)
	}
}

func TestDecompressRejectsCorruption(t *testing.T) {
	blob, _ := Compress(nil, corpus()["text"], DefaultParams())
	cases := map[string][]byte{
		"empty":     {},
		"bad mode":  {99, 1, 'a'},
		"truncated": blob[:len(blob)/2],
		"short raw": {ModeRaw, 10, 'a'},
	}
	for name, b := range cases {
		if _, err := Decompress(nil, b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

func TestDecompressRejectsBadOffset(t *testing.T) {
	// Handcraft a stream whose first item is a match (nothing to point at).
	stream := []byte{ModeLZSS, 3, 0x01, 0x00, 0x10} // flags=1 -> match, offset 1 len 3 at pos 0
	if _, err := Decompress(nil, stream); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("offset before start: got %v", err)
	}
}

func TestDecompressLengthMismatch(t *testing.T) {
	blob, _ := Compress(nil, []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaa"), DefaultParams())
	blob[1] = 5 // lie about the source length
	if _, err := Decompress(nil, blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("length mismatch: got %v", err)
	}
}

func TestMatchTokenBounds(t *testing.T) {
	// Exercise maximum-length matches and window-distance matches.
	data := make([]byte, 0, 8192)
	pattern := make([]byte, 64)
	rand.New(rand.NewSource(3)).Read(pattern)
	data = append(data, pattern...)
	filler := make([]byte, Window-len(pattern))
	rand.New(rand.NewSource(4)).Read(filler)
	data = append(data, filler...)
	data = append(data, pattern...) // exactly Window away
	blob, _ := Compress(nil, data, Params{MaxChain: 1024})
	out, err := Decompress(nil, blob)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("window-edge round trip failed: %v", err)
	}
}

// Property: round trip is identity for arbitrary inputs and chain depths.
func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte, chainRaw uint8) bool {
		p := Params{MaxChain: int(chainRaw%64) + 1}
		blob, st := Compress(nil, data, p)
		if st.DstBytes != len(blob) {
			return false
		}
		out, err := Decompress(nil, blob)
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: repetitive generated inputs round trip and never expand by more
// than the header.
func TestRepetitiveRoundTripProperty(t *testing.T) {
	f := func(seed int64, period uint8, lenRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		p := int(period%32) + 1
		n := int(lenRaw % 8192)
		pat := make([]byte, p)
		rng.Read(pat)
		data := bytes.Repeat(pat, n/p+1)[:n]
		blob, st := Compress(nil, data, DefaultParams())
		if st.DstBytes > len(data)+4 {
			return false
		}
		out, err := Decompress(nil, blob)
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz-ish property: the decoder never panics on arbitrary input.
func TestDecoderTotalProperty(t *testing.T) {
	f := func(junk []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("decoder panicked")
			}
		}()
		_, _ = Decompress(nil, junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

package lz

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// matchLenRef is the original scalar byte-at-a-time comparison loop, kept
// as the reference the word-wise matchLen must agree with exactly. The
// differential tests and FuzzMatchLen below hold the two together over
// random and adversarial overlaps; the golden table further down pins the
// encoder's observable output (token bytes and SearchSteps) to the values
// the scalar loop produced, so the optimization cannot drift the virtual
// cost model.
func matchLenRef(data []byte, a, b, max int) int {
	n := 0
	for n < max && data[a+n] == data[b+n] {
		n++
	}
	return n
}

// matchLenCases enumerates (data, a, b, max) triples that exercise the
// word-wise loop's edges: mismatches inside the first word, on every byte
// lane, exactly at the tail, and runs longer than several words.
func matchLenCases() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var cases [][]byte
	// Fully equal halves of varying lengths, including non-multiples of 8.
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 255, 256, 300} {
		half := make([]byte, n)
		rng.Read(half)
		cases = append(cases, append(append([]byte{}, half...), half...))
	}
	// Equal halves with a single mismatch planted at every early position.
	for planted := 0; planted < 24; planted++ {
		half := make([]byte, 40)
		rng.Read(half)
		data := append(append([]byte{}, half...), half...)
		data[len(half)+planted] ^= 0x5a
		cases = append(cases, data)
	}
	// Pure random (mismatch almost immediately) and all-equal bytes.
	random := make([]byte, 512)
	rng.Read(random)
	cases = append(cases, random, bytes.Repeat([]byte{0xee}, 512))
	return cases
}

func TestMatchLenMatchesReference(t *testing.T) {
	for ci, data := range matchLenCases() {
		for a := 0; a < len(data) && a < 48; a++ {
			for b := a + 1; b < len(data); b += 7 {
				for _, max := range []int{0, 1, 4, 7, 8, 16, 18, 256, len(data) - b} {
					if max > len(data)-b {
						continue
					}
					got := matchLen(data, a, b, max)
					want := matchLenRef(data, a, b, max)
					if got != want {
						t.Fatalf("case %d a=%d b=%d max=%d: matchLen=%d, ref=%d", ci, a, b, max, got, want)
					}
				}
			}
		}
	}
}

// TestMatchLenOverlapping covers the self-referential case the encoder
// relies on for run-length-style matches: a and b close together, so the
// compared ranges overlap.
func TestMatchLenOverlapping(t *testing.T) {
	data := bytes.Repeat([]byte{1, 2, 3}, 100)
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 24; b++ {
			for max := 0; max <= len(data)-b; max += 5 {
				got := matchLen(data, a, b, max)
				want := matchLenRef(data, a, b, max)
				if got != want {
					t.Fatalf("a=%d b=%d max=%d: matchLen=%d, ref=%d", a, b, max, got, want)
				}
			}
		}
	}
}

// encoderGoldens pins Compress output bytes (sha256 prefix) and
// SearchSteps on the shared test corpus to the values recorded with the
// scalar matcher, before matchLen went word-wise and find gained the
// best-len rejection probe. SearchSteps feeds the virtual-time cost model,
// and the token bytes feed the golden Report/trace files in internal/core —
// neither may move. cfg names the Params: DefaultParams for every row.
var encoderGoldens = []struct {
	name, cfg string
	steps     int
	dstBytes  int
	sum       string
}{
	{"empty", "default", 0, 2, "96a296d224f285c6"},
	{"mixed", "default", 366, 2551, "78df75e04e7d6353"},
	{"onebyte", "default", 0, 3, "e5d8594f7b3e3d1e"},
	{"periodic", "default", 272, 589, "e60c8a8ace704e4a"},
	{"random", "default", 1093, 4099, "c4fa2661692f006e"},
	{"text", "default", 299, 580, "7d131088e8c64e0f"},
	{"tiny", "default", 0, 5, "757f0dea9aa0c1f8"},
	{"zeros", "default", 228, 489, "edb395802de7131d"},
}

func TestEncoderOutputUnchangedByMatcherOptimization(t *testing.T) {
	data := corpus()
	for _, g := range encoderGoldens {
		blob, st := Compress(nil, data[g.name], DefaultParams())
		if st.SearchSteps != g.steps {
			t.Errorf("%s/%s: SearchSteps %d, golden %d (virtual-time cost model would shift)", g.name, g.cfg, st.SearchSteps, g.steps)
		}
		if st.DstBytes != g.dstBytes {
			t.Errorf("%s/%s: DstBytes %d, golden %d", g.name, g.cfg, st.DstBytes, g.dstBytes)
		}
		sum := sha256.Sum256(blob)
		if got := fmt.Sprintf("%x", sum[:8]); got != g.sum {
			t.Errorf("%s/%s: token bytes hash %s, golden %s", g.name, g.cfg, got, g.sum)
		}
	}
}

package lz

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// shapeOffsets are the match offsets the token loop copies differently:
// the broadcast (1), the short overlaps copyMatch takes (2–7), the first
// plain word offsets (8, 9) and the window's far end.
var shapeOffsets = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, Window - 1}

// matchShape builds a token stream of offset+8 random literals, one match
// of offset and length, then tail random literals, so the match ends tail
// bytes before the stream's end, and returns it with its decoded bytes.
func matchShape(rng *rand.Rand, offset, length, tail int) (stream, want []byte) {
	want = make([]byte, offset+8, offset+8+length+tail)
	rng.Read(want)
	stream = make([]byte, 2*(cap(want)+1))
	var w tokenWriter
	for _, b := range want {
		w = w.literal(stream, b)
	}
	w = w.match(stream, offset, length)
	for j := 0; j < length; j++ {
		want = append(want, want[len(want)-offset])
	}
	for j := 0; j < tail; j++ {
		b := byte(rng.Intn(256))
		want = append(want, b)
		w = w.literal(stream, b)
	}
	return stream[:w.n], want
}

// boundaryShape is one matchShape wrapped as a ModeLZSS blob and as part 0
// of a two-part ModeSubIdx container whose part 1 is 30 more literals, so
// the shape's end is a part boundary with another lane's bytes right after
// it. want is the container's output; the LZSS blob decodes to its first
// shapeLen bytes.
type boundaryShape struct {
	name      string
	lzss, sub []byte
	want      []byte
	shapeLen  int
}

// boundaryShapes builds one boundaryShape per shapeOffsets entry, length
// and tail; nil lengths or tails mean every length MinMatch–MaxMatch and
// every tail 0–25, across the 24-byte fallback edge.
func boundaryShapes(seed int64, lengths, tails []int) []boundaryShape {
	if lengths == nil {
		for l := MinMatch; l <= MaxMatch; l++ {
			lengths = append(lengths, l)
		}
	}
	if tails == nil {
		for tail := 0; tail <= 25; tail++ {
			tails = append(tails, tail)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var shapes []boundaryShape
	for _, offset := range shapeOffsets {
		for _, length := range lengths {
			for _, tail := range tails {
				stream, shape := matchShape(rng, offset, length, tail)
				lzss := appendUvarint([]byte{ModeLZSS}, uint64(len(shape)))
				after := make([]byte, 30)
				rng.Read(after)
				want := append(append([]byte(nil), shape...), after...)
				shapes = append(shapes, boundaryShape{
					name:     fmt.Sprintf("offset %d length %d tail %d", offset, length, tail),
					lzss:     append(lzss, stream...),
					sub:      buildSub(ModeSubIdx, len(want), [][]byte{stream, litStream(string(after))}, []int{len(shape), len(after)}),
					want:     want,
					shapeLen: len(shape),
				})
			}
		}
	}
	return shapes
}

// shapeSeeds samples the boundary shapes for the fuzz corpora: every
// offset, the shortest, a one-word and the longest match, ending on either
// side of the one- and three-word edges.
func shapeSeeds() (lzss, sub [][]byte) {
	for _, sh := range boundaryShapes(28, []int{MinMatch, 8, MaxMatch}, []int{0, 1, 7, 8, 23, 24, 25}) {
		lzss, sub = append(lzss, sh.lzss), append(sub, sh.sub)
	}
	return lzss, sub
}

// TestDecodeBoundaryShapes: every boundary shape decodes through
// Decompress like the byte-loop reference, in its ModeLZSS and ModeSubIdx
// blob. TestSubDecodeParallelDifferential takes the containers through the
// two-pass decode.
func TestDecodeBoundaryShapes(t *testing.T) {
	prefix := []byte("pre")
	for _, sh := range boundaryShapes(27, nil, nil) {
		for _, c := range []struct {
			blob, want []byte
		}{{sh.lzss, sh.want[:sh.shapeLen]}, {sh.sub, sh.want}} {
			got, err := Decompress(append([]byte(nil), prefix...), c.blob)
			ref, rerr := decompressRef(append([]byte(nil), prefix...), c.blob)
			if err != nil || rerr != nil {
				t.Fatalf("%s, mode %d: err=%v, reference err=%v", sh.name, c.blob[0], err, rerr)
			}
			if !bytes.Equal(got, ref) || !bytes.Equal(got[len(prefix):], c.want) {
				t.Fatalf("%s, mode %d: decode diverges from the reference", sh.name, c.blob[0])
			}
		}
	}
}

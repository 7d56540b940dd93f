package lz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// ErrCorrupt is wrapped by every decode error.
var ErrCorrupt = errors.New("lz: corrupt input")

var errOverrun = fmt.Errorf("%w: stream decodes past its end", ErrCorrupt)

// Decompress decodes a blob produced by Compress or PostProcess, appending
// the output to dst. It validates the format strictly: bad modes, offsets
// reaching before the output start, truncated streams, and length
// mismatches all return errors wrapping ErrCorrupt, with dst's length and
// contents unchanged. Its spare capacity may have been written: the
// token-stream modes decode in place there, word slack included.
//
// The token-stream modes check the header's length against the payload's
// maximum expansion first, then grow dst once and decode in place, so a
// tiny corrupt input cannot allocate much.
func Decompress(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return dst, fmt.Errorf("%w: empty blob", ErrCorrupt)
	}
	mode := src[0]
	srcLen, n := binary.Uvarint(src[1:])
	if n <= 0 {
		return dst, fmt.Errorf("%w: bad length varint", ErrCorrupt)
	}
	if srcLen > 1<<30 {
		return dst, fmt.Errorf("%w: implausible source length %d", ErrCorrupt, srcLen)
	}
	payload := src[1+n:]
	base := len(dst)
	switch mode {
	case ModeRaw:
		if uint64(len(payload)) != srcLen {
			return dst, fmt.Errorf("%w: raw payload %d bytes, header says %d", ErrCorrupt, len(payload), srcLen)
		}
		return append(dst, payload...), nil
	case ModeLZSS:
		// The bound ResolveSubBlocks applies per part (see there).
		if srcLen > uint64(len(payload))*(MaxMatch/2) {
			return dst, fmt.Errorf("%w: source length %d implausible for %d token bytes", ErrCorrupt, srcLen, len(payload))
		}
		out := slices.Grow(dst, int(srcLen))[:base+int(srcLen)]
		_, end, _, err := decodeInto(out[base:], payload, 0, int(srcLen), 0, nil)
		if err == nil && end != int(srcLen) {
			err = fmt.Errorf("%w: decoded %d bytes, header says %d", ErrCorrupt, end, srcLen)
		}
		if err != nil {
			return dst, err
		}
		return out, nil
	case ModeSubIdx:
		// Parts decode in order into one output, so a match reaching into an
		// earlier part (the overlap history) finds its bytes written and
		// nothing defers. The table scratch for up to eight parts — every
		// container the write path makes — stays on the stack.
		var parts [8]SubPart
		var tokLens [8]int
		lay := SubLayout{Parts: parts[:0], tokLens: tokLens[:0]}
		if _, err := ResolveSubBlocks(&lay, src); err != nil {
			return dst, err
		}
		out := slices.Grow(dst, lay.SrcLen)[:base+lay.SrcLen]
		for i := range lay.Parts {
			if _, _, err := decodePart(out[base:], &lay, i, 0, nil); err != nil {
				return dst, err
			}
		}
		return out, nil
	default: // including the retired ModeSub and ModeQLZ
		return dst, fmt.Errorf("%w: unknown mode %d", ErrCorrupt, mode)
	}
}

// decodeInto is the LZSS token loop: it decodes stream in place into
// out[pos:end]. Matches may reach back to out[0]. One whose source starts
// below lo — bytes another lane owns — or overlaps a hole an earlier
// deferral of this stream left is appended to deferred instead of copied,
// so lo = 0 defers nothing. It returns the grown deferred list, the
// position the stream stopped at (short of end when the stream is; the
// caller names the length it was promised), the number of tokens decoded
// (the GPU cost model's work term), and the first corruption found, an
// overrun of end included.
//
// Copies are word-granular. Up to 24 bytes past what a token produces may
// be written, but never at or past end: that slack lies in [pos, end),
// which the stream overwrites later, so lanes sharing out never touch each
// other's bytes. A match within 24 bytes of end, or with offset 2–7, takes
// the exact-length copyMatch instead.
func decodeInto(out, stream []byte, pos, end, lo int, deferred []DeferredCopy) ([]DeferredCopy, int, int, error) {
	tokens := 0
	holes := len(deferred) // this stream's own deferred entries start here
	for i := 0; i < len(stream); {
		flags := stream[i]
		i++
		if i == len(stream) {
			// The encoder emits a flag byte only when it is about to write
			// an item (tokenWriter), so a stream ending right after one is
			// provably truncated.
			return deferred, pos, tokens, fmt.Errorf("%w: dangling flag byte", ErrCorrupt)
		}
		if flags == 0 && pos+8 <= end && i+8 <= len(stream) {
			// A full all-literal group — the dominant case for poorly
			// compressible data — is one word.
			binary.LittleEndian.PutUint64(out[pos:], binary.LittleEndian.Uint64(stream[i:]))
			i += 8
			pos += 8
			tokens += 8
			continue
		}
		for bit := 0; bit < 8 && i < len(stream); {
			if flags&(1<<uint(bit)) == 0 {
				// A run of literal bits is one bounds check and, with 8
				// bytes of room, one word.
				n := min(bits.TrailingZeros8(flags>>uint(bit)), 8-bit, len(stream)-i)
				if pos+n > end {
					return deferred, pos, tokens, errOverrun
				}
				if pos+8 <= end && i+8 <= len(stream) {
					binary.LittleEndian.PutUint64(out[pos:], binary.LittleEndian.Uint64(stream[i:]))
				} else {
					copy(out[pos:pos+n], stream[i:i+n])
				}
				i += n
				pos += n
				tokens += n
				bit += n
				continue
			}
			bit++
			if i+2 > len(stream) {
				return deferred, pos, tokens, fmt.Errorf("%w: truncated match token", ErrCorrupt)
			}
			v := uint16(stream[i])<<8 | uint16(stream[i+1])
			i += 2
			offset := int(v>>4) + 1
			length := int(v&0xF) + MinMatch
			if pos+length > end {
				return deferred, pos, tokens, errOverrun
			}
			src := pos - offset
			if src < 0 {
				return deferred, pos, tokens, fmt.Errorf("%w: match offset %d reaches before output start", ErrCorrupt, offset)
			}
			tokens++
			if src < lo || (len(deferred) > holes && overlapsHole(deferred[holes:], src, length)) {
				deferred = append(deferred, DeferredCopy{Dst: int32(pos), Src: int32(src), Len: int32(length)})
				pos += length
				continue
			}
			if pos+3*8 > end || offset > 1 && offset < 8 {
				copyMatch(out, pos, src, length)
				pos += length
				continue
			}
			// Three words cover MaxMatch; the slack past pos+length stays in
			// [pos, end). Output byte pos+j for j < length reads only
			// out[src+j%offset] — never a hole or a byte below lo — so a
			// word's other bytes can only feed the slack.
			d := out[pos : pos+3*8]
			if offset == 1 {
				w := uint64(out[src]) * 0x0101010101010101
				binary.LittleEndian.PutUint64(d, w)
				binary.LittleEndian.PutUint64(d[8:], w)
				binary.LittleEndian.PutUint64(d[16:], w)
			} else {
				// Each word's source lies wholly before its destination.
				binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(out[src:]))
				binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(out[src+8:]))
				binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(out[src+16:]))
			}
			pos += length
		}
	}
	return deferred, pos, tokens, nil
}

// copyMatch is LZ77's self-copy out[dst:dst+n] = out[src:src+n], src <
// dst, as if byte by byte: where the ranges overlap the output repeats
// with period dst-src. Each copy doubles the final run it reads from.
func copyMatch(out []byte, dst, src, n int) {
	for n > 0 {
		k := copy(out[dst:dst+n], out[src:dst])
		dst += k
		n -= k
	}
}

// overlapsHole reports whether [src, src+length) intersects any hole in
// holes (this stream's earlier deferred matches, ascending in Dst). A
// source overlapping a hole would read bytes not yet written, so the match
// must defer too.
func overlapsHole(holes []DeferredCopy, src, length int) bool {
	// First hole ending after src; it is the only candidate that can
	// intersect, holes being disjoint and ascending.
	i := sort.Search(len(holes), func(i int) bool {
		return int(holes[i].Dst+holes[i].Len) > src
	})
	return i < len(holes) && int(holes[i].Dst) < src+length
}

package lz

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file is the read-side mirror of CompressSubBlocks/PostProcess: the
// two-pass parallel decoder for mode-4 indexed sub-block containers.
//
// Massively-parallel decompression (Sitaridi et al., GPULZ) hinges on one
// trick: token streams are sequential, so before lanes can decode
// sub-blocks independently someone must know where each sub-block's tokens
// begin and where its output lands. Pass 1 (ResolveSubBlocks) reads the
// boundary/length table PostProcess wrote and resolves both without
// touching a single token. Pass 2 (DecodeSubPart, one call per part, safe
// to run concurrently) decodes each part into its own disjoint slice of
// the output. The only coupling left is the overlap history: a match near
// a part's start may reach back into bytes a *different* lane owns, which
// are not guaranteed to exist yet — those copies are deferred and patched
// in by a cheap sequential pass (ResolveDeferred) once all lanes finish.

// SubPart is one lane's slice of an indexed sub-block container: its token
// stream and the exact output range it must produce.
type SubPart struct {
	Tokens   []byte // this part's token stream (aliases the blob)
	OutStart int    // offset of the part's output within the chunk
	OutLen   int    // exact bytes the part must produce (strict: enforced)
}

// SubLayout is the result of boundary resolution (pass 1) over a mode-4
// blob. The zero value is ready for use; Resolve reuses its backing arrays
// across blobs.
type SubLayout struct {
	SrcLen int
	Parts  []SubPart

	tokLens []int // parse scratch
}

// DeferredCopy is a match whose source bytes another lane owns (overlap
// history) or whose source overlaps a hole an earlier deferred match left:
// the parallel pass skips it and ResolveDeferred patches it in afterwards.
// Offsets are absolute indices into the chunk's output buffer.
type DeferredCopy struct {
	Dst, Src, Len int32
}

// ResolveSubBlocks performs pass 1 on blob: it parses the mode-4 header and
// boundary table into lay, validating part counts, per-part token/output
// lengths, and their sums, without decoding any tokens. It returns
// ok=false (and no error) when blob is not a mode-4 container — the caller
// falls back to the serial Decompress path.
func ResolveSubBlocks(lay *SubLayout, blob []byte) (ok bool, err error) {
	if len(blob) == 0 || blob[0] != ModeSubIdx {
		return false, nil
	}
	srcLen, n := binary.Uvarint(blob[1:])
	if n <= 0 {
		return true, fmt.Errorf("%w: bad length varint", ErrCorrupt)
	}
	if srcLen > 1<<30 {
		return true, fmt.Errorf("%w: implausible source length %d", ErrCorrupt, srcLen)
	}
	lay.SrcLen = int(srcLen)
	return true, parseSubIdx(lay, blob[1+n:])
}

// parseSubIdx parses a mode-4 payload (part count, boundary table, token
// streams) into lay, whose SrcLen the caller has already set. The table is
// fully cross-checked: token lengths must consume the payload exactly and
// output lengths must sum to SrcLen, so any truncation — of the table or
// of a stream — is caught here or by the per-part strict decode, never
// masked by a later part.
func parseSubIdx(lay *SubLayout, payload []byte) error {
	parts, n := binary.Uvarint(payload)
	if n <= 0 || parts > 1<<16 {
		return fmt.Errorf("%w: bad part count", ErrCorrupt)
	}
	payload = payload[n:]
	// Each part contributes at least two table bytes. Bounding the count by
	// the remaining payload before allocating keeps a tiny corrupt blob
	// from provoking a part-table allocation far larger than the input.
	if parts*2 > uint64(len(payload)) {
		return fmt.Errorf("%w: part count %d exceeds payload", ErrCorrupt, parts)
	}
	if cap(lay.Parts) < int(parts) {
		lay.Parts = make([]SubPart, parts)
		lay.tokLens = make([]int, parts)
	}
	lay.Parts = lay.Parts[:parts]
	lay.tokLens = lay.tokLens[:parts]
	outTotal := 0
	for i := range lay.Parts {
		tl, k := binary.Uvarint(payload)
		if k <= 0 || tl > 1<<30 {
			return fmt.Errorf("%w: bad token length for part %d", ErrCorrupt, i)
		}
		payload = payload[k:]
		ol, k2 := binary.Uvarint(payload)
		if k2 <= 0 || ol > 1<<30 {
			return fmt.Errorf("%w: bad output length for part %d", ErrCorrupt, i)
		}
		payload = payload[k2:]
		// A token stream expands at most MaxMatch/2 ×: a match token is two
		// stream bytes for up to MaxMatch output bytes, and flag bytes only
		// dilute that. A part promising more is corrupt — rejecting it here
		// (not at decode) keeps a few-byte table from vouching for a huge
		// SrcLen that callers sizing output buffers would allocate first.
		if ol > tl*(MaxMatch/2) {
			return fmt.Errorf("%w: part %d output length %d implausible for %d token bytes", ErrCorrupt, i, ol, tl)
		}
		lay.tokLens[i] = int(tl)
		lay.Parts[i] = SubPart{OutStart: outTotal, OutLen: int(ol)}
		outTotal += int(ol)
	}
	if outTotal != lay.SrcLen {
		return fmt.Errorf("%w: part outputs sum to %d bytes, header says %d", ErrCorrupt, outTotal, lay.SrcLen)
	}
	off := 0
	for i := range lay.Parts {
		tl := lay.tokLens[i]
		if off+tl > len(payload) {
			return fmt.Errorf("%w: part %d token stream truncated", ErrCorrupt, i)
		}
		lay.Parts[i].Tokens = payload[off : off+tl]
		off += tl
	}
	if off != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(payload)-off)
	}
	return nil
}

// DecodeSubPart is pass 2 for one part: it decodes part's token stream
// into out (which must be exactly lay.SrcLen bytes), writing only the
// bytes in [OutStart, OutStart+OutLen). Matches whose source reaches
// before OutStart (the overlap history, owned by another lane) or overlaps
// a hole an earlier deferred match left are appended to deferred instead
// of copied. It returns the grown deferred list, the number of tokens
// decoded (the GPU cost model's work term), and the first corruption
// found.
//
// Strictness is per part: a stream that produces more or fewer bytes than
// the boundary table promises is an error here, so a truncated part can
// never be masked by its neighbours. Distinct parts may decode
// concurrently over one shared out — each writes only its own range.
func DecodeSubPart(out []byte, lay *SubLayout, part int, deferred []DeferredCopy) ([]DeferredCopy, int, error) {
	p := lay.Parts[part]
	stream := p.Tokens
	pos, end := p.OutStart, p.OutStart+p.OutLen
	tokens := 0
	base := len(deferred) // this part's own deferred entries = its holes
	for i := 0; i < len(stream); {
		flags := stream[i]
		i++
		if i == len(stream) {
			return deferred, tokens, fmt.Errorf("%w: part %d: dangling flag byte", ErrCorrupt, part)
		}
		if flags == 0 {
			// All-literal group — the dominant case for poorly-compressible
			// data: one bounds check and one copy in place of eight bit
			// tests and eight byte stores.
			n := len(stream) - i
			if n > 8 {
				n = 8
			}
			if pos+n > end {
				return deferred, tokens, overrunErr(part, p)
			}
			copy(out[pos:pos+n], stream[i:i+n])
			pos += n
			i += n
			tokens += n
			continue
		}
		for bit := 0; bit < 8 && i < len(stream); bit++ {
			if flags&(1<<uint(bit)) == 0 {
				if pos >= end {
					return deferred, tokens, overrunErr(part, p)
				}
				out[pos] = stream[i]
				i++
				pos++
				tokens++
				continue
			}
			if i+2 > len(stream) {
				return deferred, tokens, fmt.Errorf("%w: part %d: truncated match token", ErrCorrupt, part)
			}
			v := uint16(stream[i])<<8 | uint16(stream[i+1])
			i += 2
			offset := int(v>>4) + 1
			length := int(v&0xF) + MinMatch
			if pos+length > end {
				return deferred, tokens, overrunErr(part, p)
			}
			src := pos - offset
			if src < 0 {
				return deferred, tokens, fmt.Errorf("%w: part %d: match offset %d reaches before output start", ErrCorrupt, part, offset)
			}
			tokens++
			if src < p.OutStart ||
				(len(deferred) > base && overlapsHole(deferred[base:], src, length)) {
				deferred = append(deferred, DeferredCopy{Dst: int32(pos), Src: int32(src), Len: int32(length)})
				pos += length
				continue
			}
			if offset >= length {
				// Source and destination are disjoint: memmove beats the
				// byte loop for every length over a few bytes.
				copy(out[pos:pos+length], out[src:src+length])
			} else {
				// Overlapping self-copy replicates byte-by-byte, as in the
				// serial decoder.
				for j := 0; j < length; j++ {
					out[pos+j] = out[src+j]
				}
			}
			pos += length
		}
	}
	if pos != end {
		return deferred, tokens, fmt.Errorf("%w: part %d decoded %d bytes, boundary table says %d", ErrCorrupt, part, pos-p.OutStart, p.OutLen)
	}
	return deferred, tokens, nil
}

func overrunErr(part int, p SubPart) error {
	return fmt.Errorf("%w: part %d produces more than the boundary table's %d bytes", ErrCorrupt, part, p.OutLen)
}

// overlapsHole reports whether [src, src+length) intersects any hole in
// holes (this part's earlier deferred matches, ascending in Dst). A source
// overlapping a hole would read bytes the parallel pass has not written,
// so the match must defer too.
func overlapsHole(holes []DeferredCopy, src, length int) bool {
	if len(holes) == 0 {
		return false
	}
	// First hole ending after src; it is the only candidate that can
	// intersect, holes being disjoint and ascending.
	i := sort.Search(len(holes), func(i int) bool {
		return int(holes[i].Dst+holes[i].Len) > src
	})
	return i < len(holes) && int(holes[i].Dst) < src+length
}

// ResolveDeferred patches in the copies the parallel pass deferred.
// Entries must be in the order DecodeSubPart produced them, parts in
// ascending order — the list is then ascending in Dst, so every entry's
// source bytes (always at lower offsets) are final before it runs, and
// byte order within an entry replicates overlapping self-copies exactly
// like the serial decoder.
func ResolveDeferred(out []byte, deferred []DeferredCopy) {
	for _, d := range deferred {
		for j := int32(0); j < d.Len; j++ {
			out[d.Dst+j] = out[d.Src+j]
		}
	}
}

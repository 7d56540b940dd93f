package lz

import (
	"encoding/binary"
	"fmt"
)

// decompressRef is Decompress as it was before the token-stream modes
// decoded in place: decodeTokens appends every literal and every match
// byte one at a time, and an indexed container's parts decode in order
// through it, each checked against the boundary table. It is kept as the
// differential oracle for the in-place loop (decodeInto), the way
// encodeRangeRef serves the encoder.
func decompressRef(dst, src []byte) ([]byte, error) {
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
		out, _, err := decodeTokens(dst, payload, base)
		if err != nil {
			return dst, err
		}
		if len(out)-base != int(srcLen) {
			return dst, fmt.Errorf("%w: decoded %d bytes, header says %d", ErrCorrupt, len(out)-base, srcLen)
		}
		return out, nil
	case ModeSubIdx:
		var lay SubLayout
		if _, err := ResolveSubBlocks(&lay, src); err != nil {
			return dst, err
		}
		out := dst
		for i := range lay.Parts {
			var produced int
			var err error
			out, produced, err = decodeTokens(out, lay.Parts[i].Tokens, base)
			if err != nil {
				return dst, fmt.Errorf("part %d: %w", i, err)
			}
			if produced != lay.Parts[i].OutLen {
				return dst, fmt.Errorf("%w: part %d decoded %d bytes, boundary table says %d", ErrCorrupt, i, produced, lay.Parts[i].OutLen)
			}
		}
		return out, nil
	default:
		return dst, fmt.Errorf("%w: unknown mode %d", ErrCorrupt, mode)
	}
}

// decodeTokens decodes one flag-interleaved token stream, appending to dst.
// Matches may reach back to dst[base:]. It returns the extended buffer and
// the number of output bytes produced.
func decodeTokens(dst, stream []byte, base int) ([]byte, int, error) {
	produced := 0
	i := 0
	for i < len(stream) {
		flags := stream[i]
		i++
		if i == len(stream) {
			return dst, produced, fmt.Errorf("%w: dangling flag byte", ErrCorrupt)
		}
		for bit := 0; bit < 8 && i < len(stream); bit++ {
			if flags&(1<<uint(bit)) == 0 {
				dst = append(dst, stream[i])
				i++
				produced++
				continue
			}
			if i+2 > len(stream) {
				return dst, produced, fmt.Errorf("%w: truncated match token", ErrCorrupt)
			}
			v := uint16(stream[i])<<8 | uint16(stream[i+1])
			i += 2
			offset := int(v>>4) + 1
			length := int(v&0xF) + MinMatch
			pos := len(dst)
			if pos-offset < base {
				return dst, produced, fmt.Errorf("%w: match offset %d reaches before output start", ErrCorrupt, offset)
			}
			for j := 0; j < length; j++ {
				dst = append(dst, dst[pos-offset+j])
			}
			produced += length
		}
	}
	return dst, produced, nil
}

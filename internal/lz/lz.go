// Package lz implements the LZ compression half of the pipeline: a real
// LZSS codec of the class primary storage systems use inline (§2: history
// buffer + look-ahead buffer, match replaces the look-ahead sequence with a
// pointer into the history buffer), in the three shapes the paper needs:
//
//   - Compress/Decompress: the single-stream CPU codec (the "previously
//     studied compression algorithm" each CPU worker thread runs per chunk,
//     §3.2(1); QuickLZ-class in the paper's evaluation).
//   - CompressSubBlocks: the GPU kernel's shape (§3.2(2)) — several lanes
//     per 4 KB chunk, each compressing its own sub-block with its own
//     history/look-ahead buffers, adjacent lanes overlapping by part of the
//     history window so cross-boundary redundancy is not all lost.
//   - PostProcess: the CPU refinement step (§3.2(2)) that stitches the raw
//     per-lane token streams into the final container and falls back to a
//     raw store when compression did not pay.
//
// Every encoder reports Stats with the real work performed (bytes, tokens,
// match-search steps), which the CPU and GPU cost models convert into
// virtual time — so compressible data is faster, exactly as on hardware.
//
// # Format
//
// A compressed blob is: one mode byte, a uvarint source length, then a
// payload.
//
//	mode 0 (raw):  payload is the source verbatim.
//	mode 1 (lzss): payload is an LZSS token stream.
//	mode 2 (sub):  retired table-less sub-block container. Nothing writes
//	               it and nothing persists across versions, so the decoder
//	               rejects it as corrupt; the number stays reserved.
//	mode 4 (sub, indexed): uvarint part count, then per part a uvarint
//	               token length AND a uvarint output length (the boundary
//	               table), then the token streams. The output lengths let a
//	               decoder resolve every part's output range without
//	               touching a token — sub-blocks then decode independently
//	               (see ResolveSubBlocks/DecodeSubPart) — and pin each
//	               part's produced bytes exactly, so a truncated part is an
//	               error instead of being masked by the parts after it.
//	               This is what PostProcess writes.
//
// The token stream is flag-byte interleaved: each flag byte describes the
// next 8 items, LSB first; bit 0 = literal (1 byte), bit 1 = match (2
// bytes: 12-bit offset-1, 4-bit length-MinMatch).
package lz

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Format constants. Window/offset/length widths are fixed by the 2-byte
// match token encoding.
const (
	Window    = 4096 // history buffer size (12-bit offsets)
	MinMatch  = 3    // shortest encodable match
	MaxMatch  = 18   // longest encodable match (4-bit length field)
	hashBits  = 13
	hashShift = 32 - hashBits
)

// Blob modes.
const (
	ModeRaw  = 0
	ModeLZSS = 1
	ModeSub  = 2 // retired table-less sub-block container: reserved, rejected on decode
	ModeQLZ  = 3
	// ModeSubIdx is the indexed sub-block container: per-part token streams
	// behind a boundary table of (token length, output length) pairs,
	// written so sub-blocks can decode independently.
	ModeSubIdx = 4
)

// Codec selects the CPU compression algorithm.
type Codec int

const (
	// CodecLZSS is the hash-chain LZSS encoder (better ratio).
	CodecLZSS Codec = iota
	// CodecQLZ is the QuickLZ-class single-probe encoder (faster, the
	// paper's CPU baseline family).
	CodecQLZ
)

// String names the codec.
func (c Codec) String() string {
	switch c {
	case CodecLZSS:
		return "lzss"
	case CodecQLZ:
		return "qlz"
	default:
		return fmt.Sprintf("codec(%d)", int(c))
	}
}

// CompressCodec dispatches to the selected codec. Params applies to LZSS
// only (QLZ has no tuning knobs, like its namesake's level 1).
func CompressCodec(c Codec, dst, src []byte, p Params) ([]byte, Stats) {
	if c == CodecQLZ {
		return CompressQLZ(dst, src)
	}
	return Compress(dst, src, p)
}

// Params tune the encoder's match search.
type Params struct {
	// MaxChain bounds the hash-chain probes per position: the encoder's
	// effort/ratio knob. Higher finds better matches but costs more
	// search steps (virtual time).
	MaxChain int
	// Lazy enables one-step lazy matching: when a match is found, the
	// encoder also tries the next position and emits a literal instead if
	// the deferred match is strictly longer. Better ratio for roughly one
	// extra search per match.
	Lazy bool
}

// DefaultParams returns the fast, storage-inline-grade search depth.
func DefaultParams() Params { return Params{MaxChain: 16} }

// BestParams returns the slower, better-ratio configuration (deep chains
// plus lazy matching) for offline or background recompression.
func BestParams() Params { return Params{MaxChain: 64, Lazy: true} }

// Stats reports the real work an encode performed.
type Stats struct {
	SrcBytes  int // input bytes
	DstBytes  int // output bytes including header
	Literals  int // literal tokens emitted
	Matches   int // match tokens emitted
	Positions int // encoder positions processed (literals + matches); the
	// dominant work term — long matches advance many bytes per position,
	// which is why compressible data encodes faster
	SearchSteps int // hash-chain candidates examined
}

// Ratio returns SrcBytes/DstBytes (the paper's "compression ratio"), or 0
// when nothing was produced.
func (s Stats) Ratio() float64 {
	if s.DstBytes == 0 {
		return 0
	}
	return float64(s.SrcBytes) / float64(s.DstBytes)
}

func hash4(v uint32) uint32 {
	return (v * 2654435761) >> hashShift
}

// matcher is a hash-chain match finder over one contiguous buffer. The
// head table stores position+1 (0 = empty chain), so resetting it is one
// memclr instead of a -1 fill; prev stores real positions (-1 = end).
type matcher struct {
	head [1 << hashBits]int32
	prev []int32
	data []byte
	size int // pool size class (see matcherPools)
}

// matcherPools recycle matchers across encodes, bucketed by the prev
// chain's power-of-two size class: the head table and prev chain together
// are ~48 KB per 4 KB chunk, by far the codec's largest allocation, and
// resetting them is much cheaper than reallocating under GC pressure.
// Bucketing by size keeps a matcher sized for 4 KB chunks from ping-ponging
// with the sub-block encoder's much smaller lanes (or an occasional large
// buffer), so a Get almost never reallocates prev. Each pool is safe for
// the engine's concurrent compression workers.
var matcherPools [32]sync.Pool

// matcherSizeClass returns the bucket index for a buffer of n bytes: the
// smallest power of two >= n (class 0 holds n <= 1).
func matcherSizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func newMatcher(data []byte) *matcher {
	class := matcherSizeClass(len(data))
	m, _ := matcherPools[class].Get().(*matcher)
	if m == nil {
		m = &matcher{prev: make([]int32, 1<<class), size: class}
	}
	m.data = data
	m.prev = m.prev[:len(data)]
	clear(m.head[:])
	return m
}

// release returns the matcher to the pool; the caller must not use it
// afterwards.
func (m *matcher) release() {
	m.data = nil
	matcherPools[m.size].Put(m)
}

func (m *matcher) insert(pos int) {
	if pos+4 > len(m.data) {
		return
	}
	h := hash4(binary.LittleEndian.Uint32(m.data[pos:]))
	m.prev[pos] = m.head[h] - 1
	m.head[h] = int32(pos) + 1
}

// find returns the best match for pos looking back at most `reach` bytes
// (bounded by the format window) and reports the chain steps examined.
//
// The steps accounting is part of the virtual-time cost model and counts
// chain candidates EXAMINED, exactly as the original scalar walk did; the
// best-len-first rejection probe below only avoids the full matchLen walk
// for candidates that cannot beat the current best (their byte at offset
// bestLen differs, so their match length is <= bestLen), never changing
// which candidates count as a step or what the function returns.
func (m *matcher) find(pos, reach, maxChain int) (offset, length, steps int) {
	if pos+4 > len(m.data) {
		// Too close to the end to hash a 4-byte group; emit literals.
		return 0, 0, 0
	}
	if reach > Window {
		reach = Window
	}
	limit := pos - reach
	if limit < 0 {
		limit = 0
	}
	maxLen := len(m.data) - pos
	if maxLen > MaxMatch {
		maxLen = MaxMatch
	}
	h := hash4(binary.LittleEndian.Uint32(m.data[pos:]))
	cand := m.head[h] - 1
	bestLen, bestOff := 0, 0
	data := m.data
	for cand >= 0 && int(cand) >= limit && steps < maxChain {
		steps++
		c := int(cand)
		// Rejection probe: while bestLen < maxLen (guaranteed — a maxLen
		// match breaks out below), a candidate whose byte at bestLen
		// mismatches can only match <= bestLen bytes and cannot improve
		// the result; skip its compare loop entirely.
		if c < pos && data[c+bestLen] == data[pos+bestLen] {
			l := matchLen(data, c, pos, maxLen)
			if l > bestLen {
				bestLen, bestOff = l, pos-c
				if l == maxLen {
					break
				}
			}
		}
		cand = m.prev[cand]
	}
	if bestLen < MinMatch {
		return 0, 0, steps
	}
	return bestOff, bestLen, steps
}

// matchLen returns how many of the first max bytes at data[a:] and
// data[b:] are equal, comparing word-at-a-time with a scalar tail. Callers
// guarantee a < b and b+max <= len(data), so every 8-byte load inside the
// word loop (n+8 <= max) is in bounds for both positions. Overlapping
// ranges (b-a < 8) are fine: each load reads the bytes as they are, which
// is exactly what the scalar reference loop compares. Must return
// identically to matchLenRef (differential + fuzz tested).
func matchLen(data []byte, a, b, max int) int {
	n := 0
	for n+8 <= max {
		x := binary.LittleEndian.Uint64(data[a+n:]) ^ binary.LittleEndian.Uint64(data[b+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < max && data[a+n] == data[b+n] {
		n++
	}
	return n
}

// tokenWriter emits the flag-interleaved token stream.
type tokenWriter struct {
	out      []byte
	flagPos  int // index of the pending flag byte
	flagBit  uint
	literals int
	matches  int
}

func (w *tokenWriter) item(isMatch bool) {
	if w.flagBit == 0 {
		w.flagPos = len(w.out)
		w.out = append(w.out, 0)
		w.flagBit = 1
	}
	if isMatch {
		w.out[w.flagPos] |= byte(w.flagBit)
	}
	w.flagBit <<= 1
	if w.flagBit == 1<<8 {
		w.flagBit = 0
	}
}

func (w *tokenWriter) literal(b byte) {
	w.item(false)
	w.out = append(w.out, b)
	w.literals++
}

func (w *tokenWriter) match(offset, length int) {
	w.item(true)
	v := uint16(offset-1)<<4 | uint16(length-MinMatch)
	w.out = append(w.out, byte(v>>8), byte(v))
	w.matches++
}

// encodeRange compresses data[from:] as one token stream appended to out
// (pass nil to allocate, or a recycled scratch to avoid it), allowing
// matches to reach back into data[:from] (the preloaded history). It
// returns the token stream and stats for the encoded range.
func encodeRange(out, data []byte, from int, p Params) ([]byte, Stats) {
	if p.MaxChain < 1 {
		p.MaxChain = 1
	}
	m := newMatcher(data)
	defer m.release()
	for i := 0; i < from; i++ {
		m.insert(i)
	}
	w := tokenWriter{out: out}
	var st Stats
	st.SrcBytes = len(data) - from
	pos := from
	for pos < len(data) {
		off, l, steps := m.find(pos, pos, p.MaxChain)
		st.SearchSteps += steps
		if l >= MinMatch && p.Lazy && pos+1 < len(data) && l < MaxMatch {
			// One-step lazy evaluation: if the match starting one byte
			// later is strictly longer, emit this byte as a literal and
			// take the longer match on the next iteration.
			m.insert(pos)
			off2, l2, steps2 := m.find(pos+1, pos+1, p.MaxChain)
			st.SearchSteps += steps2
			if l2 > l {
				w.literal(data[pos])
				pos++
				off, l = off2, l2
			} else {
				// Keep the current match; pos is already inserted.
				w.match(off, l)
				for i := 1; i < l; i++ {
					m.insert(pos + i)
				}
				pos += l
				continue
			}
			w.match(off, l)
			for i := 0; i < l; i++ {
				m.insert(pos + i)
			}
			pos += l
			continue
		}
		if l >= MinMatch {
			w.match(off, l)
			for i := 0; i < l; i++ {
				m.insert(pos + i)
			}
			pos += l
		} else {
			w.literal(data[pos])
			m.insert(pos)
			pos++
		}
	}
	st.Literals, st.Matches = w.literals, w.matches
	st.Positions = w.literals + w.matches
	return w.out, st
}

// StoreRaw encodes src as a mode-0 (uncompressed) blob appended to dst.
// Used by pipelines that store chunks without compression but want the
// uniform self-describing container.
func StoreRaw(dst, src []byte) []byte {
	var hdr [binary.MaxVarintLen64 + 1]byte
	hdr[0] = ModeRaw
	n := binary.PutUvarint(hdr[1:], uint64(len(src)))
	dst = append(dst, hdr[:n+1]...)
	return append(dst, src...)
}

// tokenScratch recycles token-stream staging buffers: the encoder writes
// tokens into a scratch buffer that is copied into the caller's dst and
// immediately reusable, so steady-state encodes allocate nothing.
type tokenScratch struct{ buf []byte }

var tokenScratchPool = sync.Pool{New: func() any { return new(tokenScratch) }}

// Compress encodes src as a self-describing blob (mode 1, or mode 0 when
// compression does not pay) appended to dst, returning the result and the
// encode stats. An empty src produces a valid empty blob.
func Compress(dst, src []byte, p Params) ([]byte, Stats) {
	sc := tokenScratchPool.Get().(*tokenScratch)
	tokens, st := encodeRange(sc.buf[:0], src, 0, p)
	var hdr [binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(hdr[1:], uint64(len(src)))
	if len(tokens)+n+1 >= len(src) {
		// Store raw: compression did not pay.
		hdr[0] = ModeRaw
		dst = append(dst, hdr[:n+1]...)
		dst = append(dst, src...)
		st = Stats{SrcBytes: len(src), SearchSteps: st.SearchSteps, Positions: st.Positions, DstBytes: n + 1 + len(src)}
	} else {
		hdr[0] = ModeLZSS
		dst = append(dst, hdr[:n+1]...)
		dst = append(dst, tokens...)
		st.DstBytes = n + 1 + len(tokens)
	}
	sc.buf = tokens
	tokenScratchPool.Put(sc)
	return dst, st
}

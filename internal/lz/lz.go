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
// The search steps are defined by a contract on the hash chains (see walk),
// not by how the host traverses them: it may skip work for candidates the
// contract counts but can never take.
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
//	mode 3 (qlz):  retired QuickLZ-class token stream, rejected and
//	               reserved the same way.
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
	ModeQLZ  = 3 // retired QuickLZ-class token stream: reserved, rejected on decode
	// ModeSubIdx is the indexed sub-block container: per-part token streams
	// behind a boundary table of (token length, output length) pairs,
	// written so sub-blocks can decode independently.
	ModeSubIdx = 4
)

// Codec names the CPU compression algorithm; LZSS is the only one.
type Codec int

// CodecLZSS is the hash-chain LZSS encoder.
const CodecLZSS Codec = 0

// CompressCodec is Compress. It and Codec remain only because the
// repository benchmark (benchmark/, kept unchanged so its results compare
// across commits) calls them by name.
func CompressCodec(_ Codec, dst, src []byte, p Params) ([]byte, Stats) {
	return Compress(dst, src, p)
}

// Params tune the encoder's match search.
type Params struct {
	// MaxChain bounds the hash-chain probes per position: the encoder's
	// effort/ratio knob. Higher finds better matches but costs more
	// search steps (virtual time).
	MaxChain int
}

// DefaultParams returns the fast, storage-inline-grade search depth.
func DefaultParams() Params { return Params{MaxChain: 16} }

// Stats reports the real work an encode performed.
type Stats struct {
	SrcBytes  int // input bytes
	DstBytes  int // output bytes including header
	Literals  int // literal tokens emitted
	Matches   int // match tokens emitted
	Positions int // encoder positions processed (literals + matches); the
	// dominant work term — long matches advance many bytes per position,
	// which is why compressible data encodes faster

	// SearchSteps counts hash-chain candidates examined, as the contract on
	// walk defines it — not the byte compares the host happened to need.
	SearchSteps int
}

func hash4(v uint32) uint32 {
	return (v * 2654435761) >> hashShift
}

// link is one hash-chain entry: a position + 1, with 0 ending the chain, so
// clearing the head table is one memclr.
type link interface{ ~uint16 | ~uint32 }

// chains are the hash chains of one buffer. The encoder links every
// hashable position exactly once, in increasing order, before any later
// position is searched, so the chains are a function of the bytes alone:
// build makes them in one pass and the parse only walks them. head[h] is
// the last position hashing to h and prev[i] the last position before i
// with i's hash, both as links.
type chains[L link] struct {
	head [1 << hashBits]L
	prev []L
	data []byte
	pool *sync.Pool
}

// matchFinder is a buffer's chains behind either link width.
type matchFinder interface {
	// parse encodes data[from:end] as one token stream appended to out,
	// letting matches reach back to data[lo] (lo <= from: the preloaded
	// history) and no further than the format window.
	parse(out []byte, lo, from, end int, p Params) ([]byte, Stats)
	// release recycles the chains; the caller must not use them afterwards.
	release()
}

// Chains are by far the codec's largest allocation, and clearing them is
// much cheaper than reallocating under GC pressure, so each width recycles
// its own. Both pools are safe for the engine's concurrent workers.
var narrowChains, wideChains sync.Pool

// buildChains links every hashable position of data. Links are 16-bit
// whenever every position + 1 fits one — every fixed and Gear chunk, whose
// head and prev tables then sit in L1 beside the chunk — and 32-bit
// otherwise, through the same code.
func buildChains(data []byte) matchFinder {
	if len(data) < 1<<16 {
		return build[uint16](&narrowChains, data)
	}
	return build[uint32](&wideChains, data)
}

func build[L link](pool *sync.Pool, data []byte) *chains[L] {
	c, _ := pool.Get().(*chains[L])
	if c == nil {
		c = &chains[L]{pool: pool}
	}
	n := max(len(data)-3, 0) // positions with a 4-byte group to hash
	if cap(c.prev) < n {
		// Round up so chunks of drifting sizes settle on one allocation.
		c.prev = make([]L, 1<<bits.Len(uint(n-1)))
	}
	c.data, c.prev = data, c.prev[:n]
	clear(c.head[:])
	head, prev := &c.head, c.prev
	for i := range prev {
		h := hash4(binary.LittleEndian.Uint32(data[i:]))
		prev[i] = head[h]
		head[h] = L(i + 1)
	}
	return c
}

func (c *chains[L]) release() {
	c.data = nil
	c.pool.Put(c)
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

// tokenWriter is the write state of a flag-interleaved token stream going
// into a buffer sized for the worst case, so no item checks for room. Its
// methods take and return it by value so the parse keeps it in registers.
type tokenWriter struct {
	n       int // bytes written
	flagPos int // index of the pending flag byte
	items   int
	matches int
}

func (w tokenWriter) literal(out []byte, b byte) tokenWriter {
	if w.items&7 == 0 {
		w.flagPos = w.n
		out[w.n] = 0
		w.n++
	}
	out[w.n] = b
	w.n++
	w.items++
	return w
}

func (w tokenWriter) match(out []byte, offset, length int) tokenWriter {
	if w.items&7 == 0 {
		w.flagPos = w.n
		out[w.n] = 0
		w.n++
	}
	out[w.flagPos] |= 1 << (uint(w.items) & 7)
	v := uint16(offset-1)<<4 | uint16(length-MinMatch)
	out[w.n], out[w.n+1] = byte(v>>8), byte(v)
	w.n += 2
	w.items++
	w.matches++
	return w
}

// first returns the nearest candidate for pos and the lowest position a
// match for pos may start at; no candidate is in reach when cand < limit.
// The last three positions before end hold no 4-byte group inside the range
// and have none.
func (c *chains[L]) first(pos, lo, end int) (cand, limit int) {
	if pos+4 > end {
		return -1, 0
	}
	return int(c.prev[pos]) - 1, max(pos-Window, lo)
}

// walk searches pos's chain from cand >= limit on. What it returns is a
// contract, because SearchSteps feeds the virtual-time cost model: steps
// counts the candidates EXAMINED — chain entries at or above limit, nearest
// first, up to maxChain, stopping early at one of length maxLen — and the
// match is the first of them to attain the greatest length >= MinMatch
// (length 0 for none). The two probes before matchLen skip only candidates
// that cannot be taken — fewer than MinMatch bytes shared, or a mismatch at
// the best length so far — and those still count. walk is out of line so the
// chain loop gets registers of its own; parse settles the common
// no-candidate case inline.
func (c *chains[L]) walk(pos, cand, limit, maxLen, maxChain int) (off, l, steps int) {
	data, prev := c.data, c.prev
	cur := binary.LittleEndian.Uint32(data[pos:])
	l = MinMatch - 1
	for {
		steps++
		if (binary.LittleEndian.Uint32(data[cand:])^cur)&0xFFFFFF == 0 && data[cand+l] == data[pos+l] {
			if n := matchLen(data, cand, pos, maxLen); n > l {
				off, l = pos-cand, n
				if n == maxLen {
					break
				}
			}
		}
		cand = int(prev[cand]) - 1
		if cand < limit || steps >= maxChain {
			break
		}
	}
	if off == 0 {
		l = 0
	}
	return off, l, steps
}

func (c *chains[L]) parse(out []byte, lo, from, end int, p Params) ([]byte, Stats) {
	maxChain := max(p.MaxChain, 1)
	data := c.data
	// Size out once for the worst case, all literals: a byte each plus a
	// flag byte per 8 items (a match spends 2 bytes on >= 3 of source).
	base, n := len(out), end-from
	if need := base + n + (n+7)/8; cap(out) < need {
		out = append(make([]byte, 0, need), out...)
	}
	tokens := out[base:cap(out)]
	var w tokenWriter
	searchSteps := 0
	for pos := from; pos < end; {
		cand, limit := c.first(pos, lo, end)
		if cand < limit {
			w = w.literal(tokens, data[pos])
			pos++
			continue
		}
		off, l, steps := c.walk(pos, cand, limit, min(end-pos, MaxMatch), maxChain)
		searchSteps += steps
		if l >= MinMatch {
			w = w.match(tokens, off, l)
			pos += l
		} else {
			w = w.literal(tokens, data[pos])
			pos++
		}
	}
	return out[:base+w.n], Stats{
		SrcBytes:    end - from,
		Literals:    w.items - w.matches,
		Matches:     w.matches,
		Positions:   w.items,
		SearchSteps: searchSteps,
	}
}

// encodeRange compresses data[from:] as one token stream appended to out
// (pass nil to allocate, or a recycled scratch to avoid it), allowing
// matches to reach back into data[:from] (the preloaded history). It
// returns the token stream and stats for the encoded range.
func encodeRange(out, data []byte, from int, p Params) ([]byte, Stats) {
	m := buildChains(data)
	defer m.release()
	return m.parse(out, 0, from, len(data), p)
}

// StoreRaw encodes src as a mode-0 (uncompressed) blob appended to dst.
// Used by pipelines that store chunks without compression but want the
// uniform self-describing container.
func StoreRaw(dst, src []byte) []byte {
	dst = binary.AppendUvarint(append(dst, ModeRaw), uint64(len(src)))
	return append(dst, src...)
}

// headerLen is the length of a blob's header — the mode byte and the
// uvarint source length — for an n-byte source.
func headerLen(n int) int {
	var v [binary.MaxVarintLen64]byte
	return 1 + binary.PutUvarint(v[:], uint64(n))
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
	start := len(dst)
	if headerLen(len(src))+len(tokens) >= len(src) {
		// Store raw: compression did not pay.
		dst = StoreRaw(dst, src)
		st = Stats{SrcBytes: len(src), SearchSteps: st.SearchSteps, Positions: st.Positions}
	} else {
		dst = binary.AppendUvarint(append(dst, ModeLZSS), uint64(len(src)))
		dst = append(dst, tokens...)
	}
	st.DstBytes = len(dst) - start
	sc.buf = tokens
	tokenScratchPool.Put(sc)
	return dst, st
}

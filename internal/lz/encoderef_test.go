package lz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// matcherRef is the incremental hash-chain match finder the encoder used
// before the chains were built up front: insert links one position, find
// hashes pos and walks from the head table. It is kept, with encodeRangeRef
// below, as the reference the chain-walking parse must reproduce token for
// token and step for step (only its pooling is gone).
//
// matcherRef is a hash-chain match finder over one contiguous buffer. The
// head table stores position+1 (0 = empty chain), so resetting it is one
// memclr instead of a -1 fill; prev stores real positions (-1 = end).
type matcherRef struct {
	head [1 << hashBits]int32
	prev []int32
	data []byte
}

func newMatcherRef(data []byte) *matcherRef {
	return &matcherRef{prev: make([]int32, len(data)), data: data}
}

func (m *matcherRef) insert(pos int) {
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
func (m *matcherRef) find(pos, reach, maxChain int) (offset, length, steps int) {
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
			l := matchLenRef(data, c, pos, maxLen)
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

// tokenWriterRef emits the flag-interleaved token stream.
type tokenWriterRef struct {
	out      []byte
	flagPos  int // index of the pending flag byte
	flagBit  uint
	literals int
	matches  int
}

func (w *tokenWriterRef) item(isMatch bool) {
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

func (w *tokenWriterRef) literal(b byte) {
	w.item(false)
	w.out = append(w.out, b)
	w.literals++
}

func (w *tokenWriterRef) match(offset, length int) {
	w.item(true)
	v := uint16(offset-1)<<4 | uint16(length-MinMatch)
	w.out = append(w.out, byte(v>>8), byte(v))
	w.matches++
}

// encodeRangeRef compresses data[from:] as one token stream appended to out
// (pass nil to allocate, or a recycled scratch to avoid it), allowing
// matches to reach back into data[:from] (the preloaded history). It
// returns the token stream and stats for the encoded range.
func encodeRangeRef(out, data []byte, from int, p Params) ([]byte, Stats) {
	if p.MaxChain < 1 {
		p.MaxChain = 1
	}
	m := newMatcherRef(data)
	for i := 0; i < from; i++ {
		m.insert(i)
	}
	w := tokenWriterRef{out: out}
	var st Stats
	st.SrcBytes = len(data) - from
	pos := from
	for pos < len(data) {
		off, l, steps := m.find(pos, pos, p.MaxChain)
		st.SearchSteps += steps
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

// compressSubBlocksRef is CompressSubBlocks as it was when every lane built
// a private matcher over its own buffer: the reference for the chunk-wide
// chains the lanes now share.
func compressSubBlocksRef(src []byte, p SubBlockParams) SubBlockResult {
	if p.SubBlocks < 1 {
		p.SubBlocks = 1
	}
	if p.Overlap < 0 {
		p.Overlap = 0
	}
	if p.Overlap > Window {
		p.Overlap = Window
	}
	res := SubBlockResult{SrcLen: len(src)}
	if len(src) == 0 {
		return res
	}
	n := p.SubBlocks
	if n > len(src) {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		start := i * len(src) / n
		end := (i + 1) * len(src) / n
		histStart := start - p.Overlap
		if histStart < 0 {
			histStart = 0
		}
		tokens, st := encodeRangeRef(nil, src[histStart:end], start-histStart, p.Params)
		res.Lanes = append(res.Lanes, LaneResult{Tokens: tokens, Stats: st})
	}
	return res
}

// refCorpus is the differential corpus: the three bench chunks, sparser and
// denser fills, and buffers of random length built to stress the chains —
// random bytes (short chains), a 2-bit alphabet (every chain at MaxChain),
// copies of earlier spans (long matches at every offset) and repeated text.
func refCorpus() map[string][]byte {
	rng := rand.New(rand.NewSource(15))
	fill := func(n int, f float64) []byte {
		out := make([]byte, n)
		for i := 0; i < n; i += 64 {
			rng.Read(out[i:min(n, i+int(f*64))])
		}
		return out
	}
	c := map[string][]byte{
		"bench-incompressible": benchChunk(1.0),
		"bench-half":           benchChunk(0.5),
		"bench-zeros":          make([]byte, 4096),
	}
	for _, f := range []float64{0, 0.1, 0.25, 0.75} {
		c[fmt.Sprintf("fill-%v", f)] = fill(rng.Intn(20001), f)
	}
	c["random"] = fill(rng.Intn(20001), 1)
	alpha := make([]byte, rng.Intn(20001))
	for i := range alpha {
		alpha[i] = byte(rng.Intn(4))
	}
	c["alphabet-2bit"] = alpha
	self := fill(64+rng.Intn(20001), 1)
	for at := 64; at < len(self); {
		n := min(1+rng.Intn(300), len(self)-at)
		from := rng.Intn(at)
		for i := 0; i < n; i++ { // byte by byte: a copy may overlap itself
			self[at+i] = self[from+i]
		}
		at += n + rng.Intn(8)
	}
	c["self-copy"] = self
	c["text"] = bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 445)[:rng.Intn(20001)]
	return c
}

// sizedBuffer is a compressible buffer of exactly n bytes: text with a
// random patch every 512 bytes, so both chains and literals occur up to the
// last position.
func sizedBuffer(n int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	out := bytes.Repeat([]byte("inline data reduction on primary storage "), n/41+1)[:n]
	for i := 0; i+32 <= n; i += 512 {
		rng.Read(out[i : i+32])
	}
	return out
}

func checkEncodeMatchesRef(t *testing.T, name string, data []byte, from int, p Params) {
	t.Helper()
	want, wantSt := encodeRangeRef(nil, data, from, p)
	got, gotSt := encodeRange(nil, data, from, p)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s len=%d from=%d %+v: tokens differ from reference (%d vs %d bytes)", name, len(data), from, p, len(got), len(want))
	}
	if gotSt != wantSt {
		t.Fatalf("%s len=%d from=%d %+v: stats %+v, reference %+v", name, len(data), from, p, gotSt, wantSt)
	}
}

// TestEncodeMatchesRef holds the chain-walking encoder to the incremental
// one: equal token bytes and equal Stats (all six fields) whatever the
// content, the length (both link widths and the switch between them), the
// search depth and the history split.
func TestEncodeMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var params []Params
	for _, mc := range []int{0, 1, 4, 16, 64} {
		params = append(params, Params{MaxChain: mc})
	}
	froms := func(n int) []int {
		if n == 0 {
			return []int{0}
		}
		return []int{0, rng.Intn(n), n - 1}
	}
	for name, data := range refCorpus() {
		for _, p := range params {
			for _, from := range froms(len(data)) {
				checkEncodeMatchesRef(t, name, data, from, p)
			}
		}
	}
	for _, n := range []int{0, 1, 3, 4, 5, 1<<16 - 2, 1<<16 - 1, 1 << 16} {
		data := sizedBuffer(n)
		for _, p := range params {
			for _, from := range froms(n) {
				checkEncodeMatchesRef(t, "sized", data, from, p)
			}
		}
	}
	// 1 MiB: far into 32-bit links. One shallow and one deep search.
	data := sizedBuffer(1 << 20)
	for _, p := range []Params{DefaultParams(), {MaxChain: 64}} {
		for _, from := range froms(len(data)) {
			checkEncodeMatchesRef(t, "1MiB", data, from, p)
		}
	}
}

// TestSubBlocksMatchRef: lanes parsed over the chunk-wide chains produce
// the tokens and Stats of lanes that each built their own — including lanes
// whose last three bytes are unhashable in the lane but hashable in the
// chunk, and overlaps beyond the format window.
func TestSubBlocksMatchRef(t *testing.T) {
	for name, data := range refCorpus() {
		for _, subs := range []int{1, 2, 3, 4, 7, len(data) + 1} {
			if subs > 64 && len(data) > 4096 {
				continue // one lane per byte is covered by the 4 KiB chunks
			}
			for _, overlap := range []int{0, 5, 100, 512, 5000} {
				for _, pp := range []Params{DefaultParams(), {MaxChain: 64}} {
					p := SubBlockParams{Params: pp, SubBlocks: subs, Overlap: overlap}
					want, got := compressSubBlocksRef(data, p), CompressSubBlocks(data, p)
					if got.SrcLen != want.SrcLen || len(got.Lanes) != len(want.Lanes) {
						t.Fatalf("%s %+v: %d lanes over %d bytes, reference %d over %d", name, p, len(got.Lanes), got.SrcLen, len(want.Lanes), want.SrcLen)
					}
					for i := range want.Lanes {
						if !bytes.Equal(got.Lanes[i].Tokens, want.Lanes[i].Tokens) {
							t.Fatalf("%s %+v lane %d: tokens differ from reference", name, p, i)
						}
						if got.Lanes[i].Stats != want.Lanes[i].Stats {
							t.Fatalf("%s %+v lane %d: stats %+v, reference %+v", name, p, i, got.Lanes[i].Stats, want.Lanes[i].Stats)
						}
					}
				}
			}
		}
	}
}

// FuzzEncodeMatchesRef: any buffer, history split and search depth
// encodes to the reference's tokens and Stats, and the blob round-trips.
func FuzzEncodeMatchesRef(f *testing.F) {
	for _, data := range refCorpus() {
		f.Add(data, 0, 16)
		f.Add(data, len(data)/3, 64)
		f.Add(data, len(data)-1, 1)
	}
	for _, data := range corpus() {
		f.Add(data, 0, 4)
	}
	f.Fuzz(func(t *testing.T, data []byte, from, maxChain int) {
		if from < 0 {
			from = -(from + 1)
		}
		from %= len(data) + 1
		p := Params{MaxChain: maxChain % 128}
		checkEncodeMatchesRef(t, "fuzz", data, from, p)
		blob, _ := Compress(nil, data, p)
		out, err := Decompress(nil, blob)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

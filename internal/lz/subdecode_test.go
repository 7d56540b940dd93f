package lz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// buildSub hand-assembles a sub-block container for corruption tests:
// mode 2 takes only token lengths, mode 4 takes the boundary table
// (tokenLen, outLen) pairs.
func buildSub(mode byte, srcLen int, streams [][]byte, outLens []int) []byte {
	blob := []byte{mode}
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		blob = append(blob, tmp[:n]...)
	}
	put(uint64(srcLen))
	put(uint64(len(streams)))
	for i, s := range streams {
		put(uint64(len(s)))
		if mode == ModeSubIdx {
			put(uint64(outLens[i]))
		}
	}
	for _, s := range streams {
		blob = append(blob, s...)
	}
	return blob
}

// litStream builds a flag-interleaved stream of literals.
func litStream(lits string) []byte {
	var out []byte
	for i := 0; i < len(lits); i += 8 {
		end := i + 8
		if end > len(lits) {
			end = len(lits)
		}
		out = append(out, 0x00)
		out = append(out, lits[i:end]...)
	}
	return out
}

// TestTruncatedPartMasking pins the decode-hardening bugfix: a part whose
// stream was cut mid-flag-group produces short output with no intrinsic
// error, and in the retired mode-2 container a later part could make up
// the bytes so the whole-blob length check passed — silent corruption.
// The decoder no longer reads mode 2 at all (any ModeSub blob is
// ErrCorrupt), and the mode-4 boundary table catches the truncation per
// part, in both the serial and the parallel decoder.
func TestTruncatedPartMasking(t *testing.T) {
	truncated := litStream("ab")  // claims to be part of "abcd"
	padded := litStream("efghij") // a later part "compensating" 2 bytes

	// Retired container: the blob that used to decode with the truncation
	// masked is now rejected outright.
	v1 := buildSub(ModeSub, 8, [][]byte{truncated, padded}, nil)
	if out, err := Decompress(nil, v1); !errors.Is(err, ErrCorrupt) || len(out) != 0 {
		t.Fatalf("ModeSub container must be rejected as corrupt (got err=%v len=%d)", err, len(out))
	}

	// Indexed container: the table says part 0 produces 4 bytes; it
	// produces 2. Serial decode must reject it.
	v2 := buildSub(ModeSubIdx, 8, [][]byte{truncated, padded}, []int{4, 4})
	if _, err := Decompress(nil, v2); err == nil {
		t.Fatal("boundary table must catch the truncated part")
	} else if !strings.Contains(err.Error(), "part 0") {
		t.Fatalf("error should name part 0: %v", err)
	}

	// Parallel decode must reject it identically.
	var lay SubLayout
	ok, err := ResolveSubBlocks(&lay, v2)
	if !ok || err != nil {
		t.Fatalf("resolve: ok=%v err=%v", ok, err)
	}
	buf := make([]byte, lay.SrcLen)
	if _, err := decodeSub(buf, &lay, nil); err == nil {
		t.Fatal("parallel decode must catch the truncated part")
	}
}

// TestDanglingFlagByte: a stream ending right after a flag byte is provably
// corrupt (the encoder emits flag bytes only when about to write an item).
// Before the fix both blobs decoded silently — the second one even passed
// the whole-blob length check with trailing garbage.
func TestDanglingFlagByte(t *testing.T) {
	empty := []byte{ModeLZSS, 0, 0x00} // srcLen 0, payload = lone flag byte
	if _, err := Decompress(nil, empty); err == nil {
		t.Fatal("lone flag byte must be corrupt")
	}
	trailing := append([]byte{ModeLZSS, 4}, litStream("abcd")...)
	trailing = append(trailing, 0x00) // dangling flag after a valid group
	if _, err := Decompress(nil, trailing); err == nil {
		t.Fatal("dangling trailing flag byte must be corrupt")
	}
}

// TestPartCountAllocBounded pins the allocation bugfix: a few corrupt bytes
// claiming 65535 parts must not provoke a half-megabyte part-table
// allocation per failed decode. TotalAlloc is monotonic, so the delta over
// many decodes bounds what each one allocated.
func TestPartCountAllocBounded(t *testing.T) {
	blobs := [][]byte{
		{ModeSub, 0x04, 0xFF, 0xFF, 0x03},    // parts=65535, empty payload
		{ModeSubIdx, 0x04, 0xFF, 0xFF, 0x03}, // same for the indexed mode
	}
	for _, blob := range blobs {
		if _, err := Decompress(nil, blob); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corrupt part count must be ErrCorrupt, got %v", err)
		}
	}
	const iters = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		for _, blob := range blobs {
			_, _ = Decompress(nil, blob)
		}
	}
	runtime.ReadMemStats(&after)
	perDecode := (after.TotalAlloc - before.TotalAlloc) / (2 * iters)
	// Before the fix each decode allocated 64 KiB (the retired mode 2:
	// 65535 uint64s would be 512 KiB; the 1<<16 cap applied after) — with
	// mode 2 rejected at the mode byte and mode 4's payload bound, an error
	// costs only the wrapped error values.
	if perDecode > 4096 {
		t.Fatalf("corrupt blob costs %d bytes per failed decode", perDecode)
	}
}

// TestImplausibleOutLenRejectedAtParse: a part's claimed output is bounded
// by its token stream's maximum expansion at parse time. Without the bound,
// a few-byte table claiming tl=0/ol=SrcLen passes every resolve-time
// cross-check and only fails at decode — after an external caller sizing
// its buffer from lay.SrcLen (as decodeSub requires) has allocated up to
// 1 GiB from a handful of corrupt input bytes.
func TestImplausibleOutLenRejectedAtParse(t *testing.T) {
	cases := map[string][]byte{
		// The reviewer's reproduction: one part, empty stream, huge output.
		"empty stream": buildSub(ModeSubIdx, 1<<20, [][]byte{{}}, []int{1 << 20}),
		// A 2-byte stream (flag + literal) can produce 1 byte, never 1 MiB.
		"tiny stream": buildSub(ModeSubIdx, 1<<20, [][]byte{litStream("a")}, []int{1 << 20}),
		// A healthy first part must not launder an implausible second one.
		"mixed parts": buildSub(ModeSubIdx, 4+1<<20,
			[][]byte{litStream("abcd"), {}}, []int{4, 1 << 20}),
	}
	for name, blob := range cases {
		var lay SubLayout
		ok, err := ResolveSubBlocks(&lay, blob)
		if !ok {
			t.Fatalf("%s: blob not recognized as indexed", name)
		}
		if err == nil {
			t.Fatalf("%s: implausible output length must fail boundary resolution", name)
		}
		if _, err := Decompress(nil, blob); err == nil {
			t.Fatalf("%s: serial decode must reject it too", name)
		}
	}
	// The bound must not reject maximal legitimate expansion: a run-heavy
	// block compresses to near the MaxMatch/2 ceiling and still round-trips.
	runs := bytes.Repeat([]byte{0xAB}, 1<<14)
	res := CompressSubBlocks(runs, SubBlockParams{SubBlocks: 4})
	blob, _ := PostProcess(nil, res)
	out, err := Decompress(nil, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, runs) {
		t.Fatal("run-heavy round trip diverged")
	}
}

// TestSubDecodeParallelDifferential: the two-pass parallel decoder must be
// byte-identical to the retained serial decoder across all golden corpora,
// lane counts, and overlaps — including when parts decode out of order
// (reverse here), which is exactly what a worker pool does.
func TestSubDecodeParallelDifferential(t *testing.T) {
	for name, data := range corpus() {
		for _, subs := range []int{1, 2, 4, 8} {
			for _, overlap := range []int{0, Window / 8, Window} {
				res := CompressSubBlocks(data, SubBlockParams{Params: DefaultParams(), SubBlocks: subs, Overlap: overlap})
				blob, _ := PostProcess(nil, res)
				serial, err := Decompress(nil, blob)
				if err != nil {
					t.Fatalf("%s/%d/%d: serial: %v", name, subs, overlap, err)
				}
				if !bytes.Equal(serial, data) {
					t.Fatalf("%s/%d/%d: serial decode mismatch", name, subs, overlap)
				}

				var lay SubLayout
				ok, err := ResolveSubBlocks(&lay, blob)
				if !ok || err != nil {
					t.Fatalf("%s/%d/%d: resolve: ok=%v err=%v", name, subs, overlap, ok, err)
				}
				// Reverse part order: each part's writes and deferred list
				// must be independent of scheduling.
				out := make([]byte, lay.SrcLen)
				defs := make([][]DeferredCopy, len(lay.Parts))
				for i := len(lay.Parts) - 1; i >= 0; i-- {
					var derr error
					defs[i], _, derr = DecodeSubPart(out, &lay, i, nil)
					if derr != nil {
						t.Fatalf("%s/%d/%d: part %d: %v", name, subs, overlap, i, derr)
					}
				}
				var all []DeferredCopy
				for _, d := range defs {
					all = append(all, d...)
				}
				ResolveDeferred(out, all)
				if !bytes.Equal(out, serial) {
					t.Fatalf("%s/%d/%d: parallel (reverse order) diverges from serial", name, subs, overlap)
				}

				// And through the one-call driver.
				out2 := make([]byte, lay.SrcLen)
				if _, err := decodeSub(out2, &lay, nil); err != nil {
					t.Fatalf("%s/%d/%d: decodeSub: %v", name, subs, overlap, err)
				}
				if !bytes.Equal(out2, serial) {
					t.Fatalf("%s/%d/%d: decodeSub diverges from serial", name, subs, overlap)
				}
			}
		}
	}
}

// FuzzSubDecodeParallel: for arbitrary bytes, the parallel two-pass decode
// and the serial decoder must agree on accept/reject, and on the bytes
// when both accept.
func FuzzSubDecodeParallel(f *testing.F) {
	for _, data := range corpus() {
		res := CompressSubBlocks(data, DefaultSubBlockParams())
		blob, _ := PostProcess(nil, res)
		f.Add(blob)
		if len(blob) > 8 {
			bad := append([]byte(nil), blob...)
			bad[len(bad)/2] ^= 0x40
			f.Add(bad)
			f.Add(blob[:len(blob)-3])
		}
	}
	f.Add(buildSub(ModeSubIdx, 8, [][]byte{litStream("ab"), litStream("efghij")}, []int{4, 4}))
	f.Fuzz(func(t *testing.T, junk []byte) {
		var lay SubLayout
		ok, rerr := ResolveSubBlocks(&lay, junk)
		serial, serr := Decompress(nil, junk)
		if !ok {
			return // not a mode-4 blob; nothing to compare
		}
		if rerr != nil {
			if serr == nil {
				t.Fatalf("resolve rejected what serial accepted: %v", rerr)
			}
			return
		}
		out := make([]byte, lay.SrcLen)
		_, perr := decodeSub(out, &lay, nil)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("serial err=%v, parallel err=%v", serr, perr)
		}
		if serr == nil && !bytes.Equal(serial, out) {
			t.Fatal("parallel decode diverges from serial")
		}
	})
}

// decodeSub is the one-call driver over the two-pass scheme: parts decode
// in order on the calling goroutine, then deferred copies resolve — the
// reference the parallel drivers must match byte-for-byte. out must be
// exactly lay.SrcLen bytes. Returns total tokens decoded.
func decodeSub(out []byte, lay *SubLayout, deferred []DeferredCopy) (int, error) {
	if len(out) != lay.SrcLen {
		return 0, fmt.Errorf("lz: output buffer is %d bytes, layout needs %d", len(out), lay.SrcLen)
	}
	deferred = deferred[:0]
	tokens := 0
	for i := range lay.Parts {
		var t int
		var err error
		deferred, t, err = DecodeSubPart(out, lay, i, deferred)
		if err != nil {
			return tokens, err
		}
		tokens += t
	}
	ResolveDeferred(out, deferred)
	return tokens, nil
}

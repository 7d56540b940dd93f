package lz

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSubBlockRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		for _, subs := range []int{1, 2, 4, 8} {
			p := SubBlockParams{Params: DefaultParams(), SubBlocks: subs, Overlap: Window / 8}
			res := CompressSubBlocks(data, p)
			blob, st, err := PostProcessOrRaw(nil, data, res)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, subs, err)
			}
			if st.DstBytes != len(blob) {
				t.Fatalf("%s/%d: stats/blob mismatch", name, subs)
			}
			out, err := Decompress(nil, blob)
			if err != nil {
				t.Fatalf("%s/%d: decode: %v", name, subs, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%s/%d: round trip mismatch", name, subs)
			}
		}
	}
}

func TestSubBlockLaneCount(t *testing.T) {
	data := make([]byte, 4096)
	res := CompressSubBlocks(data, SubBlockParams{Params: DefaultParams(), SubBlocks: 4, Overlap: 128})
	if len(res.Lanes) != 4 {
		t.Fatalf("lanes: %d", len(res.Lanes))
	}
	total := 0
	for i, l := range res.Lanes {
		if l.Stats.SrcBytes != 1024 {
			t.Fatalf("lane %d src bytes %d", i, l.Stats.SrcBytes)
		}
		total += l.Stats.SrcBytes
	}
	if total != len(data) {
		t.Fatalf("lanes cover %d of %d bytes", total, len(data))
	}
	if res.RawBytes() <= 0 {
		t.Fatal("raw payload accounting broken")
	}
}

// TestSubBlockAllocs: a chunk costs one allocation per retained lane stream
// (sized once for the worst case) plus the lane slice; the chains are pooled.
func TestSubBlockAllocs(t *testing.T) {
	data := benchChunk(0.5)
	p := DefaultSubBlockParams()
	// The least of several runs: a sync.Pool may drop the chains (the race
	// detector makes it, at random), and rebuilding them is not the
	// encoder's steady state.
	got := math.Inf(1)
	for i := 0; i < 10; i++ {
		got = min(got, testing.AllocsPerRun(1, func() { CompressSubBlocks(data, p) }))
	}
	if got > float64(p.SubBlocks+1) {
		t.Fatalf("CompressSubBlocks: %v allocs per chunk, want <= %d", got, p.SubBlocks+1)
	}
}

func TestSubBlockMoreLanesThanBytes(t *testing.T) {
	data := []byte{1, 2}
	res := CompressSubBlocks(data, SubBlockParams{Params: DefaultParams(), SubBlocks: 8, Overlap: 16})
	if len(res.Lanes) != 2 {
		t.Fatalf("lanes clamp to bytes: %d", len(res.Lanes))
	}
	blob, _, err := PostProcessOrRaw(nil, data, res)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decompress(nil, blob)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("tiny chunk round trip: %v", err)
	}
}

func TestSubBlockEmpty(t *testing.T) {
	res := CompressSubBlocks(nil, DefaultSubBlockParams())
	if len(res.Lanes) != 0 || res.SrcLen != 0 {
		t.Fatal("empty input should produce no lanes")
	}
	blob, _, err := PostProcessOrRaw(nil, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decompress(nil, blob)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty round trip: %v", err)
	}
}

func TestSubBlockRatioLoss(t *testing.T) {
	// Splitting a chunk across lanes resets the history at each boundary,
	// so the ratio can only degrade (or stay equal) versus single-stream —
	// the tradeoff E10 quantifies.
	data := bytes.Repeat([]byte("abcdefgh123"), 400) // highly compressible
	_, single := Compress(nil, data, DefaultParams())
	res := CompressSubBlocks(data, SubBlockParams{Params: DefaultParams(), SubBlocks: 8, Overlap: 0})
	_, st, _ := PostProcessOrRaw(nil, data, res)
	if st.DstBytes < single.DstBytes {
		t.Fatalf("sub-block beat single-stream: %d < %d", st.DstBytes, single.DstBytes)
	}
}

func TestOverlapRecoversRatio(t *testing.T) {
	// With overlap, lanes can match into their neighbour's bytes, so the
	// ratio with overlap must be at least as good as with none.
	data := bytes.Repeat([]byte("abcdefgh123"), 400)
	p0 := SubBlockParams{Params: DefaultParams(), SubBlocks: 8, Overlap: 0}
	p1 := SubBlockParams{Params: DefaultParams(), SubBlocks: 8, Overlap: Window / 4}
	_, st0, _ := PostProcessOrRaw(nil, data, CompressSubBlocks(data, p0))
	_, st1, _ := PostProcessOrRaw(nil, data, CompressSubBlocks(data, p1))
	if st1.DstBytes > st0.DstBytes {
		t.Fatalf("overlap hurt ratio: %d > %d", st1.DstBytes, st0.DstBytes)
	}
}

func TestPostProcessOrRawFallsBackOnRandom(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(12)).Read(data)
	res := CompressSubBlocks(data, DefaultSubBlockParams())
	blob, st, err := PostProcessOrRaw(nil, data, res)
	if err != nil {
		t.Fatal(err)
	}
	if blob[0] != ModeRaw {
		t.Fatalf("random data should fall back to raw, mode %d", blob[0])
	}
	if st.DstBytes > len(data)+4 {
		t.Fatalf("raw fallback overhead: %d", st.DstBytes)
	}
}

func TestPostProcessOrRawValidatesSource(t *testing.T) {
	res := CompressSubBlocks([]byte("abcd"), DefaultSubBlockParams())
	if _, _, err := PostProcessOrRaw(nil, []byte("abc"), res); err == nil {
		t.Fatal("mismatched source should error")
	}
}

func TestSubBlockParamClamping(t *testing.T) {
	data := bytes.Repeat([]byte{9}, 256)
	res := CompressSubBlocks(data, SubBlockParams{Params: DefaultParams(), SubBlocks: 0, Overlap: -5})
	if len(res.Lanes) != 1 {
		t.Fatalf("SubBlocks=0 should clamp to 1, got %d lanes", len(res.Lanes))
	}
	res = CompressSubBlocks(data, SubBlockParams{Params: DefaultParams(), SubBlocks: 2, Overlap: 1 << 20})
	blob, _, _ := PostProcessOrRaw(nil, data, res)
	out, err := Decompress(nil, blob)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatal("oversized overlap should clamp and still round trip")
	}
}

// Property: sub-block compression round trips for arbitrary data, lane
// counts, and overlaps.
func TestSubBlockRoundTripProperty(t *testing.T) {
	f := func(data []byte, subsRaw, overlapRaw uint8) bool {
		p := SubBlockParams{
			Params:    DefaultParams(),
			SubBlocks: int(subsRaw%12) + 1,
			Overlap:   int(overlapRaw) * 8,
		}
		res := CompressSubBlocks(data, p)
		blob, _, err := PostProcessOrRaw(nil, data, res)
		if err != nil {
			return false
		}
		out, err := Decompress(nil, blob)
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: lanes' source coverage always sums to the chunk length.
func TestSubBlockCoverageProperty(t *testing.T) {
	f := func(lenRaw uint16, subsRaw uint8) bool {
		data := make([]byte, lenRaw%8192)
		p := SubBlockParams{Params: DefaultParams(), SubBlocks: int(subsRaw%16) + 1}
		res := CompressSubBlocks(data, p)
		total := 0
		for _, l := range res.Lanes {
			if l.Stats.SrcBytes < 0 {
				return false
			}
			total += l.Stats.SrcBytes
		}
		return total == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

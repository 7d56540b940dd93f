package reduce

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"inlinered/internal/cpusim"
	"inlinered/internal/dedup"
	"inlinered/internal/fault"
	"inlinered/internal/lz"
	"inlinered/internal/ssd"
	"inlinered/internal/workload"
)

func newSubstrate(t *testing.T, faults fault.Config) *Substrate {
	t.Helper()
	drive := ssd.DefaultConfig()
	drive.BlocksPerChannel = 16
	index := dedup.DefaultIndexConfig()
	s, err := New(cpusim.DefaultConfig(), drive, &index, faults)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fabricateFlush builds a real bin-buffer flush from a scratch index.
func fabricateFlush(t *testing.T) *dedup.Flush {
	t.Helper()
	idx, err := dedup.NewBinIndex(dedup.IndexConfig{BinBits: 4, BufferEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	ir := idx.Insert(dedup.Sum([]byte("reduce")), dedup.Entry{Loc: 64, Size: 128})
	if ir.Flush == nil {
		t.Fatal("one-entry buffer did not flush")
	}
	return ir.Flush
}

// TestJournalRegionWrapsAndRecovers fills the region past its end: the
// cursor wraps to the region's first page instead of running off the drive,
// every record lands and is counted, and the image replays strictly.
func TestJournalRegionWrapsAndRecovers(t *testing.T) {
	s := newSubstrate(t, fault.Config{})
	j := &s.Journal
	logical := s.Drive.LogicalPages()
	if got, want := j.FirstPage(), logical-logical/16; got != want {
		t.Fatalf("journal region starts at page %d, want the top 1/16 (%d)", got, want)
	}
	f := fabricateFlush(t)
	writes := (logical-j.FirstPage())*2 + 3 // one page per record: laps the region twice
	at := time.Duration(0)
	for i := int64(0); i < writes; i++ {
		end, st := j.Flush(at, f)
		if st != FlushWritten || end <= at {
			t.Fatalf("flush %d: status %v, end %v after %v", i, st, end, at)
		}
		if j.cur <= j.base || j.cur > j.limit {
			t.Fatalf("flush %d left the cursor at page %d, outside (%d,%d]", i, j.cur, j.base, j.limit)
		}
		at = end
	}
	if j.cur != j.base+3 {
		t.Fatalf("cursor at %d after two laps and three records, want %d", j.cur, j.base+3)
	}
	if j.Writes != writes || j.Bytes != writes*int64(f.Bytes) || int64(j.Image.Records()) != writes {
		t.Fatalf("accounting: %d writes, %d bytes, %d records; want %d records of %d bytes",
			j.Writes, j.Bytes, j.Image.Records(), writes, f.Bytes)
	}
	if _, err := dedup.ReplayJournal(j.Image.Bytes(), dedup.DefaultIndexConfig()); err != nil {
		t.Fatalf("strict replay of a healthy journal: %v", err)
	}
}

// TestJournalTornPrefixRecovers: a torn record persists only a prefix, the
// partial write still occupies the drive, lenient recovery keeps every
// record before it, and strict replay refuses the image.
func TestJournalTornPrefixRecovers(t *testing.T) {
	s := newSubstrate(t, fault.Config{})
	j := &s.Journal
	f := fabricateFlush(t)
	at, st := j.Flush(0, f)
	if st != FlushWritten {
		t.Fatalf("healthy flush: status %v", st)
	}
	s.SetFaultInjector(fault.New(fault.Config{Seed: 5, Rates: fault.Rates{JournalTorn: 1}}))
	end, st := j.Flush(at, f)
	if st != FlushTorn || end <= at {
		t.Fatalf("torn flush: status %v, end %v after %v", st, end, at)
	}
	if j.Image.Records() != 1 || j.Image.TornRecords() != 1 || j.Writes != 2 || j.Dead() {
		t.Fatalf("after one whole and one torn record: %d records, %d torn, %d writes, dead=%v",
			j.Image.Records(), j.Image.TornRecords(), j.Writes, j.Dead())
	}
	_, rec, err := dedup.RecoverJournal(j.Image.Bytes(), dedup.DefaultIndexConfig())
	if err != nil || rec.Records != 1 {
		t.Fatalf("lenient recovery: %d records, err %v; want the one whole record", rec.Records, err)
	}
	if _, err := dedup.ReplayJournal(j.Image.Bytes(), dedup.DefaultIndexConfig()); !errors.Is(err, dedup.ErrJournalCorrupt) {
		t.Fatalf("strict replay of a torn journal: want ErrJournalCorrupt, got %v", err)
	}
}

// TestJournalFailedWriteKeepsRetryTimeThenDegrades: six exhausted transient
// retries cost Σ Backoff(0..5) = 12.6 ms, and that time comes back to the
// caller with the failure; the region then goes dead and later flushes are
// dropped without drive time or further counting.
func TestJournalFailedWriteKeepsRetryTimeThenDegrades(t *testing.T) {
	s := newSubstrate(t, fault.Config{Seed: 3, Rates: fault.Rates{SSDWriteTransient: 1}})
	j := &s.Journal
	f := fabricateFlush(t)
	const at = 5 * time.Millisecond
	end, st := j.Flush(at, f)
	if st != FlushLost || !j.Dead() || j.Failures != 1 {
		t.Fatalf("exhausted retries: status %v, dead=%v, failures=%d", st, j.Dead(), j.Failures)
	}
	if want := at + 12600*time.Microsecond; end != want {
		t.Fatalf("failed flush ends at %v, want %v (the backoff its retries consumed)", end, want)
	}
	if s.WriteRetries != fault.MaxRetries {
		t.Fatalf("retries counted: %d, want %d", s.WriteRetries, fault.MaxRetries)
	}
	busy := s.Drive.Horizon()
	if end, st := j.Flush(end, f); st != FlushLost || end != at+12600*time.Microsecond {
		t.Fatalf("flush into a dead region: status %v, end %v", st, end)
	}
	if j.Failures != 1 || s.WriteRetries != fault.MaxRetries || s.Drive.Horizon() != busy || len(j.Image.Bytes()) != 0 {
		t.Fatal("a dead region must drop flushes without touching the drive, the counters, or the image")
	}
}

// TestEncodeMatchesDirectCalls pins the one encoder against the lz calls it
// replaced: every kind produces the blob and stats the direct call does,
// decodes to the source, and is priced by the formula its call sites used.
func TestEncodeMatchesDirectCalls(t *testing.T) {
	compressible := workload.UniqueChunk(7, 1, 4096, 0.5)
	random := workload.UniqueChunk(7, 2, 4096, 1)
	sub := lz.SubBlockParams{Params: lz.DefaultParams(), SubBlocks: 4, Overlap: lz.Window / 8}
	subBlob := func(src []byte) ([]byte, lz.Stats) {
		blob, st, err := lz.PostProcessOrRaw(nil, src, lz.CompressSubBlocks(src, sub))
		if err != nil {
			t.Fatal(err)
		}
		return blob, st
	}
	cost := cpusim.DefaultCostModel()
	codecCycles := func(st lz.Stats) float64 {
		return cost.CompressCycles(st.Positions, st.SearchSteps, st.DstBytes) + cost.StageOverheadCycles
	}
	cases := []struct {
		name   string
		enc    Encoder
		src    []byte
		kind   Kind
		direct func(src []byte) ([]byte, lz.Stats)
		cycles func(blob []byte, st lz.Stats) float64
	}{
		{"raw", Encoder{}, compressible, KindRaw,
			func(src []byte) ([]byte, lz.Stats) { return lz.StoreRaw(nil, src), lz.Stats{} },
			func(blob []byte, _ lz.Stats) float64 { return cost.MemcpyCycles(len(blob)) + cost.StageOverheadCycles }},
		{"bypass", Encoder{Compress: true, SkipIncompressible: true}, random, KindBypass,
			func(src []byte) ([]byte, lz.Stats) { return lz.StoreRaw(nil, src), lz.Stats{} },
			func(blob []byte, _ lz.Stats) float64 {
				return cost.EntropyCycles(4096) + cost.MemcpyCycles(len(blob)) + cost.StageOverheadCycles
			}},
		{"screened-lzss", Encoder{Compress: true, SkipIncompressible: true}, compressible, KindCodec,
			func(src []byte) ([]byte, lz.Stats) {
				return lz.CompressCodec(lz.CodecLZSS, nil, src, lz.DefaultParams())
			},
			func(_ []byte, st lz.Stats) float64 { return cost.EntropyCycles(4096) + codecCycles(st) }},
		{"lzss", Encoder{Compress: true}, compressible, KindCodec,
			func(src []byte) ([]byte, lz.Stats) {
				return lz.CompressCodec(lz.CodecLZSS, nil, src, lz.DefaultParams())
			},
			func(_ []byte, st lz.Stats) float64 { return codecCycles(st) }},
		{"qlz", Encoder{Compress: true, Codec: lz.CodecQLZ}, compressible, KindCodec,
			func(src []byte) ([]byte, lz.Stats) {
				return lz.CompressCodec(lz.CodecQLZ, nil, src, lz.DefaultParams())
			},
			func(_ []byte, st lz.Stats) float64 { return codecCycles(st) }},
		{"sub", Encoder{Compress: true, Sub: sub}, compressible, KindSub, subBlob,
			func(_ []byte, st lz.Stats) float64 { return codecCycles(st) }},
		{"sub-raw-fallback", Encoder{Compress: true, Sub: sub}, random, KindSub, subBlob,
			func(_ []byte, st lz.Stats) float64 { return codecCycles(st) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prefix := []byte("keep")
			got := tc.enc.Encode(append([]byte(nil), prefix...), tc.src)
			wantBlob, wantStats := tc.direct(tc.src)
			if got.Kind != tc.kind {
				t.Fatalf("kind %d, want %d", got.Kind, tc.kind)
			}
			if !bytes.HasPrefix(got.Blob, prefix) || !bytes.Equal(got.Blob[len(prefix):], wantBlob) {
				t.Fatalf("blob (%d bytes) is not dst + the direct call's %d bytes", len(got.Blob), len(wantBlob))
			}
			if tc.kind == KindCodec || tc.kind == KindSub {
				if got.Stats != wantStats {
					t.Fatalf("stats %+v, want %+v", got.Stats, wantStats)
				}
			} else if got.Stats != (lz.Stats{SrcBytes: len(tc.src), DstBytes: len(wantBlob)}) {
				t.Fatalf("raw-store stats %+v", got.Stats)
			}
			if (tc.kind == KindSub) != (len(got.Sub.Lanes) > 0) {
				t.Fatalf("%d lanes on kind %d", len(got.Sub.Lanes), tc.kind)
			}
			out, err := lz.Decompress(nil, wantBlob)
			if err != nil || !bytes.Equal(out, tc.src) {
				t.Fatalf("blob does not decode to the source: %v", err)
			}
			if got, want := tc.enc.Cycles(cost, got), tc.cycles(wantBlob, wantStats); got != want {
				t.Fatalf("priced at %v cycles, want %v", got, want)
			}
		})
	}
}

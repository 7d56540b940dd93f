package reduce

import (
	"bytes"
	"errors"
	"fmt"
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
func fabricateFlush(t *testing.T) *dedup.Flush { return flushOf(t, "reduce", 64) }

// flushOf builds a one-entry flush of content's fingerprint at loc.
func flushOf(t *testing.T, content string, loc int64) *dedup.Flush {
	t.Helper()
	cfg := dedup.DefaultIndexConfig()
	cfg.BufferEntries = 1
	idx, err := dedup.NewBinIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ir := idx.Insert(dedup.Sum([]byte(content)), dedup.Entry{Loc: loc, Size: 128})
	if ir.Flush == nil {
		t.Fatal("one-entry buffer did not flush")
	}
	return ir.Flush
}

// TestJournalRegionWrapsAndRecovers fills the region past its end: the
// cursor wraps to the region's first page instead of running off the drive,
// every record lands and is counted, and the image keeps exactly the
// records the region still holds — the last lap's — so the replay recovers
// those and nothing the drive has overwritten, the torn first record
// included.
func TestJournalRegionWrapsAndRecovers(t *testing.T) {
	s := newSubstrate(t, fault.Config{})
	j := &s.Journal
	logical := s.Drive.LogicalPages()
	if got, want := j.FirstPage(), logical-logical/16; got != want {
		t.Fatalf("journal region starts at page %d, want the top 1/16 (%d)", got, want)
	}
	region := logical - j.FirstPage()
	writes := region*2 + 3 // one page per record: laps the region twice
	key := func(i int64) string { return fmt.Sprint("record ", i) }
	s.SetFaultInjector(fault.New(fault.Config{Seed: 5, Rates: fault.Rates{fault.JournalTorn: 1}}))
	at := time.Duration(0)
	for i := int64(0); i < writes; i++ {
		end := j.Flush(at, flushOf(t, key(i), i))
		if j.Writes() != i+1 || end <= at {
			t.Fatalf("flush %d: %d writes, end %v after %v", i, j.Writes(), end, at)
		}
		if j.cur <= j.base || j.cur > j.limit {
			t.Fatalf("flush %d left the cursor at page %d, outside (%d,%d]", i, j.cur, j.base, j.limit)
		}
		s.SetFaultInjector(nil) // only the first record tears
		at = end
	}
	if j.cur != j.base+3 {
		t.Fatalf("cursor at %d after two laps and three records, want %d", j.cur, j.base+3)
	}
	f := fabricateFlush(t)
	if j.Records != writes-1 || j.Torn != 1 || j.Bytes != writes*int64(f.Bytes) || j.Latency.Summary().Count != writes {
		t.Fatalf("accounting: %d records, %d torn, %d bytes, %d timed; want %d records of %d bytes and one torn",
			j.Records, j.Torn, j.Bytes, j.Latency.Summary().Count, writes-1, f.Bytes)
	}
	idx, rcv, err := dedup.RecoverJournal(j.Image, dedup.DefaultIndexConfig())
	if err != nil || rcv.Cause != nil || int64(rcv.Records) != region || idx.Len() != region {
		t.Fatalf("replay: %d records, %d entries, cause %v, err %v; want the last %d records",
			rcv.Records, idx.Len(), rcv.Cause, err, region)
	}
	for i := int64(0); i < writes; i++ {
		p := idx.Lookup(dedup.Sum([]byte(key(i))))
		if held := i >= writes-region; p.Found != held || (held && p.Entry.Loc != i) {
			t.Fatalf("record %d: recovered %v (%+v), want %v", i, p.Found, p.Entry, held)
		}
	}
}

// TestJournalTornPrefixRecovers: a torn record persists only a prefix, the
// partial write still occupies the drive and the latency histogram,
// recovery keeps every record before it, and reports the tear as
// ErrJournalCorrupt.
func TestJournalTornPrefixRecovers(t *testing.T) {
	s := newSubstrate(t, fault.Config{})
	j := &s.Journal
	f := fabricateFlush(t)
	at := j.Flush(0, f)
	s.SetFaultInjector(fault.New(fault.Config{Seed: 5, Rates: fault.Rates{fault.JournalTorn: 1}}))
	if end := j.Flush(at, f); end <= at {
		t.Fatalf("torn flush ends at %v, after %v", end, at)
	}
	if j.Records != 1 || j.Torn != 1 || j.Writes() != 2 || j.Latency.Summary().Count != 2 || j.Failures != 0 {
		t.Fatalf("after one whole and one torn record: %d records, %d torn, %d writes, %d timed, %d failures",
			j.Records, j.Torn, j.Writes(), j.Latency.Summary().Count, j.Failures)
	}
	whole := len(dedup.AppendJournalRecord(nil, f))
	if n := len(j.Image); n <= whole || n >= 2*whole {
		t.Fatalf("image holds %d bytes; want one %d-byte record and part of another", n, whole)
	}
	_, rcv, err := dedup.RecoverJournal(j.Image, dedup.DefaultIndexConfig())
	if err != nil || rcv.Records != 1 {
		t.Fatalf("recovery: %d records, err %v; want the one whole record", rcv.Records, err)
	}
	if !errors.Is(rcv.Cause, dedup.ErrJournalCorrupt) || rcv.TruncatedAt != whole {
		t.Fatalf("recovery of a torn journal: cause %v at %d, want ErrJournalCorrupt at %d", rcv.Cause, rcv.TruncatedAt, whole)
	}
}

// TestJournalFailedWriteKeepsRetryTimeThenDegrades: six exhausted transient
// retries cost Σ Backoff(0..5) = 12.6 ms, and that time comes back to the
// caller with the failure; the region then goes dead and later flushes are
// dropped without drive time or further counting.
func TestJournalFailedWriteKeepsRetryTimeThenDegrades(t *testing.T) {
	s := newSubstrate(t, fault.Config{Seed: 3, Rates: fault.Rates{fault.SSDWriteTransient: 1}})
	j := &s.Journal
	f := fabricateFlush(t)
	const at = 5 * time.Millisecond
	end := j.Flush(at, f)
	if j.Failures != 1 || j.Writes() != 0 {
		t.Fatalf("exhausted retries: failures=%d, writes=%d", j.Failures, j.Writes())
	}
	if want := at + 12600*time.Microsecond; end != want {
		t.Fatalf("failed flush ends at %v, want %v (the backoff its retries consumed)", end, want)
	}
	if s.WriteRetries != fault.MaxRetries {
		t.Fatalf("retries counted: %d, want %d", s.WriteRetries, fault.MaxRetries)
	}
	busy := s.Drive.Horizon()
	if end := j.Flush(end, f); end != at+12600*time.Microsecond {
		t.Fatalf("flush into a dead region ends at %v", end)
	}
	if j.Failures != 1 || j.Writes() != 0 || s.WriteRetries != fault.MaxRetries || s.Drive.Horizon() != busy || len(j.Image) != 0 || j.Latency.Summary().Count != 0 {
		t.Fatal("a dead region must drop flushes without touching the drive, the counters, or the image")
	}
}

// TestJournalTornFlushWriteFailureDegrades: a flush drawn torn whose region
// write then fails permanently lands nothing. It is lost like any failed
// flush — the region goes dead, one failure is counted, and neither the
// image nor the torn count nor the latency histogram moves.
func TestJournalTornFlushWriteFailureDegrades(t *testing.T) {
	s := newSubstrate(t, fault.Config{Seed: 3, Rates: fault.Rates{fault.JournalTorn: 1, fault.SSDWriteTransient: 1}})
	j := &s.Journal
	f := fabricateFlush(t)
	const at = 5 * time.Millisecond
	end := j.Flush(at, f)
	if j.Failures != 1 {
		t.Fatalf("torn flush with exhausted retries: failures=%d", j.Failures)
	}
	if want := at + 12600*time.Microsecond; end != want {
		t.Fatalf("failed flush ends at %v, want %v (the backoff its retries consumed)", end, want)
	}
	if len(j.Image) != 0 || j.Torn != 0 || j.Records != 0 || j.Writes() != 0 || j.Bytes != 0 || j.Latency.Summary().Count != 0 {
		t.Fatalf("a failed torn write left %d image bytes, %d torn, %d records, %d bytes, %d timed",
			len(j.Image), j.Torn, j.Records, j.Bytes, j.Latency.Summary().Count)
	}
	s.SetFaultInjector(nil) // a live region would land the next flush
	j.Flush(end, f)
	if j.Writes() != 0 {
		t.Fatal("the region must stay dead once a write failed")
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
			func(src []byte) ([]byte, lz.Stats) { return lz.Compress(nil, src, lz.DefaultParams()) },
			func(_ []byte, st lz.Stats) float64 { return cost.EntropyCycles(4096) + codecCycles(st) }},
		{"lzss", Encoder{Compress: true}, compressible, KindCodec,
			func(src []byte) ([]byte, lz.Stats) { return lz.Compress(nil, src, lz.DefaultParams()) },
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

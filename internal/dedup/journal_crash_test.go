package dedup

import (
	"errors"
	"fmt"
	"testing"

	"inlinered/internal/fault"
)

// writtenSet maps bin|key to the last journaled entry, built from the
// ground-truth flush history (not by decoding the image).
type writtenSet map[string]Entry

func (ws writtenSet) add(f *Flush) {
	for _, e := range f.Entries {
		ws[fmt.Sprintf("%d|%x", f.Bin, e.key)] = e.val
	}
}

// buildJournal journals n inserts plus a final FlushAll and returns the
// image and the ground-truth entry set.
func buildJournal(t *testing.T, cfg IndexConfig, n int) ([]byte, writtenSet) {
	t.Helper()
	idx, err := NewBinIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var img []byte
	ws := writtenSet{}
	for i := 0; i < n; i++ {
		if ir := idx.Insert(fpFor(i), Entry{Loc: int64(i), Size: uint32(i)}); ir.Flush != nil {
			img = AppendJournalRecord(img, ir.Flush)
			ws.add(ir.Flush)
		}
	}
	for _, f := range idx.FlushAll() {
		img = AppendJournalRecord(img, f)
		ws.add(f)
	}
	return img, ws
}

// appendTorn journals only the leading frac of f's record, as a crash
// mid-write leaves it.
func appendTorn(img []byte, f *Flush, frac float64) []byte {
	rec := AppendJournalRecord(nil, f)
	return append(img, rec[:int(frac*float64(len(rec)))]...)
}

// checkNoPhantoms asserts every entry in the recovered index was actually
// journaled, with matching metadata.
func checkNoPhantoms(t *testing.T, rec *BinIndex, ws writtenSet) {
	t.Helper()
	rec.Walk(func(bin uint32, key []byte, e Entry) bool {
		want, ok := ws[fmt.Sprintf("%d|%x", bin, key)]
		if !ok {
			t.Fatalf("phantom entry: bin %d key %x", bin, key)
		}
		if e != want {
			t.Fatalf("bin %d key %x: recovered %+v, written %+v", bin, key, e, want)
		}
		return true
	})
}

// A torn record mid-journal truncates recovery there: every record before
// it is applied, everything at and after it (even intact records) is lost.
func TestRecoverTruncatesAtTornRecord(t *testing.T) {
	cfg := IndexConfig{BinBits: 4, BufferEntries: 4}
	idx, err := NewBinIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var img []byte
	var flushes []*Flush
	for i := 0; flushes == nil || len(flushes) < 8; i++ {
		if ir := idx.Insert(fpFor(i), Entry{Loc: int64(i)}); ir.Flush != nil {
			flushes = append(flushes, ir.Flush)
		}
	}
	goodBefore := 5
	ws := writtenSet{}
	for i, f := range flushes {
		switch {
		case i < goodBefore:
			img = AppendJournalRecord(img, f)
			ws.add(f)
		case i == goodBefore:
			img = appendTorn(img, f, 0.5)
		default:
			img = AppendJournalRecord(img, f) // unreachable by recovery: behind the tear
		}
	}

	rec, rcv, err := RecoverJournal(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Cause == nil {
		t.Fatal("recovery must report truncation")
	}
	if rcv.Records != goodBefore {
		t.Fatalf("recovered %d records, want %d", rcv.Records, goodBefore)
	}
	if !errors.Is(rcv.Cause, ErrJournalCorrupt) {
		t.Fatalf("cause must wrap ErrJournalCorrupt, got %v", rcv.Cause)
	}
	checkNoPhantoms(t, rec, ws)
	want := 0
	for _, f := range flushes[:goodBefore] {
		want += len(f.Entries)
	}
	if int(rec.Len()) > want {
		t.Fatalf("recovered %d entries from %d journaled", rec.Len(), want)
	}
}

// Crash-point suite: cut the journal image at every byte boundary. Each
// prefix must recover without error into a consistent prefix of the flush
// history — never a phantom, never a half-applied record, and the set of
// recovered records grows monotonically with the cut point.
func TestRecoverAtEveryCut(t *testing.T) {
	cfg := IndexConfig{BinBits: 8, BufferEntries: 4, PrefixBytes: 1}
	image, ws := buildJournal(t, cfg, 200)
	recs, rcv := scanJournal(image, cfg)
	if rcv.Cause != nil || len(recs) < 4 {
		t.Fatalf("need a clean multi-record image, got %d records (cause %v)", len(recs), rcv.Cause)
	}

	// complete[c] = number of records fully contained in image[:c].
	complete := make([]int, len(image)+1)
	n := 0
	for c := range complete {
		if n < len(recs) && c >= recs[n].Offset+recs[n].Size {
			n++
		}
		complete[c] = n
	}

	prevRecords := 0
	for cut := 0; cut <= len(image); cut++ {
		rec, rcv, err := RecoverJournal(image[:cut], cfg)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rcv.Records != complete[cut] {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, rcv.Records, complete[cut])
		}
		// A cut strictly inside a record leaves trailing torn bytes: that
		// must be reported. A cut exactly on a record boundary is a clean
		// prefix — no truncation cause.
		cleanBoundary := cut == 0 || (complete[cut] > 0 &&
			cut == recs[complete[cut]-1].Offset+recs[complete[cut]-1].Size)
		if (rcv.Cause == nil) != cleanBoundary {
			t.Fatalf("cut %d: cause %v, clean boundary=%v", cut, rcv.Cause, cleanBoundary)
		}
		if rcv.Records < prevRecords {
			t.Fatalf("cut %d: recovered records shrank (%d -> %d)", cut, prevRecords, rcv.Records)
		}
		prevRecords = rcv.Records
		checkNoPhantoms(t, rec, ws)
	}
}

// Flipping any single byte of the image must leave recovery panic-free and
// phantom-free: the CRC catches the damage and recovery keeps only records
// before the damaged one.
func TestRecoverSurvivesBitFlips(t *testing.T) {
	cfg := IndexConfig{BinBits: 4, BufferEntries: 4}
	image, ws := buildJournal(t, cfg, 200)
	recs, _ := scanJournal(image, cfg)

	flipped := make([]byte, len(image))
	for pos := 0; pos < len(image); pos++ {
		copy(flipped, image)
		flipped[pos] ^= 0x41
		rec, rcv, err := RecoverJournal(flipped, cfg)
		if err != nil {
			t.Fatalf("flip at %d: %v", pos, err)
		}
		checkNoPhantoms(t, rec, ws)
		// Records wholly before the flipped byte always survive.
		before := 0
		for _, r := range recs {
			if r.Offset+r.Size <= pos {
				before++
			}
		}
		if rcv.Records < before {
			t.Fatalf("flip at %d: recovered %d records, >= %d expected", pos, rcv.Records, before)
		}
	}
}

// The injector's torn-fraction stream tears records deterministically: same
// seed, same image.
func TestTornFractionDeterministicImage(t *testing.T) {
	build := func() []byte {
		inj := fault.New(fault.Config{Seed: 7, Rates: fault.Rates{fault.JournalTorn: 0.3}})
		cfg := IndexConfig{BinBits: 4, BufferEntries: 4}
		idx, _ := NewBinIndex(cfg)
		var img []byte
		for i := 0; i < 400; i++ {
			ir := idx.Insert(fpFor(i), Entry{Loc: int64(i)})
			if ir.Flush == nil {
				continue
			}
			if frac, torn := inj.TornFraction(); torn {
				// A tear is a crash: nothing after it is journaled.
				return appendTorn(img, ir.Flush, frac)
			}
			img = AppendJournalRecord(img, ir.Flush)
		}
		return img
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Fatal("same fault seed must produce identical torn images")
	}
}

// FuzzJournalReplay mutates a valid journal image (overwrite one byte,
// then cut at an arbitrary point) and requires recovery to stay panic-free
// and to never yield an entry that was not journaled.
func FuzzJournalReplay(f *testing.F) {
	cfg := IndexConfig{BinBits: 8, BufferEntries: 4, PrefixBytes: 1}
	idx, err := NewBinIndex(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var image []byte
	ws := writtenSet{}
	for i := 0; i < 400; i++ {
		if ir := idx.Insert(fpFor(i), Entry{Loc: int64(i), Size: uint32(i)}); ir.Flush != nil {
			image = AppendJournalRecord(image, ir.Flush)
			ws.add(ir.Flush)
		}
	}
	if len(image) == 0 {
		f.Fatal("seed image empty")
	}
	f.Add(uint32(0), byte(0xFF), uint32(len(image)))
	f.Add(uint32(len(image)/2), byte(0x00), uint32(len(image)/2))
	f.Add(uint32(5), byte(journalMagic), uint32(len(image)))
	f.Fuzz(func(t *testing.T, pos uint32, val byte, cut uint32) {
		img := make([]byte, len(image))
		copy(img, image)
		img[int(pos)%len(img)] = val
		img = img[:int(cut)%(len(img)+1)]

		rec, rcv, err := RecoverJournal(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rcv.Cause != nil && !errors.Is(rcv.Cause, ErrJournalCorrupt) {
			t.Fatalf("truncation cause must wrap ErrJournalCorrupt: %v", rcv.Cause)
		}
		checkNoPhantoms(t, rec, ws)
	})
}

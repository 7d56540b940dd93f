package dedup

import (
	"errors"
	"testing"
)

// buildJournaledIndex inserts n fingerprints, journaling every flush, and
// returns the live index, the journal image, and the fingerprints.
func buildJournaledIndex(t *testing.T, cfg IndexConfig, n int) (*BinIndex, []byte, []Fingerprint) {
	t.Helper()
	idx, err := NewBinIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var img []byte
	fps := make([]Fingerprint, n)
	for i := range fps {
		fps[i] = fpFor(i)
		ir := idx.Insert(fps[i], Entry{Loc: int64(i), Size: uint32(i % 1000)})
		if ir.Flush != nil {
			img = AppendJournalRecord(img, ir.Flush)
		}
	}
	return idx, img, fps
}

// appendRecords journals each flush in order.
func appendRecords(img []byte, flushes []*Flush) []byte {
	for _, f := range flushes {
		img = AppendJournalRecord(img, f)
	}
	return img
}

// replayClean recovers img and requires it to hold no tear.
func replayClean(t *testing.T, img []byte, cfg IndexConfig) *BinIndex {
	t.Helper()
	rec, rcv, err := RecoverJournal(img, cfg)
	if err != nil || rcv.Cause != nil {
		t.Fatalf("replay: cause %v, err %v", rcv.Cause, err)
	}
	return rec
}

func TestJournalReplayRecoversFlushedEntries(t *testing.T) {
	cfg := IndexConfig{BinBits: 6, BufferEntries: 8}
	live, img, fps := buildJournaledIndex(t, cfg, 5000)
	if len(img) == 0 {
		t.Fatal("no flushes journaled")
	}
	rec := replayClean(t, img, cfg)
	// Everything the live index flushed to its trees must be recovered,
	// with identical metadata.
	if int(rec.Len()) != live.TreeEntries() {
		t.Fatalf("recovered %d entries, live trees hold %d", rec.Len(), live.TreeEntries())
	}
	recoveredHits := 0
	for i, fp := range fps {
		p := rec.Lookup(fp)
		if !p.Found {
			continue
		}
		recoveredHits++
		if p.Entry.Loc != int64(i) || p.Entry.Size != uint32(i%1000) {
			t.Fatalf("fp %d recovered with wrong metadata: %+v", i, p.Entry)
		}
	}
	if recoveredHits != live.TreeEntries() {
		t.Fatalf("recovered hits %d != tree entries %d", recoveredHits, live.TreeEntries())
	}
	// Entries still buffered at the crash are lost — the documented
	// tradeoff.
	if live.BufferedEntries() == 0 {
		t.Fatal("test needs some unflushed entries to be meaningful")
	}
}

func TestJournalReplayAfterFlushAllIsComplete(t *testing.T) {
	cfg := IndexConfig{BinBits: 4, BufferEntries: 4}
	live, img, fps := buildJournaledIndex(t, cfg, 1000)
	rec := replayClean(t, appendRecords(img, live.FlushAll()), cfg)
	for i, fp := range fps {
		if p := rec.Lookup(fp); !p.Found || p.Entry.Loc != int64(i) {
			t.Fatalf("fp %d missing after clean-shutdown replay", i)
		}
	}
	if rec.Len() != live.Len() {
		t.Fatalf("recovered %d vs live %d", rec.Len(), live.Len())
	}
}

func TestJournalWithPrefixTruncation(t *testing.T) {
	cfg := IndexConfig{BinBits: 16, BufferEntries: 4, PrefixBytes: 2}
	live, img, fps := buildJournaledIndex(t, cfg, 500)
	rec := replayClean(t, appendRecords(img, live.FlushAll()), cfg)
	for i, fp := range fps {
		if p := rec.Lookup(fp); !p.Found {
			t.Fatalf("truncated fp %d missing after replay", i)
		}
	}
}

func TestJournalRejectsCorruption(t *testing.T) {
	cfg := IndexConfig{BinBits: 4, BufferEntries: 4}
	live, img, _ := buildJournaledIndex(t, cfg, 200)
	good := appendRecords(img, live.FlushAll())

	cases := map[string][]byte{
		"bad magic":  append([]byte{0xFF}, good[1:]...),
		"truncated":  good[:len(good)/2],
		"bin range":  {journalMagic, 0xFF, 0xFF, 0x01, 0x01},
		"junk count": {journalMagic, 0x01},
	}
	for name, img := range cases {
		if _, rcv, err := RecoverJournal(img, cfg); err != nil || !errors.Is(rcv.Cause, ErrJournalCorrupt) {
			t.Errorf("%s: want ErrJournalCorrupt, got cause %v, err %v", name, rcv.Cause, err)
		}
	}
	// Mismatched config (different key width) must report corruption, not
	// mis-replay.
	if _, rcv, _ := RecoverJournal(good, IndexConfig{BinBits: 16, BufferEntries: 4, PrefixBytes: 2}); rcv.Cause == nil {
		t.Error("replay with mismatched prefix should report corruption")
	}
}

func TestJournalEmptyImage(t *testing.T) {
	cfg := DefaultIndexConfig()
	if rec := replayClean(t, nil, cfg); rec.Len() != 0 {
		t.Fatal("empty journal should recover an empty index")
	}
}

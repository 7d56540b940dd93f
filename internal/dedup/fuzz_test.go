package dedup

import (
	"errors"
	"runtime"
	"testing"
)

// allocated reports what fn allocated (TotalAlloc is monotonic, so the
// delta bounds it).
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReplayJournal: journal replay must never panic on arbitrary images,
// must report every tear as ErrJournalCorrupt, must replay every image the
// writer produces without one, and an N-byte image allocates no more than
// the recovered index's fixed size plus 8 KiB plus 64·N.
//
// The factor 64 covers the densest image: a record with no entries is 7
// bytes and decodes to one 72-byte journalRecord, whose slice at most
// doubles on growth; an entry takes at least 22 bytes and costs a key
// header, a value, a key copy and a tree node.
func FuzzReplayJournal(f *testing.F) {
	cfg := IndexConfig{BinBits: 6, BufferEntries: 4}
	idx, _ := NewBinIndex(cfg)
	var valid []byte
	for i := 0; i < 1024; i++ {
		if ir := idx.Insert(fpFor(i), Entry{Loc: int64(i)}); ir.Flush != nil {
			valid = AppendJournalRecord(valid, ir.Flush)
		}
	}
	first, _ := scanJournal(valid, cfg)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:first[0].Size/2]) // truncated mid-record
	flipped := append([]byte(nil), valid...)
	flipped[first[0].Size-1] ^= 0x01 // a bit of the first record's checksum
	f.Add(flipped)
	f.Add([]byte{journalMagic, 0x01, 0x00})
	fixed := min(
		allocated(func() { _, _ = NewBinIndex(cfg) }),
		allocated(func() { _, _ = NewBinIndex(cfg) }))
	f.Fuzz(func(t *testing.T, img []byte) {
		var rec *BinIndex
		var rcv Recovery
		var err error
		alloc := allocated(func() { rec, rcv, err = RecoverJournal(img, cfg) })
		alloc2 := allocated(func() { _, _, _ = RecoverJournal(img, cfg) })
		// The smaller of two runs keeps a background allocation out of the
		// verdict.
		if limit := fixed + 8<<10 + 64*uint64(len(img)); min(alloc, alloc2) > limit {
			t.Fatalf("%d-byte image allocated %d bytes (limit %d)", len(img), min(alloc, alloc2), limit)
		}
		if err != nil {
			t.Fatal(err)
		}
		if rcv.Cause != nil && !errors.Is(rcv.Cause, ErrJournalCorrupt) {
			t.Fatalf("truncation cause must wrap ErrJournalCorrupt: %v", rcv.Cause)
		}
		if rec.Len() < 0 {
			t.Fatalf("%d entries", rec.Len())
		}
		if string(img) == string(valid) && rcv.Cause != nil {
			t.Fatalf("a written image reported corrupt: %v", rcv.Cause)
		}
	})
}

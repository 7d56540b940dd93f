package dedup

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The index journal is the durable form of §3.3's bin-buffer flushes: "when
// the buffer is full, the hash is immediately flushed from the buffer to
// the storage. This creates the appropriate sequential writes for the SSD."
// Each flush appends one self-describing, checksummed record; replaying the
// journal after a crash rebuilds every flushed index entry. Entries still
// sitting in bin buffers at the moment of the crash were never journaled
// and are lost — the memory-only-index tradeoff: their future duplicates
// are simply stored again.
//
// Record format (little-endian):
//
//	magic byte 'J'
//	uvarint bin id
//	uvarint entry count
//	per entry: key suffix (fixed width = 20 - PrefixBytes), uvarint loc,
//	           uvarint size
//	crc32c (4 bytes LE) over everything above, magic included
//
// The trailing CRC makes torn (partially persisted) and bit-flipped
// records detectable: recovery truncates the journal at the first record
// whose checksum or structure does not hold, and everything before that
// point is a consistent prefix of the flush history.

// ErrJournalCorrupt is wrapped by every journal decode error.
var ErrJournalCorrupt = errors.New("dedup: corrupt journal")

const journalMagic = 'J'

// castagnoli is the CRC polynomial used by the journal records (the same
// one real storage stacks use for on-disk metadata).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendJournalRecord appends one flush's record, checksum included, to dst
// and returns the extended slice. The key width is the flush's own: the
// suffix its index keeps under PrefixBytes truncation.
func AppendJournalRecord(dst []byte, f *Flush) []byte {
	start := len(dst)
	dst = append(dst, journalMagic)
	dst = binary.AppendUvarint(dst, uint64(f.Bin))
	dst = binary.AppendUvarint(dst, uint64(len(f.Entries)))
	for _, e := range f.Entries {
		dst = append(dst, e.key...)
		dst = binary.AppendUvarint(dst, uint64(e.val.Loc))
		dst = binary.AppendUvarint(dst, uint64(e.val.Size))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// journalRecord is one decoded flush record and its extent in the image.
type journalRecord struct {
	Offset int // byte offset of the record's magic
	Size   int // record length in bytes, checksum included
	Bin    uint32
	Keys   [][]byte
	Vals   []Entry
}

// Recovery describes what a journal replay salvaged.
type Recovery struct {
	Records     int // complete records applied
	Entries     int // entries inserted into the recovered index
	TruncatedAt int // byte offset of the first unusable record
	// Cause is the decode error at the truncation point: non-nil exactly
	// when the image ended in a torn or corrupt record. It always wraps
	// ErrJournalCorrupt.
	Cause error
}

// decodeRecord parses the record starting at off. It validates structure
// and checksum before returning; a failed parse reports the record
// unusable without partial effects.
func decodeRecord(image []byte, off int, keyLen, bins int) (journalRecord, error) {
	rec := journalRecord{Offset: off}
	corrupt := func(format string, args ...interface{}) (journalRecord, error) {
		return rec, fmt.Errorf("%w: record at %d: %s", ErrJournalCorrupt, off, fmt.Sprintf(format, args...))
	}
	p := off
	if image[p] != journalMagic {
		return corrupt("bad magic %#x", image[p])
	}
	p++
	bin, n := binary.Uvarint(image[p:])
	if n <= 0 {
		return corrupt("bin id")
	}
	p += n
	if bin >= uint64(bins) {
		return corrupt("bin %d out of range", bin)
	}
	count, n := binary.Uvarint(image[p:])
	if n <= 0 || count > 1<<20 {
		return corrupt("entry count")
	}
	p += n
	rec.Bin = uint32(bin)
	for i := uint64(0); i < count; i++ {
		if p+keyLen > len(image) {
			return corrupt("truncated key")
		}
		key := image[p : p+keyLen]
		p += keyLen
		loc, n := binary.Uvarint(image[p:])
		if n <= 0 {
			return corrupt("loc")
		}
		p += n
		size, n := binary.Uvarint(image[p:])
		if n <= 0 || size > 1<<31 {
			return corrupt("size")
		}
		p += n
		rec.Keys = append(rec.Keys, key)
		rec.Vals = append(rec.Vals, Entry{Loc: int64(loc), Size: uint32(size)})
	}
	if p+4 > len(image) {
		return corrupt("truncated checksum")
	}
	want := binary.LittleEndian.Uint32(image[p : p+4])
	if got := crc32.Checksum(image[off:p], castagnoli); got != want {
		return corrupt("checksum mismatch (stored %#x, computed %#x)", want, got)
	}
	rec.Size = p + 4 - off
	return rec, nil
}

// scanJournal decodes an image into its complete records, stopping at the
// first torn or corrupt one. cfg supplies the key width (PrefixBytes) and
// bin range the records were written under. The returned Recovery
// describes where (and why) the scan stopped; it never returns an error
// for image corruption.
func scanJournal(image []byte, cfg IndexConfig) ([]journalRecord, Recovery) {
	keyLen := FingerprintSize - cfg.PrefixBytes
	bins := 1 << uint(cfg.BinBits)
	var recs []journalRecord
	var rcv Recovery
	off := 0
	for off < len(image) {
		rec, err := decodeRecord(image, off, keyLen, bins)
		if err != nil {
			rcv.TruncatedAt = off
			rcv.Cause = err
			return recs, rcv
		}
		recs = append(recs, rec)
		rcv.Records++
		rcv.Entries += len(rec.Keys)
		off += rec.Size
	}
	return recs, rcv
}

// applyRecord inserts a decoded record straight into the recovered index's bin
// tree (journaled entries had already flushed when they were written).
func applyRecord(idx *BinIndex, rec journalRecord) {
	b := &idx.bins[rec.Bin]
	for i, key := range rec.Keys {
		k := make([]byte, len(key))
		copy(k, key)
		b.tree.Insert(k, rec.Vals[i])
	}
}

// RecoverJournal rebuilds an index from the longest consistent prefix of
// a journal image: decoding stops at the first torn or corrupt record
// (the crash point), every complete record before it is applied, and the
// returned Recovery reports what was salvaged and where the image was
// truncated. The error is non-nil only for an unusable configuration —
// corruption itself is recoverable by construction. A caller that expects
// a pristine image (a clean shutdown) requires Recovery.Cause == nil.
func RecoverJournal(image []byte, cfg IndexConfig) (*BinIndex, Recovery, error) {
	idx, err := NewBinIndex(cfg)
	if err != nil {
		return nil, Recovery{}, err
	}
	recs, rcv := scanJournal(image, cfg)
	for _, rec := range recs {
		applyRecord(idx, rec)
	}
	return idx, rcv, nil
}

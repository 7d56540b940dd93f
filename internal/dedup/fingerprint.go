// Package dedup implements the deduplication half of the paper's inline
// data reduction pipeline: SHA-1 chunk fingerprinting, the bin-based
// in-memory index of §3.1 (bin buffer + bin tree per bin, hash-prefix
// truncation, lock-free parallel indexing by bin ownership), the
// GPU-resident linear bin tables of §3.1(2) with their batch indexing
// kernel, and the index journal's record format with its one replay,
// which keeps the consistent prefix before any tear. Writing the journal —
// the image, its counters and where its records land on the drive —
// belongs to internal/reduce's Journal.
package dedup

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"

	"inlinered/internal/parallel"
)

// FingerprintSize is the size of a chunk fingerprint (SHA-1, as in the
// paper's 20-byte hashes).
const FingerprintSize = sha1.Size

// Fingerprint identifies a chunk's content.
type Fingerprint [FingerprintSize]byte

// Sum fingerprints a chunk payload with SHA-1: on the CPU's SHA extensions
// where CPUID reports them (sha1_amd64.s), else crypto/sha1.
func Sum(data []byte) Fingerprint {
	if useSHANI {
		return sumSHANI(data)
	}
	return sha1.Sum(data)
}

// SumBatch fingerprints chunks through pool in one call; results are
// positionally aligned with chunks. Hashing has no cross-chunk dependency
// (§3.1), so the pool's atomic batch claiming is all the coordination the
// stage needs.
func SumBatch(pool *parallel.Pool, chunks [][]byte) []Fingerprint {
	out := make([]Fingerprint, len(chunks))
	pool.Map(len(chunks), func(i int) { out[i] = Sum(chunks[i]) })
	return out
}

// String renders the fingerprint in hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Bin returns the bin this fingerprint belongs to, selected from the
// fingerprint's leading bits so that prefix truncation (which drops leading
// bytes) never discards information the bin id does not already imply.
func (f Fingerprint) Bin(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	if bits > 32 {
		bits = 32
	}
	v := binary.BigEndian.Uint32(f[:4])
	return v >> (32 - uint(bits))
}

// Suffix returns the stored portion of the fingerprint after dropping
// prefixBytes leading bytes (§3.1's memory optimization: with the prefix
// implied by the bin id, only 20-n bytes per hash are kept).
func (f Fingerprint) Suffix(prefixBytes int) []byte {
	if prefixBytes < 0 {
		prefixBytes = 0
	}
	if prefixBytes > FingerprintSize {
		prefixBytes = FingerprintSize
	}
	s := make([]byte, FingerprintSize-prefixBytes)
	copy(s, f[prefixBytes:])
	return s
}

// Entry is the host-side metadata kept per indexed chunk. Together with the
// stored hash suffix this forms the paper's 32-byte index entry (20-byte
// SHA-1 + 12 bytes of metadata).
type Entry struct {
	Loc  int64  // location of the stored (compressed) chunk on the SSD
	Size uint32 // stored size in bytes
}

// EntryMetadataBytes is the metadata size per index entry.
const EntryMetadataBytes = 12

// EntryBytes returns the in-memory size of one index entry under a given
// prefix truncation, matching the paper's arithmetic (32 bytes at n=0).
func EntryBytes(prefixBytes int) int {
	if prefixBytes < 0 {
		prefixBytes = 0
	}
	if prefixBytes > FingerprintSize {
		prefixBytes = FingerprintSize
	}
	return FingerprintSize - prefixBytes + EntryMetadataBytes
}

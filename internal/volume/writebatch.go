package volume

import (
	"fmt"
	"time"

	"inlinered/internal/dedup"
	"inlinered/internal/metrics"
	"inlinered/internal/parallel"
	"inlinered/internal/reduce"
)

// The write front's shape: a window is writeWindow consecutive writes of a
// run (writes, not ops: a read-mostly queue must fill one too), prepared
// writeGroup writes to a posted task, with writeWindows in flight — one
// committing, one encoding, one hashing; ~0.8 MiB of payload and blob
// scratch while a run lasts. Neighbouring values tried: CHANGES.md, PR 18.
const (
	writeWindow  = 32
	writeGroup   = 8
	writeWindows = 3
)

// preparedWrite is the pure half of one write. The window owns its bytes
// until the write commits (the volume copies what it keeps); then the slot
// serves the write writeWindows windows later.
type preparedWrite struct {
	payload []byte
	fp      dedup.Fingerprint
	unique  bool           // predicted unique: enc is payload's stored form
	enc     reduce.Encoded // its Blob doubles as the slot's encode scratch
}

// WriteBatch is the run-ahead front of the write path, the mirror image of
// ReadBatch: for a run of n writes it fingerprints and encodes ahead of the
// commit cursor — in tasks posted on the pool, run by whoever lends itself
// or by Write while it waits — and Write commits them strictly in order
// through commitWrite; reads, trims and cleans go straight to the volume in
// between. Which blocks to encode ahead is a guess made in write order:
// unique when the fingerprint is neither in the chunk store at that moment
// nor pending from an earlier uncommitted write. Either guess can be wrong
// (a stored chunk's last reference is trimmed before the write commits; an
// earlier write of the block fails) and commitWrite absorbs both. Like the
// volume, a batch belongs to whoever holds the shard lock; it lives for one
// run, so a shard retains nothing of it between Serve calls.
type WriteBatch struct {
	v    *Volume
	pool *parallel.Pool
	fill func(dst []byte, i int) []byte

	n, next         int             // writes in the run; writes handed to commitWrite
	hashed, encoded int             // windows whose hash / encode round has been posted
	slots           []preparedWrite // a ring of writeWindows windows
	rounds          [writeWindows]parallel.Tasks
	pending         map[dedup.Fingerprint]struct{} // predicted unique, not yet committed
	hashFn, encFn   func(lo, hi int)
}

// NewWriteBatch starts a run of n writes: fill(dst, i) appends the i-th
// write's payload to dst and must be a pure function of i.
func (v *Volume) NewWriteBatch(pool *parallel.Pool, n int, fill func(dst []byte, i int) []byte) *WriteBatch {
	b := &WriteBatch{v: v, pool: pool, fill: fill, n: n, pending: make(map[dedup.Fingerprint]struct{})}
	b.slots = make([]preparedWrite, min(n, writeWindows*writeWindow))
	// One slab for the run's payload and blob scratch (a raw store adds a
	// short header; a blob that outgrows its share just reallocates):
	// per-slot buffers cost ~7 % of cluster-replicated's throughput.
	bs := v.cfg.BlockSize
	slab := make([]byte, len(b.slots)*(2*bs+16))
	for i := range b.slots {
		b.slots[i].payload, slab = slab[:0:bs], slab[bs:]
		b.slots[i].enc.Blob, slab = slab[:0:bs+16], slab[bs+16:]
	}
	b.hashFn, b.encFn = b.hash, b.encode
	return b
}

func (b *WriteBatch) slot(i int) *preparedWrite { return &b.slots[i%len(b.slots)] }

// Write commits the run's next write at lba: Volume.Write of fill's
// payload, bit for bit. A call past the run's n writes is refused before it
// reaches a slot: the ring would hand it an earlier write's payload.
func (b *WriteBatch) Write(lba int64) (time.Duration, error) {
	i := b.next
	if i >= b.n {
		return 0, fmt.Errorf("volume: WriteBatch: write %d of a %d-write run", i+1, b.n)
	}
	b.next++
	if i%writeWindow == 0 {
		b.advance(i / writeWindow)
	}
	s := b.slot(i)
	var spec *reduce.Encoded
	if s.unique {
		spec = &s.enc
		delete(b.pending, s.fp)
	}
	return b.v.commitWrite(lba, s.payload, s.fp, spec)
}

// advance brings the front to where window k may commit: windows up to k+2
// hashing, up to k+1 speculated and encoding, k encoded. Window k+2 reuses
// the slots and the round of k-1, every write of which has committed.
func (b *WriteBatch) advance(k int) {
	defer metrics.ServeFrontWait.ObserveSince(metrics.Clock())
	windows := (b.n + writeWindow - 1) / writeWindow
	for ; b.hashed < min(k+writeWindows, windows); b.hashed++ {
		lo := b.hashed * writeWindow
		b.pool.Post(&b.rounds[b.hashed%writeWindows], lo, min(lo+writeWindow, b.n), writeGroup, b.hashFn)
	}
	for ; b.encoded < min(k+writeWindows-1, windows); b.encoded++ {
		round, lo := &b.rounds[b.encoded%writeWindows], b.encoded*writeWindow
		b.pool.Wait(round) // the window's fingerprints
		if hi := min(lo+writeWindow, b.n); b.speculate(lo, hi) {
			b.pool.Post(round, lo, hi, writeGroup, b.encFn)
		}
	}
	b.pool.Wait(&b.rounds[k%writeWindows]) // window k's encodes
}

// speculate marks which writes of [lo, hi) are predicted unique and reports
// whether any is. It reads the chunk store: committing goroutine only.
func (b *WriteBatch) speculate(lo, hi int) bool {
	unique := 0
	for i := lo; i < hi; i++ {
		s := b.slot(i)
		_, dup := b.v.chunks[s.fp]
		if !dup {
			_, dup = b.pending[s.fp]
		}
		if s.unique = !dup; s.unique {
			b.pending[s.fp] = struct{}{}
			unique++
		}
	}
	if unique > 0 && metrics.Enabled() {
		metrics.WriteEncodesSpeculated.Add(int64(unique))
	}
	return unique > 0
}

// hash and encode are the posted tasks: pure functions of the run's
// payloads, each writing only the slots of its own index range.
func (b *WriteBatch) hash(lo, hi int) {
	defer metrics.VolumeWritePrepare.ObserveSince(metrics.Clock())
	for i := lo; i < hi; i++ {
		s := b.slot(i)
		s.payload = b.fill(s.payload[:0], i)
		s.fp = dedup.Sum(s.payload)
	}
}

func (b *WriteBatch) encode(lo, hi int) {
	defer metrics.VolumeWriteEncode.ObserveSince(metrics.Clock())
	for i := lo; i < hi; i++ {
		if s := b.slot(i); s.unique {
			s.enc = b.v.enc.Encode(s.enc.Blob[:0], s.payload)
		}
	}
}

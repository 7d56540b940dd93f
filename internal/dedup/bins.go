package dedup

import (
	"bytes"
	"fmt"

	"inlinered/internal/fault"
)

// IndexConfig parameterizes the bin-based index of §3.1.
type IndexConfig struct {
	// BinBits selects 2^BinBits bins by the fingerprint's leading bits.
	BinBits int
	// BufferEntries is the per-bin bin-buffer capacity (§3.3). Recently
	// inserted hashes live here and are probed first, exploiting temporal
	// locality; a full buffer flushes to the bin tree (and, in the pipeline,
	// to the SSD as a sequential journal write and to the GPU bins).
	BufferEntries int
	// PrefixBytes drops the leading bytes of each stored hash (§3.1's
	// memory optimization). Must satisfy 8*PrefixBytes <= BinBits so the
	// bin id still implies the dropped bits.
	PrefixBytes int
}

// DefaultIndexConfig returns the configuration used by the paper-faithful
// pipeline: 1024 bins (ample for lock-free partitioning across 8 hardware
// threads), 16-entry bin buffers (a staging buffer sized so bins flush
// regularly and the tree/GPU side of the index actually fills), no prefix
// truncation.
func DefaultIndexConfig() IndexConfig {
	return IndexConfig{BinBits: 10, BufferEntries: 16}
}

// Validate reports whether the configuration is usable.
func (c IndexConfig) Validate() error {
	if c.BinBits < 0 || c.BinBits > 24 {
		return fmt.Errorf("dedup: BinBits must be in [0,24], got %d", c.BinBits)
	}
	if c.BufferEntries < 1 {
		return fmt.Errorf("dedup: BufferEntries must be >= 1, got %d", c.BufferEntries)
	}
	if c.PrefixBytes < 0 || 8*c.PrefixBytes > c.BinBits {
		return fmt.Errorf("dedup: PrefixBytes=%d needs BinBits >= %d (bin id must imply the dropped prefix)",
			c.PrefixBytes, 8*c.PrefixBytes)
	}
	return nil
}

// bufEntry is one bin-buffer slot.
type bufEntry struct {
	key []byte
	val Entry
}

// bin is one partition of the index: a recency buffer plus a tree.
type bin struct {
	buf  []bufEntry // FIFO order, newest last
	tree Tree
}

// find scans the buffer newest-first (recent chunks are the likely
// repeats) and returns the slot holding key, or -1, and how many slots it
// compared.
func (b *bin) find(key []byte) (slot, scanned int) {
	for i := len(b.buf) - 1; i >= 0; i-- {
		if bytes.Equal(b.buf[i].key, key) {
			return i, len(b.buf) - i
		}
	}
	return -1, len(b.buf)
}

// Probe reports what one lookup did; the cost model turns this into time.
type Probe struct {
	Found         bool
	InBuffer      bool  // hit was in the bin buffer
	Entry         Entry // valid when Found
	BufferScanned int   // buffer entries compared
	TreeSteps     int   // tree nodes visited
}

// InsertResult reports what one insert did.
type InsertResult struct {
	BufferScanned int    // buffer slots touched (append is 1)
	Flush         *Flush // non-nil when the bin buffer filled and flushed
}

// Flush is the batch of entries that moved from a bin buffer into the bin
// tree. The pipeline destages it as one sequential journal write and pushes
// the same entries to the GPU bins.
type Flush struct {
	Bin       uint32
	Entries   []bufEntry
	TreeSteps int // total tree nodes visited inserting the batch
	Bytes     int // journal bytes (entries × entry size)
}

// Keys returns the flushed hash suffixes (for GPU bin updates).
func (f *Flush) Keys() [][]byte {
	keys := make([][]byte, len(f.Entries))
	for i, e := range f.Entries {
		keys[i] = e.key
	}
	return keys
}

// Values returns the flushed entries, aligned with Keys.
func (f *Flush) Values() []Entry {
	vals := make([]Entry, len(f.Entries))
	for i, e := range f.Entries {
		vals[i] = e.val
	}
	return vals
}

// BinIndex is the bin-based deduplication index. It is not safe for
// concurrent use as a whole, but all its state except the fault injector
// is per-bin, so disjoint bins share no variable: see IndexPartitioned for
// the lock-free partitioned run.
type BinIndex struct {
	cfg  IndexConfig
	bins []bin

	// faults injects memory-pressure evictions (consulted once per
	// insert); faultEvicted counts the entries it dropped. They are the
	// index's only eviction path: the index grows without bound otherwise.
	faults       *fault.Injector
	faultEvicted int64
}

// NewBinIndex returns an index for cfg, or an error if cfg is invalid.
func NewBinIndex(cfg IndexConfig) (*BinIndex, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &BinIndex{
		cfg:  cfg,
		bins: make([]bin, 1<<uint(cfg.BinBits)),
	}, nil
}

// Len returns the number of resident entries (buffers + trees).
func (x *BinIndex) Len() int64 { return int64(x.BufferedEntries() + x.TreeEntries()) }

// SetFaultInjector threads a deterministic fault injector through the
// index: each insert may be followed by a memory-pressure eviction of one
// resident tree entry, a uniformly random pick (random replacement, §3.3)
// whose duplicates are then missed — the memory-only index's accepted
// loss, forced early. Only inserts consult the injector; lookups never do,
// so read-only prediction passes cannot perturb the fault schedule.
func (x *BinIndex) SetFaultInjector(fi *fault.Injector) { x.faults = fi }

// FaultEvicted returns how many entries injected memory pressure dropped.
func (x *BinIndex) FaultEvicted() int64 { return x.faultEvicted }

// Walk visits every resident entry (bin buffers first, then bin trees)
// until fn returns false. Keys are the stored suffixes; callers must not
// retain or mutate them.
func (x *BinIndex) Walk(fn func(bin uint32, key []byte, e Entry) bool) {
	for i := range x.bins {
		b := &x.bins[i]
		for _, be := range b.buf {
			if !fn(uint32(i), be.key, be.val) {
				return
			}
		}
		stop := false
		b.tree.Walk(func(key []byte, v Entry) bool {
			if !fn(uint32(i), key, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// EntryBytes returns the per-entry memory footprint under this
// configuration's prefix truncation.
func (x *BinIndex) EntryBytes() int { return EntryBytes(x.cfg.PrefixBytes) }

// MemoryBytes returns the index's resident entry memory.
func (x *BinIndex) MemoryBytes() int64 { return x.Len() * int64(x.EntryBytes()) }

// BinOf returns the bin a fingerprint maps to.
func (x *BinIndex) BinOf(fp Fingerprint) uint32 { return fp.Bin(x.cfg.BinBits) }

// probeKey returns the stored suffix of *fp as a view into the caller's
// fingerprint, for probe-side comparisons only: unlike Suffix it performs
// no allocation (the serving front-end probes the index once per op, and
// a per-probe copy was one of its top allocators). The view must not be
// retained — Insert still copies via Suffix for stored entries.
func (x *BinIndex) probeKey(fp *Fingerprint) []byte {
	n := x.cfg.PrefixBytes
	if n < 0 {
		n = 0
	}
	if n > FingerprintSize {
		n = FingerprintSize
	}
	return fp[n:]
}

// Lookup probes the index for a fingerprint: bin buffer first (temporal
// locality, Figure 1), then the bin tree.
func (x *BinIndex) Lookup(fp Fingerprint) Probe {
	p := x.LookupBuffer(fp)
	if !p.Found {
		p.Entry, p.TreeSteps, p.Found = x.bins[x.BinOf(fp)].tree.Get(x.probeKey(&fp))
	}
	return p
}

// LookupBuffer probes only the bin buffer (recent entries), skipping the
// bin tree. The pipeline uses it for chunks the GPU has already screened:
// a GPU miss implies the hash is in no flushed bin, so only the
// not-yet-flushed buffer can hold it (modulo entries the GPU's random
// replacement dropped — those duplicates are missed, which the memory-only
// index design accepts).
func (x *BinIndex) LookupBuffer(fp Fingerprint) Probe {
	b := &x.bins[x.BinOf(fp)]
	i, scanned := b.find(x.probeKey(&fp))
	if i < 0 {
		return Probe{BufferScanned: scanned}
	}
	return Probe{Found: true, InBuffer: true, Entry: b.buf[i].val, BufferScanned: scanned}
}

// Insert adds a fingerprint to its bin buffer (the chunk was unique and has
// been stored at e.Loc). If the buffer reaches capacity it flushes into the
// bin tree and the flush batch is returned for destaging. Duplicate keys
// already buffered are updated in place.
func (x *BinIndex) Insert(fp Fingerprint, e Entry) InsertResult {
	binID := x.BinOf(fp)
	b := &x.bins[binID]
	i, scanned := b.find(x.probeKey(&fp))
	if i >= 0 {
		b.buf[i].val = e
		return InsertResult{BufferScanned: scanned}
	}
	res := InsertResult{BufferScanned: scanned + 1} // the append touches one more slot
	// Only an appended entry needs an owned copy of the suffix.
	b.buf = append(b.buf, bufEntry{key: fp.Suffix(x.cfg.PrefixBytes), val: e})
	if x.faults.EvictIndex() {
		x.evictUnderPressure(binID)
	}
	if len(b.buf) >= x.cfg.BufferEntries {
		res.Flush = x.flush(binID)
	}
	return res
}

// evictUnderPressure drops one resident tree entry in response to an
// injected memory-pressure fault: the inserting bin's tree when it has
// entries, else the globally largest tree. Buffered (not-yet-flushed)
// entries are never dropped — memory pressure reclaims the cold, flushed
// part of the index. Reaching into another bin's tree and drawing from
// the injector's one stream is why IndexPartitioned gives an index with an
// injector a single owner.
func (x *BinIndex) evictUnderPressure(binID uint32) {
	t := &x.bins[binID].tree
	if t.Len() == 0 {
		t = x.largestTree()
		if t == nil || t.Len() == 0 {
			return
		}
	}
	if _, _, ok := t.DeleteAt(x.faults.Rank(t.Len())); ok {
		x.faultEvicted++
	}
}

// flush moves the whole bin buffer into the bin tree.
func (x *BinIndex) flush(binID uint32) *Flush {
	b := &x.bins[binID]
	f := &Flush{Bin: binID, Entries: b.buf}
	for _, e := range b.buf {
		steps, _ := b.tree.Insert(e.key, e.val) // a buffered duplicate of a tree entry collapses
		f.TreeSteps += steps
	}
	f.Bytes = len(b.buf) * x.EntryBytes()
	b.buf = nil
	return f
}

// Remove deletes a fingerprint from the index (buffer or tree), reporting
// whether it was present and the work done. Used by reference-counting
// chunk stores when a chunk's last reference goes away.
func (x *BinIndex) Remove(fp Fingerprint) (removed bool, bufferScanned, treeSteps int) {
	b := &x.bins[x.BinOf(fp)]
	key := x.probeKey(&fp)
	i, bufferScanned := b.find(key)
	if i >= 0 {
		b.buf = append(b.buf[:i], b.buf[i+1:]...)
		return true, bufferScanned, 0
	}
	_, treeSteps, found := b.tree.Get(key)
	if !found {
		return false, bufferScanned, treeSteps
	}
	b.tree.Delete(key)
	return true, bufferScanned, treeSteps
}

// FlushAll drains every bin buffer (end-of-stream barrier) and returns the
// non-empty flushes.
func (x *BinIndex) FlushAll() []*Flush {
	var out []*Flush
	for i := range x.bins {
		if len(x.bins[i].buf) > 0 {
			out = append(out, x.flush(uint32(i)))
		}
	}
	return out
}

func (x *BinIndex) largestTree() *Tree {
	var best *Tree
	bestLen := 0
	for i := range x.bins {
		if l := x.bins[i].tree.Len(); l > bestLen {
			best, bestLen = &x.bins[i].tree, l
		}
	}
	return best
}

// BufferedEntries reports how many entries currently sit in bin buffers.
func (x *BinIndex) BufferedEntries() int {
	n := 0
	for i := range x.bins {
		n += len(x.bins[i].buf)
	}
	return n
}

// TreeEntries reports how many entries currently sit in bin trees.
func (x *BinIndex) TreeEntries() int {
	n := 0
	for i := range x.bins {
		n += x.bins[i].tree.Len()
	}
	return n
}

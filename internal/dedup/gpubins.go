package dedup

import (
	"fmt"
	"math/rand"
	"time"

	"inlinered/internal/gpu"
)

// GPUBins is the device-resident half of the index described in §3.1(2):
// every bin is a *linear* table of hash suffixes (not a tree), because
// contiguous layout lets wavefront lanes stage entries through local memory
// without branch-heavy pointer chasing. Only the hash values count against
// device memory; per-chunk metadata stays on the host and is resolved from
// the kernel's (hit, slot) result pairs, so device updates are plain array
// writes with no tree maintenance.
//
// Each bin is one slot table, in slot order, holding a key and its entry
// per slot. The simulated kernel's result is defined by a linear scan of
// the bin (and is *costed* as one), but the scan's outcome is computed
// through one map from (bin, key) to slot in O(1), so multi-gigabyte runs
// don't pay O(bin) wall-clock per probe.
type GPUBins struct {
	dev       *gpu.Device
	binBits   int
	keySize   int
	capPerBin int
	bins      [][]gpuSlot
	// slots names the slot holding a key in its bin.
	slots map[binKey]int32
	rng   *rand.Rand
}

// gpuSlot is one linear-table slot: the stored suffix and its host metadata.
type gpuSlot struct {
	key string
	e   Entry
}

type binKey struct {
	bin uint32
	key string
}

// GPUHit is one item's batch-indexing outcome.
type GPUHit struct {
	Found bool
	Entry Entry
}

// NewGPUBins returns device-resident bins: 2^binBits bins of capPerBin
// suffix slots each, refused if their keys would not fit the device's
// memory. prefixBytes matches the host index's truncation so the same key
// bytes are compared on both sides.
func NewGPUBins(dev *gpu.Device, binBits, capPerBin, prefixBytes, seed int) (*GPUBins, error) {
	if binBits < 0 || binBits > 24 {
		return nil, fmt.Errorf("dedup: gpu binBits must be in [0,24], got %d", binBits)
	}
	if capPerBin < 1 {
		return nil, fmt.Errorf("dedup: gpu capPerBin must be >= 1, got %d", capPerBin)
	}
	if prefixBytes < 0 || 8*prefixBytes > binBits {
		return nil, fmt.Errorf("dedup: gpu prefixBytes=%d needs binBits >= %d", prefixBytes, 8*prefixBytes)
	}
	g := &GPUBins{
		dev:       dev,
		binBits:   binBits,
		keySize:   FingerprintSize - prefixBytes,
		capPerBin: capPerBin,
		bins:      make([][]gpuSlot, 1<<uint(binBits)),
		slots:     make(map[binKey]int32),
		rng:       rand.New(rand.NewSource(int64(seed))),
	}
	if n := g.DeviceBytes(); int64(n) > dev.DeviceMemBytes {
		return nil, fmt.Errorf("dedup: gpu bins need %d bytes of device memory, the device has %d", n, dev.DeviceMemBytes)
	}
	return g, nil
}

// DeviceBytes returns the device-memory footprint of the bins' key slots.
func (g *GPUBins) DeviceBytes() int { return len(g.bins) * g.capPerBin * g.keySize }

// BatchIndex probes a batch of fingerprints against the device bins: the
// hashes are DMAed to the device, one kernel thread per hash scans its
// bin's linear table, and the (hit, slot) pairs come back over PCIe; hits
// are resolved to Entry metadata host-side. It returns the completion time
// of the whole round trip and the per-item outcomes.
//
// Per §3.1(2), lanes in a wavefront run in lockstep, so a wavefront's scan
// costs its longest lane — the profile is built from the real per-item scan
// lengths.
// A lost device fails the batch with fault.ErrDeviceLost before any outcome
// is produced; the caller falls back to the host index.
func (g *GPUBins) BatchIndex(at time.Duration, fps []Fingerprint) (time.Duration, []GPUHit, error) {
	if len(fps) == 0 {
		return at, nil, nil
	}
	// Host -> device: the hash values only (metadata never crosses, §3.1(2)).
	t := g.dev.TransferToDevice(at, len(fps)*FingerprintSize)

	hits := make([]GPUHit, len(fps))
	cost := g.dev.Cost
	perItem := make([]float64, len(fps))
	var localBytes int64
	t, err := g.dev.Launch(t, "bin-index", func() gpu.Profile {
		for i := range fps {
			bin := fps[i].Bin(g.binBits)
			table := g.bins[bin]
			// Scan outcome: up to the key's slot on a hit, the whole
			// table on a miss.
			scanned := len(table)
			if s, ok := g.slots[binKey{bin, string(fps[i][FingerprintSize-g.keySize:])}]; ok {
				hits[i] = GPUHit{Found: true, Entry: table[s].e}
				scanned = int(s) + 1
			}
			perItem[i] = cost.ProbeBaseCycles + float64(scanned)*cost.ProbeEntryCycles
			localBytes += int64(scanned * g.keySize)
		}
		p := gpu.Wavefronts(perItem, g.dev.WavefrontSize)
		p.LocalBytes = localBytes
		return p
	})
	if err != nil {
		return t, nil, err
	}

	// Device -> host: one (hit, slot) pair per item.
	return g.dev.TransferFromDevice(t, len(fps)*8), hits, nil
}

// Update pushes a flushed bin-buffer batch into the device bin: a key the
// bin already holds has its entry overwritten in place, a new key is
// appended while there is room, falling back to the random replacement
// policy of §3.3 when the linear table is full. Because the bins are plain
// linear arrays, the update is "a direct update process" (§3.1(2)): the host
// computes the slot placements and DMAs the key bytes straight into the
// table — no kernel launch and "no other hash table update overhead on the
// GPU". Only the PCIe transfer is charged: it occupies the link that later
// batches queue behind, and no caller waits on its completion.
func (g *GPUBins) Update(at time.Duration, bin uint32, keys [][]byte, vals []Entry) error {
	if int(bin) >= len(g.bins) {
		return fmt.Errorf("dedup: gpu bin %d out of range (%d bins)", bin, len(g.bins))
	}
	if len(keys) != len(vals) {
		return fmt.Errorf("dedup: gpu update keys (%d) and values (%d) misaligned", len(keys), len(vals))
	}
	for i, key := range keys {
		if len(key) != g.keySize {
			return fmt.Errorf("dedup: gpu update key %d has %d bytes, want %d", i, len(key), g.keySize)
		}
		table := g.bins[bin]
		if s, ok := g.slots[binKey{bin, string(key)}]; ok {
			table[s].e = vals[i] // resident: overwrite in place
			continue
		}
		slot := gpuSlot{string(key), vals[i]}
		s := int32(len(table))
		if len(table) < g.capPerBin {
			g.bins[bin] = append(table, slot)
		} else {
			s = int32(g.rng.Intn(g.capPerBin))
			delete(g.slots, binKey{bin, table[s].key})
			table[s] = slot
		}
		g.slots[binKey{bin, slot.key}] = s
	}
	g.dev.TransferToDevice(at, len(keys)*g.keySize)
	return nil
}

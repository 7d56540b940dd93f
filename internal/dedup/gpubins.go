package dedup

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"inlinered/internal/gpu"
)

// GPUBins is the device-resident half of the index described in §3.1(2):
// every bin is a *linear* table of hash suffixes in device memory (not a
// tree), because contiguous layout lets wavefront lanes stage entries
// through local memory without branch-heavy pointer chasing. Only the hash
// values live on the device; per-chunk metadata stays in host memory and is
// resolved from the kernel's (hit, slot) result pairs, so device updates are
// plain array writes with no tree maintenance.
type GPUBins struct {
	dev       *gpu.Device
	buf       *gpu.Buffer
	binBits   int
	keySize   int
	capPerBin int
	counts    []int32   // host shadow of per-bin fill level
	meta      [][]Entry // host-side metadata per (bin, slot)
	// slots maps key bytes -> slot within the key's bin. The simulated
	// kernel's result is defined by a linear scan of the bin (and is
	// *costed* as one), but the scan's outcome — the first slot holding the
	// key, or a full-bin miss — is computed through this shadow in O(1) so
	// multi-gigabyte runs don't pay O(bin) wall-clock per probe.
	slots    map[string]int32
	rng      *rand.Rand
	hits     int64
	misses   int64
	replaced int64
}

// GPUHit is one item's batch-indexing outcome.
type GPUHit struct {
	Found bool
	Entry Entry
}

// NewGPUBins allocates device-resident bins: 2^binBits bins of capPerBin
// suffix slots each. prefixBytes matches the host index's truncation so the
// same key bytes are compared on both sides.
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
	bins := 1 << uint(binBits)
	keySize := FingerprintSize - prefixBytes
	buf, err := dev.Alloc("dedup-bins", bins*capPerBin*keySize)
	if err != nil {
		return nil, err
	}
	return &GPUBins{
		dev:       dev,
		buf:       buf,
		binBits:   binBits,
		keySize:   keySize,
		capPerBin: capPerBin,
		counts:    make([]int32, bins),
		meta:      make([][]Entry, bins),
		slots:     make(map[string]int32),
		rng:       rand.New(rand.NewSource(int64(seed))),
	}, nil
}

// Len returns the number of resident device entries.
func (g *GPUBins) Len() int {
	n := 0
	for _, c := range g.counts {
		n += int(c)
	}
	return n
}

// DeviceBytes returns the device-memory footprint of the bins.
func (g *GPUBins) DeviceBytes() int { return g.buf.Size() }

// Stats returns cumulative hit, miss, and random-replacement counts.
func (g *GPUBins) Stats() (hits, misses, replaced int64) {
	return g.hits, g.misses, g.replaced
}

func (g *GPUBins) slot(bin uint32, s int32) []byte {
	off := (int(bin)*g.capPerBin + int(s)) * g.keySize
	return g.buf.Data[off : off+g.keySize]
}

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
func (g *GPUBins) BatchIndex(at time.Duration, fps []Fingerprint) (time.Duration, []GPUHit, gpu.Profile, error) {
	if len(fps) == 0 {
		return at, nil, gpu.Profile{}, nil
	}
	// Host -> device: the hash values only (metadata never crosses, §3.1(2)).
	t := g.dev.TransferToDevice(at, len(fps)*FingerprintSize)

	hits := make([]GPUHit, len(fps))
	cost := g.dev.Cost
	perItem := make([]float64, len(fps))
	var localBytes int64
	t, prof, err := g.dev.Launch(t, "bin-index", func() gpu.Profile {
		for i, fp := range fps {
			bin := fp.Bin(g.binBits)
			key := fp.Suffix(FingerprintSize - g.keySize)
			// Linear-scan outcome: the first slot holding the key, or a
			// full scan of the bin on a miss. The shadow map computes the
			// same outcome in O(1); sanity of the shadow is checked against
			// the device bytes.
			scanned := int(g.counts[bin])
			if s, ok := g.slots[string(key)]; ok {
				if !bytes.Equal(g.slot(bin, s), key) {
					panic("dedup: gpu slot shadow out of sync with device memory")
				}
				hits[i] = GPUHit{Found: true, Entry: g.meta[bin][s]}
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
		return t, nil, gpu.Profile{}, err
	}

	// Device -> host: one (hit, slot) pair per item.
	t = g.dev.TransferFromDevice(t, len(fps)*8)

	for _, h := range hits {
		if h.Found {
			g.hits++
		} else {
			g.misses++
		}
	}
	return t, hits, prof, nil
}

// Update pushes a flushed bin-buffer batch into the device bin, appending
// while there is room and falling back to the random replacement policy of
// §3.3 when the linear table is full. Because the bins are plain linear
// arrays, the update is "a direct update process" (§3.1(2)): the host
// computes the slot placements and DMAs the key bytes straight into the
// table — no kernel launch and "no other hash table update overhead on the
// GPU". Only the PCIe transfer is charged.
func (g *GPUBins) Update(at time.Duration, bin uint32, keys [][]byte, vals []Entry) (time.Duration, error) {
	if int(bin) >= len(g.counts) {
		return at, fmt.Errorf("dedup: gpu bin %d out of range (%d bins)", bin, len(g.counts))
	}
	if len(keys) != len(vals) {
		return at, fmt.Errorf("dedup: gpu update keys (%d) and values (%d) misaligned", len(keys), len(vals))
	}
	for i, key := range keys {
		if len(key) != g.keySize {
			return at, fmt.Errorf("dedup: gpu update key %d has %d bytes, want %d", i, len(key), g.keySize)
		}
		var s int32
		if int(g.counts[bin]) < g.capPerBin {
			s = g.counts[bin]
			g.counts[bin]++
			g.meta[bin] = append(g.meta[bin], Entry{})
		} else {
			s = int32(g.rng.Intn(g.capPerBin))
			g.replaced++
			delete(g.slots, string(g.slot(bin, s)))
		}
		copy(g.slot(bin, s), key)
		g.meta[bin][s] = vals[i]
		g.slots[string(key)] = s
	}
	return g.dev.TransferToDevice(at, len(keys)*g.keySize), nil
}

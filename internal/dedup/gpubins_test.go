package dedup

import (
	"testing"
	"time"

	"inlinered/internal/gpu"
)

func testDevice() *gpu.Device {
	cfg := gpu.DefaultConfig()
	cfg.DeviceMemBytes = 64 << 20
	return gpu.New(cfg)
}

func newTestGPUBins(t *testing.T, dev *gpu.Device, binBits, capPerBin, prefixBytes int) *GPUBins {
	t.Helper()
	g, err := NewGPUBins(dev, binBits, capPerBin, prefixBytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGPUBinsValidation(t *testing.T) {
	dev := testDevice()
	cases := []struct{ bits, cap, prefix int }{
		{-1, 4, 0},
		{25, 4, 0},
		{4, 0, 0},
		{4, 4, 1}, // prefix needs 8 bin bits
	}
	for i, c := range cases {
		if _, err := NewGPUBins(dev, c.bits, c.cap, c.prefix, 1); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Out of device memory.
	small := gpu.DefaultConfig()
	small.DeviceMemBytes = 16
	if _, err := NewGPUBins(gpu.New(small), 12, 1024, 0, 1); err == nil {
		t.Fatal("allocation should exceed tiny device memory")
	}
}

// resident counts the entries the device bins hold.
func resident(g *GPUBins) int {
	n := 0
	for _, b := range g.bins {
		n += len(b)
	}
	return n
}

func TestGPUBinsUpdateThenIndex(t *testing.T) {
	dev := testDevice()
	g := newTestGPUBins(t, dev, 8, 16, 0)

	fps := []Fingerprint{fpFor(1), fpFor(2), fpFor(3)}
	for i, fp := range fps {
		bin := fp.Bin(8)
		if err := g.Update(0, bin, [][]byte{fp.Suffix(0)}, []Entry{{Loc: int64(100 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if resident(g) != 3 {
		t.Fatalf("resident entries: %d", resident(g))
	}

	batch := []Fingerprint{fpFor(1), fpFor(99), fpFor(3)}
	done, hits, _ := g.BatchIndex(0, batch)
	if done <= 0 {
		t.Fatal("batch index must consume virtual time")
	}
	if !hits[0].Found || hits[0].Entry.Loc != 100 {
		t.Fatalf("hit 0: %+v", hits[0])
	}
	if hits[1].Found {
		t.Fatal("unknown fingerprint reported found")
	}
	if !hits[2].Found || hits[2].Entry.Loc != 102 {
		t.Fatalf("hit 2: %+v", hits[2])
	}
	found := 0
	for _, h := range hits {
		if h.Found {
			found++
		}
	}
	if len(hits) != 3 || found != 2 {
		t.Fatalf("outcomes: %d items, %d hits; want 3 and 2", len(hits), found)
	}
}

func TestGPUBinsEmptyBatch(t *testing.T) {
	g := newTestGPUBins(t, testDevice(), 4, 4, 0)
	done, hits, _ := g.BatchIndex(5*time.Microsecond, nil)
	if done != 5*time.Microsecond || hits != nil {
		t.Fatal("empty batch should be free")
	}
}

func TestGPUBinsLaunchOverheadDominatesSmallBatches(t *testing.T) {
	// The §3.1(3) effect: per-item time shrinks with batch size, but the
	// total never drops below the launch overhead.
	dev := testDevice()
	g := newTestGPUBins(t, dev, 8, 64, 0)
	done1, _, _ := g.BatchIndex(0, []Fingerprint{fpFor(1)})
	if done1 < dev.LaunchOverhead {
		t.Fatalf("one-item batch beat the launch floor: %v < %v", done1, dev.LaunchOverhead)
	}
	start := dev.NextFree()
	big := make([]Fingerprint, 4096)
	for i := range big {
		big[i] = fpFor(i)
	}
	done2, _, _ := g.BatchIndex(start, big)
	perItemSmall := done1
	perItemBig := (done2 - start) / 4096
	if perItemBig >= perItemSmall {
		t.Fatalf("batching should amortize the launch floor: %v/item vs %v/item", perItemBig, perItemSmall)
	}
}

func TestGPUBinsRandomReplacement(t *testing.T) {
	dev := testDevice()
	g := newTestGPUBins(t, dev, 0, 8, 0) // one bin, 8 slots
	for i := 0; i < 50; i++ {
		fp := fpFor(i)
		if err := g.Update(0, 0, [][]byte{fp.Suffix(0)}, []Entry{{Loc: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if resident(g) != 8 {
		t.Fatalf("full bin should stay at capacity: %d", resident(g))
	}
	// Whatever survived must be resolvable with correct metadata.
	batch := make([]Fingerprint, 50)
	for i := range batch {
		batch[i] = fpFor(i)
	}
	_, hits, _ := g.BatchIndex(0, batch)
	found := 0
	for i, h := range hits {
		if h.Found {
			found++
			if h.Entry.Loc != int64(i) {
				t.Fatalf("survivor %d has wrong metadata: %+v", i, h.Entry)
			}
		}
	}
	if found != 8 {
		t.Fatalf("survivors: got %d, want 8", found)
	}
}

func TestGPUBinsUpdateResidentKeyInPlace(t *testing.T) {
	// A flush that carries a key its bin already holds overwrites that
	// slot: the key keeps one slot, so filling the bin later evicts nothing
	// and the key still resolves, to its newest entry.
	g := newTestGPUBins(t, testDevice(), 0, 2, 0) // one bin, 2 slots
	k1, k2 := fpFor(1), fpFor(2)
	for i, fp := range []Fingerprint{k1, k1, k2} {
		if err := g.Update(0, 0, [][]byte{fp.Suffix(0)}, []Entry{{Loc: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if resident(g) != 2 {
		t.Fatalf("resident entries: got %d, want 2", resident(g))
	}
	_, hits, err := g.BatchIndex(0, []Fingerprint{k1, k2})
	if err != nil {
		t.Fatal(err)
	}
	if !hits[0].Found || hits[0].Entry.Loc != 1 {
		t.Fatalf("k1: %+v, want found at its newest entry (loc 1)", hits[0])
	}
	if !hits[1].Found || hits[1].Entry.Loc != 2 {
		t.Fatalf("k2: %+v", hits[1])
	}
}

func TestGPUBinsUpdateValidation(t *testing.T) {
	g := newTestGPUBins(t, testDevice(), 4, 4, 0)
	if err := g.Update(0, 999, nil, nil); err == nil {
		t.Fatal("out-of-range bin should error")
	}
	if err := g.Update(0, 0, [][]byte{{1}}, []Entry{{}, {}}); err == nil {
		t.Fatal("misaligned keys/values should error")
	}
	if err := g.Update(0, 0, [][]byte{{1, 2}}, []Entry{{}}); err == nil {
		t.Fatal("wrong key size should error")
	}
}

func TestGPUBinsWithPrefixTruncation(t *testing.T) {
	dev := testDevice()
	g := newTestGPUBins(t, dev, 16, 8, 2)
	if g.DeviceBytes() != (1<<16)*8*18 {
		t.Fatalf("device bytes: %d", g.DeviceBytes())
	}
	fp := fpFor(7)
	if err := g.Update(0, fp.Bin(16), [][]byte{fp.Suffix(2)}, []Entry{{Loc: 7}}); err != nil {
		t.Fatal(err)
	}
	_, hits, _ := g.BatchIndex(0, []Fingerprint{fp, fpFor(8)})
	if !hits[0].Found || hits[0].Entry.Loc != 7 || hits[1].Found {
		t.Fatalf("truncated GPU index broken: %+v", hits)
	}
}

func TestGPUBinsDivergenceFromUnevenBins(t *testing.T) {
	// Lanes of one wavefront run in lockstep, so a batch that scans 64
	// entries in one lane finishes later than a batch that scans the same
	// 64 entries one per lane.
	fpIn := func(bin, tag, i byte) Fingerprint {
		var f Fingerprint
		f[0], f[18], f[19] = bin, tag, i
		return f
	}
	probe := func(fill func(g *GPUBins)) time.Duration {
		dev := testDevice()
		g := newTestGPUBins(t, dev, 8, 64, 0)
		fill(g)
		batch := make([]Fingerprint, dev.WavefrontSize)
		for i := range batch {
			batch[i] = fpIn(byte(i), 1, 0) // misses: each scans its whole bin
		}
		done, _, err := g.BatchIndex(0, batch)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	uneven := probe(func(g *GPUBins) {
		for i := 0; i < 64; i++ { // one long bin, the others empty
			if err := g.Update(0, 0, [][]byte{fpIn(0, 0, byte(i)).Suffix(0)}, []Entry{{}}); err != nil {
				t.Fatal(err)
			}
		}
	})
	even := probe(func(g *GPUBins) {
		for b := 0; b < 64; b++ { // one entry in each probed bin
			if err := g.Update(0, uint32(b), [][]byte{fpIn(byte(b), 0, 0).Suffix(0)}, []Entry{{}}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if uneven <= even {
		t.Fatalf("one long bin should finish later than even bins: %v <= %v", uneven, even)
	}
}

func TestGPUBinsSuffixInOtherBinMisses(t *testing.T) {
	// With a dropped prefix, two fingerprints that differ only in that
	// prefix share a stored suffix but live in different bins: a probe
	// must resolve only inside its own bin.
	g := newTestGPUBins(t, testDevice(), 8, 4, 1)
	owner, other := fpFor(5), fpFor(5)
	owner[0], other[0] = 0x01, 0x02
	if err := g.Update(0, owner.Bin(8), [][]byte{owner.Suffix(1)}, []Entry{{Loc: 5}}); err != nil {
		t.Fatal(err)
	}
	_, hits, err := g.BatchIndex(0, []Fingerprint{other, owner})
	if err != nil {
		t.Fatal(err)
	}
	if hits[0].Found {
		t.Fatalf("probe in bin %d hit bin %d's suffix: %+v", other.Bin(8), owner.Bin(8), hits[0])
	}
	if !hits[1].Found || hits[1].Entry.Loc != 5 {
		t.Fatalf("owner's probe missed: %+v", hits[1])
	}
}

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

func TestGPUBinsUpdateThenIndex(t *testing.T) {
	dev := testDevice()
	g := newTestGPUBins(t, dev, 8, 16, 0)

	fps := []Fingerprint{fpFor(1), fpFor(2), fpFor(3)}
	for i, fp := range fps {
		bin := fp.Bin(8)
		_, err := g.Update(0, bin, [][]byte{fp.Suffix(0)}, []Entry{{Loc: int64(100 + i)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if g.Len() != 3 {
		t.Fatalf("resident entries: %d", g.Len())
	}

	batch := []Fingerprint{fpFor(1), fpFor(99), fpFor(3)}
	done, hits, prof, _ := g.BatchIndex(0, batch)
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
	if prof.Items != 3 {
		t.Fatalf("profile items: %d", prof.Items)
	}
	h, m, _ := g.Stats()
	if h != 2 || m != 1 {
		t.Fatalf("stats: hits=%d misses=%d", h, m)
	}
}

func TestGPUBinsEmptyBatch(t *testing.T) {
	g := newTestGPUBins(t, testDevice(), 4, 4, 0)
	done, hits, prof, _ := g.BatchIndex(5*time.Microsecond, nil)
	if done != 5*time.Microsecond || hits != nil || prof.Items != 0 {
		t.Fatal("empty batch should be free")
	}
}

func TestGPUBinsLaunchOverheadDominatesSmallBatches(t *testing.T) {
	// The §3.1(3) effect: per-item time shrinks with batch size, but the
	// total never drops below the launch overhead.
	dev := testDevice()
	g := newTestGPUBins(t, dev, 8, 64, 0)
	done1, _, _, _ := g.BatchIndex(0, []Fingerprint{fpFor(1)})
	if done1 < dev.LaunchOverhead {
		t.Fatalf("one-item batch beat the launch floor: %v < %v", done1, dev.LaunchOverhead)
	}
	start := dev.NextFree()
	big := make([]Fingerprint, 4096)
	for i := range big {
		big[i] = fpFor(i)
	}
	done2, _, _, _ := g.BatchIndex(start, big)
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
		if _, err := g.Update(0, 0, [][]byte{fp.Suffix(0)}, []Entry{{Loc: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if g.Len() != 8 {
		t.Fatalf("full bin should stay at capacity: %d", g.Len())
	}
	_, _, replaced := g.Stats()
	if replaced != 42 {
		t.Fatalf("replacements: got %d, want 42", replaced)
	}
	// Whatever survived must be resolvable with correct metadata.
	batch := make([]Fingerprint, 50)
	for i := range batch {
		batch[i] = fpFor(i)
	}
	_, hits, _, _ := g.BatchIndex(0, batch)
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

func TestGPUBinsUpdateValidation(t *testing.T) {
	g := newTestGPUBins(t, testDevice(), 4, 4, 0)
	if _, err := g.Update(0, 999, nil, nil); err == nil {
		t.Fatal("out-of-range bin should error")
	}
	if _, err := g.Update(0, 0, [][]byte{{1}}, []Entry{{}, {}}); err == nil {
		t.Fatal("misaligned keys/values should error")
	}
	if _, err := g.Update(0, 0, [][]byte{{1, 2}}, []Entry{{}}); err == nil {
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
	if _, err := g.Update(0, fp.Bin(16), [][]byte{fp.Suffix(2)}, []Entry{{Loc: 7}}); err != nil {
		t.Fatal(err)
	}
	_, hits, _, _ := g.BatchIndex(0, []Fingerprint{fp, fpFor(8)})
	if !hits[0].Found || hits[0].Entry.Loc != 7 || hits[1].Found {
		t.Fatalf("truncated GPU index broken: %+v", hits)
	}
}

func TestGPUBinsDivergenceFromUnevenBins(t *testing.T) {
	// Items probing bins of very different fill levels in the same
	// wavefront must produce divergence > 1.
	dev := testDevice()
	g := newTestGPUBins(t, dev, 8, 64, 0)
	// Fill one bin heavily.
	var heavy Fingerprint
	for i := 0; ; i++ {
		if fpFor(i).Bin(8) == 0 {
			heavy = fpFor(i)
			break
		}
	}
	for i := 0; i < 64; i++ {
		k := heavy.Suffix(0)
		k[19] = byte(i) // distinct keys in bin 0
		if _, err := g.Update(0, 0, [][]byte{k}, []Entry{{}}); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]Fingerprint, 64)
	for i := range batch {
		batch[i] = fpFor(i + 1000) // misses across many bins, most empty
	}
	batch[0] = heavy // forces a long scan in lane 0
	_, _, prof, _ := g.BatchIndex(0, batch)
	if f := prof.DivergenceFactor(dev.WavefrontSize); f <= 1.0 {
		t.Fatalf("expected SIMT divergence > 1, got %g", f)
	}
}

func TestGPUBinsSuffixInOtherBinMisses(t *testing.T) {
	// With a dropped prefix, two fingerprints that differ only in that
	// prefix share a stored suffix but live in different bins: a probe
	// must resolve only inside its own bin.
	g := newTestGPUBins(t, testDevice(), 8, 4, 1)
	owner, other := fpFor(5), fpFor(5)
	owner[0], other[0] = 0x01, 0x02
	if _, err := g.Update(0, owner.Bin(8), [][]byte{owner.Suffix(1)}, []Entry{{Loc: 5}}); err != nil {
		t.Fatal(err)
	}
	_, hits, _, err := g.BatchIndex(0, []Fingerprint{other, owner})
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

package chunk

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// This file is the chunker's mirror of internal/lz/matchref_test.go: the
// scalar findBoundaryRef is retained in chunk.go as the reference the
// multi-byte findBoundary must agree with exactly, and the differential,
// fuzz, and golden tests below hold the two together. Chunk boundaries
// feed the fingerprints, the dedup ratio, and the virtual-time cost model
// (ChunkCycles per chunk length), so a single drifted cut point would move
// every golden Report downstream — boundaries must stay bit-identical.

var updateGoldens = flag.Bool("update", false, "rewrite testdata golden files")

// gearConfigs are the configurations the differential and golden tests run:
// the engine default, plus shapes that stress the fast path's edges — Min
// below the 64-byte seed window, Min equal to it, tiny chunks where the
// unrolled loop barely runs, and a wide Min..Max band.
func gearConfigs() []GearConfig {
	return []GearConfig{
		DefaultGearConfig(),
		{Min: 1, Avg: 64, Max: 256, Seed: 1},      // Min < window: no prefix skip
		{Min: 64, Avg: 256, Max: 1024, Seed: 2},   // Min == window
		{Min: 65, Avg: 128, Max: 512, Seed: 3},    // Min just past the window
		{Min: 512, Avg: 4096, Max: 4096, Seed: 4}, // Avg == Max
		{Min: 4096, Avg: 4096, Max: 65536, Seed: 5},
	}
}

// boundaryList runs a full Split (exercising Next, fill, and the read-ahead
// compaction, not just the scan) and returns every chunk's end offset.
func boundaryList(t testing.TB, data []byte, cfg GearConfig, ref bool) []int64 {
	t.Helper()
	g := NewGear(bytes.NewReader(data), cfg)
	g.ref = ref
	chunks, err := split(g)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(chunks))
	for i, c := range chunks {
		out[i] = c.Offset + int64(len(c.Data))
	}
	return out
}

func boundariesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGearBoundariesMatchReference is the deterministic differential: for
// every corpus and configuration, the fast scan and the scalar reference
// must produce the same boundary sequence.
func TestGearBoundariesMatchReference(t *testing.T) {
	for _, c := range goldenCorpora() {
		for _, cfg := range gearConfigs() {
			fast := boundaryList(t, c.data, cfg, false)
			slow := boundaryList(t, c.data, cfg, true)
			if !boundariesEqual(fast, slow) {
				t.Errorf("%s/%+v: fast path boundaries diverge from findBoundaryRef (%d vs %d chunks)",
					c.name, cfg, len(fast), len(slow))
			}
		}
	}
}

// TestGearFindBoundaryMatchesReferenceRaw drives the scan directly (no
// reader, no windowing) over sliding sub-slices, so short buffers, buffers
// ending exactly at Min, and buffers between Min and Max are all hit.
func TestGearFindBoundaryMatchesReferenceRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := make([]byte, 1<<15)
	rng.Read(data)
	for _, cfg := range gearConfigs() {
		g := NewGear(bytes.NewReader(nil), cfg)
		for _, n := range []int{0, 1, cfg.Min - 1, cfg.Min, cfg.Min + 1, cfg.Min + 7,
			cfg.Min + 8, cfg.Min + 63, cfg.Min + 64, cfg.Max - 1, cfg.Max, cfg.Max + 9, len(data)} {
			if n < 0 || n > len(data) {
				continue
			}
			for off := 0; off+n <= len(data) && off <= 128; off += 17 {
				buf := data[off : off+n]
				if got, want := g.findBoundary(buf), g.findBoundaryRef(buf); got != want {
					t.Fatalf("cfg %+v len %d off %d: findBoundary=%d ref=%d", cfg, n, off, got, want)
				}
			}
		}
	}
}

// FuzzGearBoundaries fuzzes arbitrary content against arbitrary (valid)
// Min/Avg/Max configurations: the full chunker run through the fast scan
// must produce boundaries bit-identical to the scalar reference — in view
// mode (boundaryList attaches no pool) and, chunk for chunk, in pooled mode.
func FuzzGearBoundaries(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	big := make([]byte, 8192)
	rng.Read(big)
	f.Add([]byte("inline data reduction"), uint8(3), uint8(10), uint8(2), uint64(0x9E3779B97F4A7C15))
	f.Add(big, uint8(9), uint8(255), uint8(7), uint64(1))
	f.Add(bytes.Repeat([]byte{0}, 4096), uint8(5), uint8(0), uint8(0), uint64(42))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 700), uint8(7), uint8(63), uint8(1), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, avgExp, minSel, maxSel uint8, seed uint64) {
		avg := 1 << (2 + int(avgExp)%10)   // 4 .. 2048, power of two
		min := 1 + int(minSel)*(avg-1)/255 // 1 .. avg, crosses the 64-byte window
		max := avg * (1 + int(maxSel)%8)   // avg .. 8*avg
		cfg := GearConfig{Min: min, Avg: avg, Max: max, Seed: seed}
		fast := boundaryList(t, data, cfg, false)
		slow := boundaryList(t, data, cfg, true)
		if !boundariesEqual(fast, slow) {
			t.Fatalf("cfg %+v over %d bytes: fast %v != ref %v", cfg, len(data), fast, slow)
		}
		sameChunks(t, "fuzz", func(r io.Reader) pooler { return NewGear(r, cfg) }, &testPool{}, data, viewReaders[0].wrap)
	})
}

// goldenCorpus is one deterministic input stream for the boundary goldens.
type goldenCorpus struct {
	name string
	data []byte
}

// goldenCorpora are the standard 1 MiB chunker corpora, shared with the
// benchmarks in bench_test.go: pure random (uniform boundary density),
// compressible and half-compressible stripes (the entropy profile primary
// storage actually serves, and the regime where pre-Min skipping pays),
// the random corpus shifted by one byte (cut points must move with the
// content, not the alignment), and long zero runs (a degenerate hash
// state: the rolling hash settles after the window fills, so zero runs
// either cut immediately or coast to Max).
func goldenCorpora() []goldenCorpus {
	const size = 1 << 20
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, size)
	rng.Read(random)
	compressible := make([]byte, size)
	for i := 0; i < size; i += 64 {
		rng.Read(compressible[i : i+16])
	}
	half := make([]byte, size)
	for i := 0; i < size; i += 64 {
		rng.Read(half[i : i+32])
	}
	shifted := make([]byte, size)
	shifted[0] = 0x5a
	copy(shifted[1:], random[:size-1])
	zeros := make([]byte, size)
	for i := 0; i < size; i += 8192 {
		rng.Read(zeros[i : i+32])
	}
	return []goldenCorpus{
		{"random", random},
		{"compressible", compressible},
		{"half", half},
		{"shifted", shifted},
		{"zeroruns", zeros},
	}
}

// boundarySum condenses a boundary sequence into chunk count + sha256
// prefix over the little-endian offsets, the form the golden file pins.
func boundarySum(bounds []int64) (int, string) {
	h := sha256.New()
	var le [8]byte
	for _, b := range bounds {
		binary.LittleEndian.PutUint64(le[:], uint64(b))
		h.Write(le[:])
	}
	return len(bounds), fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func goldenPath() string { return filepath.Join("testdata", "gear_boundaries.golden") }

func goldenKey(corpus string, cfg GearConfig) string {
	return fmt.Sprintf("%s min=%d avg=%d max=%d seed=%#x", corpus, cfg.Min, cfg.Avg, cfg.Max, cfg.Seed)
}

// TestGearBoundaryGoldens pins the chunk boundaries of every standard
// corpus under every test configuration to a checked-in golden file,
// recorded from the scalar reference scan. Run with -update to regenerate
// (the update path itself uses findBoundaryRef, so the goldens can never
// silently absorb a fast-path drift).
func TestGearBoundaryGoldens(t *testing.T) {
	corpora := goldenCorpora()
	if *updateGoldens {
		var lines []string
		for _, c := range corpora {
			for _, cfg := range gearConfigs() {
				n, sum := boundarySum(boundaryList(t, c.data, cfg, true))
				lines = append(lines, fmt.Sprintf("%s chunks=%d sha256=%s", goldenKey(c.name, cfg), n, sum))
			}
		}
		sort.Strings(lines)
		out := "# Gear chunk-boundary goldens — recorded from findBoundaryRef via\n" +
			"# `go test ./internal/chunk -run TestGearBoundaryGoldens -update`.\n" +
			"# key: corpus min avg max seed; value: chunk count + sha256[:8] over\n" +
			"# the little-endian chunk end offsets.\n" +
			strings.Join(lines, "\n") + "\n"
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[string]string)
	fh, err := os.Open(goldenPath())
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.Index(line, " chunks=")
		if idx < 0 {
			t.Fatalf("malformed golden line: %q", line)
		}
		want[line[:idx]] = line[idx+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, c := range corpora {
		for _, cfg := range gearConfigs() {
			key := goldenKey(c.name, cfg)
			golden, ok := want[key]
			if !ok {
				t.Errorf("no golden for %s (run with -update)", key)
				continue
			}
			n, sum := boundarySum(boundaryList(t, c.data, cfg, false))
			if got := fmt.Sprintf("chunks=%d sha256=%s", n, sum); got != golden {
				t.Errorf("%s: %s, golden %s (chunk boundaries drifted — every downstream golden would move)", key, got, golden)
			}
			checked++
		}
	}
	if checked != len(want) {
		t.Errorf("checked %d golden entries, file has %d", checked, len(want))
	}
}

// TestGearRefModeSplitsIdentically double-checks the test hook itself: a
// ref-mode Gear must behave as a drop-in chunker (same chunks, same
// reassembly), so every differential above compares like with like.
func TestGearRefModeSplitsIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := make([]byte, 1<<19)
	rng.Read(data)
	g := NewGear(bytes.NewReader(data), DefaultGearConfig())
	g.ref = true
	chunks, err := split(g)
	if err != nil {
		t.Fatal(err)
	}
	var back []byte
	for _, c := range chunks {
		back = append(back, c.Data...)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("ref-mode gear does not reassemble")
	}
	if _, err := g.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after Split, got %v", err)
	}
}

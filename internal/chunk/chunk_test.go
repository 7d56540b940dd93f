package chunk

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func reassemble(chunks []Chunk) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c.Data...)
	}
	return out
}

func TestFixedExactMultiple(t *testing.T) {
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 256) // 1024 bytes
	chunks, err := split(NewFixed(bytes.NewReader(data), 256))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("chunks: got %d, want 4", len(chunks))
	}
	for i, c := range chunks {
		if len(c.Data) != 256 {
			t.Fatalf("chunk %d size %d", i, len(c.Data))
		}
		if c.Offset != int64(i*256) {
			t.Fatalf("chunk %d offset %d", i, c.Offset)
		}
	}
	if !bytes.Equal(reassemble(chunks), data) {
		t.Fatal("reassembly mismatch")
	}
}

func TestFixedShortTail(t *testing.T) {
	data := make([]byte, 1000)
	chunks, err := split(NewFixed(bytes.NewReader(data), 256))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 || len(chunks[3].Data) != 1000-3*256 {
		t.Fatalf("short tail: %d chunks, last %d bytes", len(chunks), len(chunks[len(chunks)-1].Data))
	}
}

func TestFixedEmptyInput(t *testing.T) {
	chunks, err := split(NewFixed(bytes.NewReader(nil), 256))
	if err != nil || len(chunks) != 0 {
		t.Fatalf("empty input: %d chunks, err %v", len(chunks), err)
	}
}

func TestFixedEOFIsSticky(t *testing.T) {
	f := NewFixed(bytes.NewReader([]byte{1}), 4)
	if _, err := f.Next(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Next(); err != io.EOF {
			t.Fatalf("call %d: want io.EOF, got %v", i, err)
		}
	}
}

func TestFixedPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFixed(0) should panic")
		}
	}()
	NewFixed(bytes.NewReader(nil), 0)
}

func TestGearReassembles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 1<<18)
	rng.Read(data)
	chunks, err := split(NewGear(bytes.NewReader(data), DefaultGearConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reassemble(chunks), data) {
		t.Fatal("gear reassembly mismatch")
	}
}

func TestGearRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, 1<<19)
	rng.Read(data)
	cfg := DefaultGearConfig()
	chunks, err := split(NewGear(bytes.NewReader(data), cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if i < len(chunks)-1 && len(c.Data) < cfg.Min {
			t.Fatalf("chunk %d smaller than Min: %d", i, len(c.Data))
		}
		if len(c.Data) > cfg.Max {
			t.Fatalf("chunk %d larger than Max: %d", i, len(c.Data))
		}
	}
}

func TestGearAverageNearTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1<<21)
	rng.Read(data)
	cfg := DefaultGearConfig()
	chunks, err := split(NewGear(bytes.NewReader(data), cfg))
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(len(data)) / float64(len(chunks))
	// Min/Max clamping skews the mean; accept a generous band around Avg.
	if avg < float64(cfg.Avg)/2 || avg > float64(cfg.Avg)*2 {
		t.Fatalf("average chunk %g too far from target %d", avg, cfg.Avg)
	}
}

func TestGearContentDefined(t *testing.T) {
	// The same content shifted by a prefix must produce the same chunk
	// boundaries after the cut points resynchronize.
	rng := rand.New(rand.NewSource(8))
	content := make([]byte, 1<<18)
	rng.Read(content)
	prefix := make([]byte, 777)
	rng.Read(prefix)

	cfg := DefaultGearConfig()
	a, _ := split(NewGear(bytes.NewReader(content), cfg))
	b, _ := split(NewGear(bytes.NewReader(append(append([]byte{}, prefix...), content...)), cfg))

	// Collect chunk payload hashes from both runs; the overwhelming
	// majority of a's chunks must reappear verbatim in b.
	seen := make(map[string]bool)
	for _, c := range b {
		seen[string(c.Data)] = true
	}
	matched := 0
	for _, c := range a {
		if seen[string(c.Data)] {
			matched++
		}
	}
	if matched < len(a)*8/10 {
		t.Fatalf("only %d/%d chunks resynchronized after shift", matched, len(a))
	}
}

func TestGearDeterministic(t *testing.T) {
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(9)).Read(data)
	a, _ := split(NewGear(bytes.NewReader(data), DefaultGearConfig()))
	b, _ := split(NewGear(bytes.NewReader(data), DefaultGearConfig()))
	if len(a) != len(b) {
		t.Fatalf("nondeterministic chunk count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("chunk %d differs between runs", i)
		}
	}
}

func TestGearConfigValidation(t *testing.T) {
	bad := []GearConfig{
		{Min: 0, Avg: 4096, Max: 8192},
		{Min: 8192, Avg: 4096, Max: 16384},
		{Min: 1024, Avg: 16384, Max: 8192},
		{Min: 1024, Avg: 3000, Max: 8192}, // not a power of two
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic: %+v", i, cfg)
				}
			}()
			NewGear(bytes.NewReader(nil), cfg)
		}()
	}
}

// Property: both chunkers always reassemble to the original stream, and
// offsets are the running sum of chunk sizes.
func TestChunkersLosslessProperty(t *testing.T) {
	cfg := GearConfig{Min: 16, Avg: 64, Max: 256, Seed: 1}
	f := func(data []byte, fixedSizeRaw uint8) bool {
		fixedSize := int(fixedSizeRaw%100) + 1
		for _, c := range []Chunker{
			NewFixed(bytes.NewReader(data), fixedSize),
			NewGear(bytes.NewReader(data), cfg),
		} {
			chunks, err := split(c)
			if err != nil {
				return false
			}
			if !bytes.Equal(reassemble(chunks), data) {
				return false
			}
			var off int64
			for _, ch := range chunks {
				if ch.Offset != off {
					return false
				}
				off += int64(len(ch.Data))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkerSteadyStateAllocFree is the regression guard for the pooled
// data path: once the buffer pool is primed, chunking an entire stream
// performs no per-chunk allocations — neither for payloads (drawn from the
// pool) nor inside Gear.fill (the fixed read-ahead buffer).
func TestChunkerSteadyStateAllocFree(t *testing.T) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(data)
	pool := &testPool{}
	r := bytes.NewReader(data)
	for name, mk := range map[string]func() Chunker{
		"fixed": func() Chunker {
			f := NewFixed(r, 4096)
			f.SetBuffers(pool)
			return f
		},
		"gear": func() Chunker {
			g := NewGear(r, DefaultGearConfig())
			g.SetBuffers(pool)
			return g
		},
	} {
		run := func() {
			r.Reset(data)
			ck := mk()
			for {
				c, err := ck.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				pool.Put(c.Data)
			}
		}
		run() // prime the pool (and size Gear's read-ahead buffer)
		// The remaining allocations are per-pass (the chunker itself and
		// Gear's read-ahead buffer), not per-chunk: a 1 MiB stream has
		// ~256+ chunks, so a per-chunk alloc would blow way past this.
		if got := testing.AllocsPerRun(5, run); got > 8 {
			t.Errorf("%s: %.0f allocs per full-stream pass; want <= 8 (no per-chunk allocation)", name, got)
		}
	}
}

// split runs a chunker to completion and returns all chunks.
func split(c Chunker) ([]Chunk, error) {
	var out []Chunk
	for {
		ch, err := c.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ch)
	}
}

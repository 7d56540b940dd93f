package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"inlinered/internal/chunk"
	"inlinered/internal/fault"
	"inlinered/internal/obs"
	"inlinered/internal/workload"
)

// streamBytes materialises a testStream.
func streamBytes(t *testing.T, n int64, dd, cr float64) []byte {
	t.Helper()
	data, err := io.ReadAll(testStream(t, n, dd, cr, workload.RefUniform))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// shortReader returns random short reads (1..len(p) bytes).
type shortReader struct {
	r   io.Reader
	rng *rand.Rand
}

func (s *shortReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1+s.rng.Intn(len(p))]
	}
	return s.r.Read(p)
}

// settle waits for the goroutine count to fall back to base: the chunking
// goroutine is joined before Process returns, the pool's workers exit on
// their own just after.
func settle(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d running, %d before Process", runtime.NumGoroutine(), base)
		}
	}
}

// TestFrontDeterminism is the determinism contract across every boundary the
// front stage introduces: report, journal and trace bytes are identical to
// the serial run's for any Parallelism, GOMAXPROCS and read granularity, in
// every mode, with and without faults, over streams whose chunk count sits on
// and around the group, batch and lookahead-window edges.
func TestFrontDeterminism(t *testing.T) {
	// A batch of 96 keeps the group (64) and batch edges apart and the
	// window-overflow stream, the costliest cell, under 400 chunks.
	config := func(mode Mode) Config {
		cfg := testConfig(mode)
		cfg.Batch, cfg.Lookahead = 96, 2
		return cfg
	}
	base := config(CPUOnly)
	counts := []int{0, 1, frontGroup - 1, frontGroup, frontGroup + 1, base.Batch - 1, base.Batch, base.Batch + 1, (base.Lookahead+2)*base.Batch + 7}
	data := streamBytes(t, 6<<20, 2, 2)

	// Gear cut offsets: a stream truncated at the nth cut has exactly n chunks.
	cuts := []int{0}
	for ck := chunk.NewGear(bytes.NewReader(data), base.Gear); ; {
		c, err := ck.Next()
		if err != nil {
			break
		}
		cuts = append(cuts, int(c.Offset)+len(c.Data))
	}
	if len(cuts) <= counts[len(counts)-1] {
		t.Fatalf("stream has %d gear chunks, need %d", len(cuts)-1, counts[len(counts)-1])
	}

	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"short", func(r io.Reader) io.Reader { return &shortReader{r, rand.New(rand.NewSource(5))} }},
	}
	type outcome struct{ report, journal, trace []byte }
	run := func(t *testing.T, cfg Config, par int, r io.Reader, src []byte, chunks int) outcome {
		t.Helper()
		rec := obs.NewRecorder()
		cfg.Parallelism, cfg.Obs = par, rec
		eng, err := NewEngine(PaperPlatform(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Process(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.VerifyAgainst(bytes.NewReader(src)); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if int(rep.Chunks) != chunks {
			t.Fatalf("par=%d: %d chunks, want %d", par, rep.Chunks, chunks)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := rec.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		return outcome{js, eng.JournalImage(), trace.Bytes()}
	}

	procs := []int{1, runtime.NumCPU()}
	pars := []int{1, 2, 3, 8}
	cell := 0
	for _, chunker := range []Chunking{FixedChunking, CDCChunking} {
		for _, mode := range Modes {
			for _, seed := range []int64{0, 3} {
				for _, n := range counts {
					cfg := config(mode)
					cfg.Chunker = chunker
					if seed != 0 {
						cfg.Faults = fault.Config{Seed: seed, Rates: fault.Uniform(0.01)}
					}
					end := n * cfg.ChunkSize
					if chunker == CDCChunking {
						end = cuts[n]
					}
					src := data[:end]
					name := fmt.Sprintf("%v/%v/seed=%d/chunks=%d", chunker, mode, seed, n)
					want := run(t, cfg, 1, bytes.NewReader(src), src, n)
					// Of the eight Parallelism × GOMAXPROCS variants a cell
					// runs every other one (two under -short) and one reader,
					// all rotating: cells that differ only in the fault seed
					// take complementary halves, so every variant meets every
					// chunk count, chunker and mode.
					every := 2
					if testing.Short() {
						every = 4
					}
					for v := 0; v < len(pars)*len(procs); v++ {
						if (v+cell)%every != 0 {
							continue
						}
						par, gmp, rd := pars[v%4], procs[v/4], readers[(v+cell)%3]
						old := runtime.GOMAXPROCS(gmp)
						got := run(t, cfg, par, rd.wrap(bytes.NewReader(src)), src, n)
						runtime.GOMAXPROCS(old)
						if !bytes.Equal(got.report, want.report) || !bytes.Equal(got.journal, want.journal) || !bytes.Equal(got.trace, want.trace) {
							t.Errorf("%s: par=%d GOMAXPROCS=%d reader=%s differs from the serial run (report %v, journal %v, trace %v)",
								name, par, gmp, rd.name, bytes.Equal(got.report, want.report), bytes.Equal(got.journal, want.journal), bytes.Equal(got.trace, want.trace))
						}
					}
					cell++
				}
			}
		}
	}
}

// failAt serves data[:n] and then fails with err (or panics with it).
type failAt struct {
	data  []byte
	n     int
	err   error
	panic bool
}

func (f *failAt) Read(p []byte) (int, error) {
	if f.n == 0 {
		if f.panic {
			panic(f.err)
		}
		return 0, f.err
	}
	k := copy(p, f.data[:f.n])
	f.data, f.n = f.data[k:], f.n-k
	return k, nil
}

// TestFrontReaderError: a reader failing anywhere in the stream — first byte,
// mid-group, mid-batch, last byte — surfaces as the same wrapped error at
// every Parallelism, and no goroutine outlives Process.
func TestFrontReaderError(t *testing.T) {
	data := streamBytes(t, 4<<20, 2, 2)
	boom := errors.New("boom")
	cfg := testConfig(CPUOnly)
	cfg.Verify = false
	for _, at := range []int{0, 10*4096 + 17, (cfg.Batch + frontGroup/2) * 4096, len(data) - 1} {
		for _, cdc := range []bool{false, true} {
			for _, par := range []int{1, 2, 8} {
				before := runtime.NumGoroutine()
				cfg.Parallelism = par
				cfg.Chunker = FixedChunking
				if cdc {
					cfg.Chunker = CDCChunking
				}
				eng, err := NewEngine(PaperPlatform(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				_, err = eng.Process(&failAt{data: data, n: at, err: boom})
				if !errors.Is(err, boom) || err.Error() != "core: reading stream: boom" {
					t.Errorf("at=%d cdc=%v par=%d: got %v", at, cdc, par, err)
				}
				settle(t, before)
			}
		}
	}
	// iotest.TimeoutReader fails its second Read.
	for _, par := range []int{1, 2, 8} {
		before := runtime.NumGoroutine()
		cfg.Parallelism = par
		eng, _ := NewEngine(PaperPlatform(), cfg)
		_, err := eng.Process(iotest.TimeoutReader(bytes.NewReader(data)))
		if !errors.Is(err, iotest.ErrTimeout) || !strings.HasPrefix(err.Error(), "core: reading stream: ") {
			t.Errorf("timeout reader, par=%d: got %v", par, err)
		}
		settle(t, before)
	}
}

// TestFrontReaderPanic: a panic on the chunking goroutine (here the reader's)
// is re-raised on the goroutine that called Process, after the stage has shut
// down, exactly as a serial run would let it propagate. (A hash task's would
// come back through its round's Wait: parallel's TestWriteFrontTaskPanic.)
func TestFrontReaderPanic(t *testing.T) {
	data := streamBytes(t, 4<<20, 2, 2)
	boom := errors.New("boom")
	for _, par := range []int{1, 2, 4, 8} {
		before := runtime.NumGoroutine()
		cfg := testConfig(CPUOnly)
		cfg.Parallelism = par
		eng, err := NewEngine(PaperPlatform(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if v := recover(); v != boom {
					t.Errorf("par=%d: recovered %v, want the reader's panic", par, v)
				}
			}()
			eng.Process(&failAt{data: data, n: (cfg.Batch + 3) * 4096, err: boom, panic: true})
			t.Errorf("par=%d: Process returned", par)
		}()
		settle(t, before)
	}
}

// TestDriveFullStopsFront: an error from the commit pass cancels the stage
// mid-stream and joins its goroutines before Process returns.
func TestDriveFullStopsFront(t *testing.T) {
	plat := PaperPlatform()
	plat.SSD.BlocksPerChannel, plat.SSD.PagesPerBlock, plat.SSD.Channels = 4, 8, 2
	data := streamBytes(t, 8<<20, 1, 1)
	for _, par := range []int{1, 2, 8} {
		before := runtime.NumGoroutine()
		cfg := testConfig(CPUOnly)
		cfg.Dedup, cfg.Parallelism = false, par
		eng, err := NewEngine(plat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(data)
		if _, err := eng.Process(r); err == nil || !strings.Contains(err.Error(), "drive full") {
			t.Fatalf("par=%d: tiny drive should fill up, got %v", par, err)
		}
		if par > 1 && r.Len() == 0 {
			t.Errorf("par=%d: the stage read the whole stream after the commit pass had failed", par)
		}
		settle(t, before)
	}
}

// TestFrontCloseWaitsOnlyForTheReadInFlight: close returns as soon as the
// Read the chunking goroutine is blocked in returns; the reader is not
// called again.
func TestFrontCloseWaitsOnlyForTheReadInFlight(t *testing.T) {
	cfg := testConfig(CPUOnly)
	cfg.Parallelism = 2
	eng, err := NewEngine(PaperPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocked, release := make(chan struct{}), make(chan struct{})
	reads := 0
	f := eng.newFront(readerFunc(func(p []byte) (int, error) {
		if reads++; reads == 1 {
			close(blocked)
			<-release
		}
		return len(p), nil // an endless stream of zeros
	}))
	<-blocked
	closed := make(chan struct{})
	go func() { f.close(); close(closed) }()
	<-f.stop
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close did not return after the blocked Read did")
	}
	if reads != 1 {
		t.Errorf("reader called %d times, want only the Read in flight", reads)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// peakGoroutines runs a compressing Process at the given Parallelism and
// returns the goroutine count before it and the highest seen from inside the
// reader.
func peakGoroutines(t *testing.T, par int) (before, peak int) {
	t.Helper()
	data := streamBytes(t, 8<<20, 2, 2)
	cfg := testConfig(CPUOnly)
	cfg.Parallelism, cfg.Lookahead = par, 1 // the encode fan-out starts while most of the stream is unread
	eng, err := NewEngine(PaperPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	before = runtime.NumGoroutine()
	src := bytes.NewReader(data)
	if _, err := eng.Process(readerFunc(func(p []byte) (int, error) {
		peak = max(peak, runtime.NumGoroutine())
		return src.Read(p)
	})); err != nil {
		t.Fatal(err)
	}
	settle(t, before)
	return before, peak
}

// TestSerialProcessStartsNoGoroutine: Parallelism 1 runs the stage inline.
func TestSerialProcessStartsNoGoroutine(t *testing.T) {
	if before, peak := peakGoroutines(t, 1); peak > before {
		t.Errorf("%d goroutines during a serial Process, %d before it", peak, before)
	}
}

// TestProcessGoroutineBudget: an engine at Parallelism p runs at most p+1
// goroutines — the caller, the chunking goroutine and the pool's p-1
// workers, who hash, encode or decode, whatever is posted.
func TestProcessGoroutineBudget(t *testing.T) {
	for _, par := range []int{2, 4} {
		if before, peak := peakGoroutines(t, par); peak-before > par {
			t.Errorf("Parallelism %d: %d goroutines started (caller excluded), want at most %d", par, peak-before, par)
		}
	}
}

// TestBlobPoolNeverDrops: whatever order sizes come back in, a request is
// served from the pool whenever a buffer of its class is there.
func TestBlobPoolNeverDrops(t *testing.T) {
	var p bufPool
	sizes := []int{2048, 4096, 4097, 8192, 12000, 16384, 16385, 100}
	for round := 0; round < 3; round++ {
		var got [][]byte
		for _, n := range sizes {
			b := p.Get(n + blobHeadroom)
			if cap(b) < n+blobHeadroom || len(b) != 0 {
				t.Fatalf("Get(%d): len %d cap %d", n+blobHeadroom, len(b), cap(b))
			}
			got = append(got, b)
		}
		for _, b := range got { // small ones end up stacked above large ones
			p.Put(b)
		}
	}
	if p.made != len(sizes) {
		t.Errorf("allocated %d buffers for %d live at a time", p.made, len(sizes))
	}
	p.Put(make([]byte, 0, 100)) // too small for any class: ignored
	if b := p.Get(1); cap(b) < 4096+blobHeadroom {
		t.Errorf("pool handed out a foreign undersized buffer (cap %d)", cap(b))
	}
}

// TestBlobPoolSteadyStateCDC: on a long content-defined stream the blob pool
// reaches a steady state — serial runs need one buffer per size class, and
// fanned-out runs about one batch of them (the parallel pass holds a batch
// of blobs at once), not several per chunk — and the report does not care.
func TestBlobPoolSteadyStateCDC(t *testing.T) {
	size := int64(32 << 20)
	if testing.Short() {
		size = 8 << 20 // two batches still recycle the first one's buffers
	}
	data := streamBytes(t, size, 1, 2)
	cfg := DefaultConfig()
	cfg.Chunker = CDCChunking
	var reports [][]byte
	for _, par := range []int{1, 2} {
		cfg.Parallelism = par
		eng, err := NewEngine(PaperPlatform(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Process(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		classes := blobClass(cfg.Gear.Max+blobHeadroom) + 1
		limit := classes
		if par > 1 {
			limit = cfg.Batch + cfg.Batch/4 + classes*par
		}
		if eng.blobBufs.made > limit {
			t.Errorf("par=%d: %d blob buffers allocated over %d chunks, want <= %d", par, eng.blobBufs.made, rep.Chunks, limit)
		}
		js, _ := rep.JSON()
		reports = append(reports, js)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("reports differ between Parallelism 1 and 2")
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestProcessRetainsNoStreamBytes: chunk payloads are views that pin whole
// slabs, so a finished engine must not keep one reachable.
func TestProcessRetainsNoStreamBytes(t *testing.T) {
	const size = 16 << 20
	data := streamBytes(t, size, 2, 2)
	for _, cdc := range []bool{false, true} {
		cfg := DefaultConfig()
		if cdc {
			cfg.Chunker = CDCChunking
		}
		before := liveHeap()
		eng, err := NewEngine(PaperPlatform(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Process(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		grown := int64(liveHeap()) - int64(before)
		runtime.KeepAlive(eng)
		if grown > size/8 {
			t.Errorf("cdc=%v: a finished engine keeps %d KiB alive after a %d MiB stream", cdc, grown>>10, size>>20)
		}
	}
}

// TestFrontBoundedRunAhead: the stage runs a constant distance ahead of the
// commit pass, so once the lookahead window has filled the live heap seen
// from inside the reader is the same however long the stream is.
func TestFrontBoundedRunAhead(t *testing.T) {
	if testing.Short() {
		t.Skip("feeds 320 MiB through the engine")
	}
	block := streamBytes(t, 1<<20, 1, 2) // repeated: the index stops growing after the first MiB
	peakFor := func(size int) uint64 {
		cfg := DefaultConfig()
		eng, err := NewEngine(PaperPlatform(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		window := (cfg.Lookahead + 4) * cfg.Batch * cfg.ChunkSize
		var peak uint64
		fed, sampled := 0, 0
		if _, err := eng.Process(readerFunc(func(p []byte) (int, error) {
			if fed >= size {
				return 0, io.EOF
			}
			if fed >= window && fed-sampled >= 1<<20 {
				sampled = fed
				peak = max(peak, liveHeap())
			}
			n := copy(p, block[fed%len(block):])
			fed += n
			return n, nil
		})); err != nil {
			t.Fatal(err)
		}
		return peak
	}
	small, large := peakFor(64<<20), peakFor(256<<20)
	// Which of its two batches of run-ahead the stage holds at a sample is
	// timing; anything unbounded would differ by the stream length.
	if diff := int64(large) - int64(small); diff > 6<<20 || diff < -(6<<20) {
		t.Errorf("peak live heap %d KiB over 64 MiB but %d KiB over 256 MiB", small>>10, large>>10)
	}
}

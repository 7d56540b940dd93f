package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"inlinered/internal/dedup"
	"inlinered/internal/fault"
	"inlinered/internal/obs"
	"inlinered/internal/workload"
)

// faultSeeds returns the fault seeds to sweep: the FAULT_SEEDS environment
// variable (comma-separated, set by the CI fault matrix) or a fixed default.
func faultSeeds(t *testing.T) []int64 {
	env := os.Getenv("FAULT_SEEDS")
	if env == "" {
		return []int64{1, 7}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("FAULT_SEEDS: %v", err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// indexEntrySet flattens an index into bin|key -> entry for subset checks.
func indexEntrySet(idx *dedup.BinIndex) map[string]dedup.Entry {
	m := make(map[string]dedup.Entry)
	idx.Walk(func(bin uint32, key []byte, e dedup.Entry) bool {
		m[fmt.Sprintf("%d|%x", bin, key)] = e
		return true
	})
	return m
}

// TestFaultSeedDeterminism is the fault-injection determinism contract: a
// fixed fault seed makes the run reproducible — two runs of the same
// workload produce bit-identical Reports (fault counters included) and
// journal images, for any host Parallelism, in every integration mode, and
// the degraded pipeline still verifies byte-exactly against the source.
func TestFaultSeedDeterminism(t *testing.T) {
	run := func(t *testing.T, mode Mode, seed int64, par int) (*Engine, *Report) {
		t.Helper()
		cfg := testConfig(mode)
		cfg.Parallelism = par
		cfg.Faults = fault.Config{Seed: seed, Rates: fault.Uniform(0.01)}
		s := testStream(t, 4<<20, 2.0, 2.0, workload.RefUniform)
		eng, rep := runPipeline(t, PaperPlatform(), cfg, s)
		s.Reset()
		if err := eng.VerifyAgainst(s); err != nil {
			t.Fatalf("mode=%v seed=%d par=%d: verify under faults: %v", mode, seed, par, err)
		}
		return eng, rep
	}
	for _, mode := range Modes {
		for _, seed := range faultSeeds(t) {
			t.Run(fmt.Sprintf("%v/seed=%d", mode, seed), func(t *testing.T) {
				engA, repA := run(t, mode, seed, 1)
				engB, repB := run(t, mode, seed, 4)
				engC, repC := run(t, mode, seed, 4)
				if !reflect.DeepEqual(repA, repB) {
					t.Errorf("reports differ between parallelism 1 and 4:\npar=1: %+v\npar=4: %+v", repA, repB)
				}
				if !reflect.DeepEqual(repB, repC) {
					t.Errorf("reports differ between two identical runs:\nrun1: %+v\nrun2: %+v", repB, repC)
				}
				if !bytes.Equal(engA.JournalImage(), engB.JournalImage()) ||
					!bytes.Equal(engB.JournalImage(), engC.JournalImage()) {
					t.Error("journal images differ for the same fault seed")
				}
				if !repA.Faults.Any() {
					t.Error("uniform 1% rates over this stream should fire at least one fault")
				}
			})
		}
	}
}

// TestZeroRateIdentity: a zero-valued fault config must leave the Report
// and journal image bit-identical to a run with no fault machinery at all.
func TestZeroRateIdentity(t *testing.T) {
	run := func(cfgMut func(*Config)) (*Engine, *Report) {
		cfg := testConfig(CPUOnly)
		cfgMut(&cfg)
		s := testStream(t, 4<<20, 2.0, 2.0, workload.RefUniform)
		return runPipeline(t, PaperPlatform(), cfg, s)
	}
	engOff, repOff := run(func(c *Config) {})
	engZero, repZero := run(func(c *Config) { c.Faults = fault.Config{Seed: 1234} })
	if !reflect.DeepEqual(repOff, repZero) {
		t.Errorf("zero-rate faults changed the report:\noff:  %+v\nzero: %+v", repOff, repZero)
	}
	if !bytes.Equal(engOff.JournalImage(), engZero.JournalImage()) {
		t.Error("zero-rate faults changed the journal image")
	}
	if repZero.Faults.Any() {
		t.Errorf("zero rates recorded fault activity: %+v", repZero.Faults)
	}
	if !strings.Contains(repOff.String(), "ssd:") || strings.Contains(repOff.String(), "faults:") {
		t.Error("fault line must be absent from a fault-free report")
	}
}

// TestGPUDeviceLostFallsBackToCPU: with device loss certain on the first
// kernel launch, every GPU mode must complete the stream on the CPU path,
// record the loss and the fallback, and still verify byte-exactly.
func TestGPUDeviceLostFallsBackToCPU(t *testing.T) {
	for _, mode := range []Mode{GPUDedup, GPUCompress, GPUBoth} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(mode)
			cfg.Faults = fault.Config{Seed: 5, Rates: fault.Rates{fault.GPUDeviceLost: 1}}
			s := testStream(t, 4<<20, 2.0, 2.0, workload.RefUniform)
			eng, rep := runPipeline(t, PaperPlatform(), cfg, s)
			if !rep.Faults.GPUDeviceLost {
				t.Fatal("report must record the device loss")
			}
			// In GPUCompress mode the first launch is a compression kernel,
			// so a whole batch falls back. In GPUBoth the screening probe
			// dies first: nothing is pending yet, and later chunks route
			// down the ordinary CPU path without a fallback batch.
			if mode == GPUCompress && rep.Faults.GPUFallbackBatches == 0 {
				t.Fatal("compression batches must have fallen back to the CPU")
			}
			if mode.UsesGPUCompress() && rep.UniqueChunks > 0 && rep.StoredBytes == 0 {
				t.Fatal("fallback stored nothing")
			}
			s.Reset()
			if err := eng.VerifyAgainst(s); err != nil {
				t.Fatalf("verify after device loss: %v", err)
			}
		})
	}
}

// TestDeviceLostMidRun: loss on a later launch (not the first) leaves the
// already-retired GPU batches valid and re-runs only the pending work.
func TestDeviceLostMidRun(t *testing.T) {
	cfg := testConfig(GPUCompress)
	cfg.Faults = fault.Config{Seed: 11, Rates: fault.Rates{fault.GPUDeviceLost: 0.25}}
	s := testStream(t, 8<<20, 2.0, 2.0, workload.RefUniform)
	eng, rep := runPipeline(t, PaperPlatform(), cfg, s)
	if !rep.Faults.GPUDeviceLost {
		t.Skip("loss did not fire at this seed/rate; covered by the rate-1 test")
	}
	if rep.GPUKernels == 0 {
		t.Fatal("want at least one successful kernel before the loss")
	}
	s.Reset()
	if err := eng.VerifyAgainst(s); err != nil {
		t.Fatalf("verify after mid-run loss: %v", err)
	}
}

// TestTransientWriteRetriesAbsorbed: transient SSD write errors at a rate
// well under the retry budget never surface; the report counts the retries
// and the pipeline's output is unharmed.
func TestTransientWriteRetriesAbsorbed(t *testing.T) {
	cfg := testConfig(CPUOnly)
	cfg.Faults = fault.Config{Seed: 21, Rates: fault.Rates{fault.SSDWriteTransient: 0.2}}
	s := testStream(t, 4<<20, 2.0, 2.0, workload.RefUniform)
	eng, rep := runPipeline(t, PaperPlatform(), cfg, s)
	if rep.Faults.SSDWriteRetries == 0 {
		t.Fatal("20% transient write faults should force retries")
	}
	if rep.SSD.WriteFaults == 0 {
		t.Fatal("drive stats should count the rejected writes")
	}
	s.Reset()
	if err := eng.VerifyAgainst(s); err != nil {
		t.Fatalf("verify under transient write faults: %v", err)
	}
}

// TestTornJournalStillRecovers: injected torn flush records truncate
// recovery at the tear; what is recovered is a consistent prefix (a subset
// of the live index with identical metadata), never garbage.
func TestTornJournalStillRecovers(t *testing.T) {
	cfg := testConfig(CPUOnly)
	cfg.Faults = fault.Config{Seed: 31, Rates: fault.Rates{fault.JournalTorn: 0.02}}
	s := testStream(t, 8<<20, 2.0, 2.0, workload.RefUniform)
	eng, rep := runPipeline(t, PaperPlatform(), cfg, s)
	if rep.Faults.JournalTornRecords == 0 {
		t.Fatal("2% torn rate over this stream should tear at least one record")
	}
	rec, rcv, err := eng.RecoverIndex()
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Cause == nil {
		t.Fatal("a torn journal must report truncation")
	}
	live := indexEntrySet(eng.sub.Index)
	for k, e := range indexEntrySet(rec) {
		le, ok := live[k]
		if !ok {
			t.Fatalf("recovered phantom entry %s", k)
		}
		if e != le {
			t.Fatalf("entry %s: recovered %+v, live %+v", k, e, le)
		}
	}
	if !errors.Is(rcv.Cause, dedup.ErrJournalCorrupt) {
		t.Fatalf("the tear must be reported as ErrJournalCorrupt, got %v", rcv.Cause)
	}
}

// TestEngineTornFlushesCountInJournalHistogram: a torn flush consumed drive
// time like a whole one, so with a recorder attached the engine's
// journal-flush histogram counts every region write, whole and torn — the
// contract the volume keeps for JournalFlushLat.
func TestEngineTornFlushesCountInJournalHistogram(t *testing.T) {
	for _, seed := range faultSeeds(t) {
		cfg := testConfig(CPUOnly)
		cfg.Obs = obs.NewRecorder()
		cfg.Faults = fault.Config{Seed: seed, Rates: fault.Rates{fault.JournalTorn: 0.1}}
		s := testStream(t, 4<<20, 2.0, 2.0, workload.RefUniform)
		_, rep := runPipeline(t, PaperPlatform(), cfg, s)
		torn, writes := rep.Faults.JournalTornRecords, rep.JournalWrites
		if torn == 0 || writes == torn {
			t.Fatalf("seed %d: want whole and torn records: %d writes, %d torn", seed, writes, torn)
		}
		if got := rep.Latency.JournalFlush.Count; got != writes {
			t.Fatalf("seed %d: journal-flush histogram counts %d flushes, want all %d writes (%d torn)", seed, got, writes, torn)
		}
	}
}

// TestEngineCrashPoints cuts the engine's journal image at every byte (a
// crash at every possible persistence point) and requires each prefix to
// recover into a consistent prefix index: no error, no phantom entries,
// record count monotone in the cut point.
func TestEngineCrashPoints(t *testing.T) {
	cfg := testConfig(CPUOnly)
	cfg.Index.BufferEntries = 8 // frequent flushes: more records, denser cuts
	s := testStream(t, 2<<20, 2.0, 2.0, workload.RefUniform)
	eng, _ := runPipeline(t, PaperPlatform(), cfg, s)
	image := eng.JournalImage()
	if len(image) == 0 {
		t.Fatal("run journaled nothing")
	}
	live := indexEntrySet(eng.sub.Index)
	prev := 0
	for cut := 0; cut <= len(image); cut++ {
		rec, rcv, err := dedup.RecoverJournal(image[:cut], cfg.Index)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rcv.Records < prev {
			t.Fatalf("cut %d: records shrank %d -> %d", cut, prev, rcv.Records)
		}
		prev = rcv.Records
		rec.Walk(func(bin uint32, key []byte, e dedup.Entry) bool {
			k := fmt.Sprintf("%d|%x", bin, key)
			le, ok := live[k]
			if !ok {
				t.Fatalf("cut %d: phantom entry %s", cut, k)
			}
			if e != le {
				t.Fatalf("cut %d: entry %s: recovered %+v, live %+v", cut, k, e, le)
			}
			return true
		})
	}
}

// TestIndexEvictionUnderPressure: injected memory-pressure evictions drop
// resident entries (reducing dedup) but never break correctness.
func TestIndexEvictionUnderPressure(t *testing.T) {
	cfg := testConfig(CPUOnly)
	// Few bins with small buffers: entries reach the bin trees quickly, so
	// injected pressure has resident entries to reclaim.
	cfg.Index.BinBits = 6
	cfg.Index.BufferEntries = 4
	cfg.Faults = fault.Config{Seed: 41, Rates: fault.Rates{fault.IndexEvict: 0.05}}
	s := testStream(t, 4<<20, 3.0, 2.0, workload.RefUniform)
	eng, rep := runPipeline(t, PaperPlatform(), cfg, s)
	if rep.Faults.IndexEvictions == 0 {
		t.Fatal("5% eviction rate should evict something")
	}
	s.Reset()
	if err := eng.VerifyAgainst(s); err != nil {
		t.Fatalf("verify under index evictions: %v", err)
	}
}

// TestJournalWriteFailureDegrades drives the journal write path into a
// permanent failure directly: journaling must switch off (not fail the
// run), count the failure, and stop appending to the image.
func TestJournalWriteFailureDegrades(t *testing.T) {
	cfg := testConfig(CPUOnly)
	cfg.Faults = fault.Config{Seed: 3, Rates: fault.Rates{fault.SSDWritePermanent: 1}}
	eng, err := NewEngine(PaperPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fabricate one real flush via a scratch index.
	scratch, err := dedup.NewBinIndex(dedup.IndexConfig{BinBits: cfg.Index.BinBits, BufferEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	var flush *dedup.Flush
	for i := 0; flush == nil; i++ {
		var b [8]byte
		b[0] = byte(i)
		if ir := scratch.Insert(dedup.Sum(b[:]), dedup.Entry{Loc: int64(i)}); ir.Flush != nil {
			flush = ir.Flush
		}
	}
	if err := eng.persistFlush(0, flush); err != nil {
		t.Fatal(err)
	}
	j := &eng.sub.Journal
	if j.Failures != 1 || j.Writes() != 0 {
		t.Fatalf("journal write failures = %d, writes = %d; want 1, 0", j.Failures, j.Writes())
	}
	if len(eng.JournalImage()) != 0 {
		t.Fatal("a record whose write failed must not reach the journal image")
	}
	// With the faults gone a live journal would land the next flush; the
	// degraded one drops it.
	eng.sub.SetFaultInjector(nil)
	_ = eng.persistFlush(0, flush)
	if j.Failures != 1 || j.Writes() != 0 {
		t.Fatalf("after degrading: %d failures, %d writes; a dead journal must drop later flushes uncounted", j.Failures, j.Writes())
	}
}

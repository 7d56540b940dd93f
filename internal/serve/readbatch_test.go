package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

func batchConfig(shards, parallelism int) Config {
	vc := volume.DefaultConfig()
	vc.Blocks = 4096
	vc.SSD.BlocksPerChannel = 128
	vc.SegmentBytes = 1 << 20
	vc.SubBlocks = 4
	return Config{Volume: vc, Shards: shards, Parallelism: parallelism}
}

// storm builds a filled array plus the boot-storm read stream.
func storm(t *testing.T, cfg Config) (*Array, []int64) {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	spec := workload.DefaultBootStormSpec()
	fill, err := spec.Fill()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Serve(fill, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	lbas, err := spec.Storm()
	if err != nil {
		t.Fatal(err)
	}
	return a, lbas
}

// TestReadBatchMatchesSerialReads: the batch path must return the same
// bytes as per-read Array.Read calls, and its report must agree with the
// per-shard virtual clocks.
func TestReadBatchMatchesSerialReads(t *testing.T) {
	a, lbas := storm(t, batchConfig(4, 2))
	want := make([][]byte, len(lbas))
	ref, _ := storm(t, batchConfig(4, 2))
	for i, lba := range lbas {
		data, _, err := ref.Read(lba)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = data
	}
	got := make([][]byte, len(lbas))
	rep, err := a.ReadBatch(lbas, ReadBatchOptions{Sink: func(i int, block []byte, err error) {
		if err != nil {
			t.Errorf("read %d: %v", i, err)
		}
		got[i] = append([]byte(nil), block...)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lbas {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("read %d (lba %d): batch bytes diverge from serial", i, lbas[i])
		}
	}
	if rep.Reads != len(lbas) || rep.Errors != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("batch must consume virtual time")
	}
}

// TestReadBatchShardEquivalence: a 1-shard array's batch must be
// bit-identical to the raw volume's own ReadBatch (the serve tier adds
// routing, not accounting).
func TestReadBatchShardEquivalence(t *testing.T) {
	cfg := batchConfig(1, 1)
	a, lbas := storm(t, cfg)
	v, err := volume.New(cfg.Volume)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultBootStormSpec()
	fill, _ := spec.Fill()
	var payload []byte
	for _, op := range fill {
		payload = workload.UniqueChunkInto(payload[:0], 0, op.Content, cfg.Volume.BlockSize, 0.5)
		if _, err := v.Write(op.LBA, payload); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := a.ReadBatch(lbas, ReadBatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.ReadBatch(nil, lbas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Errors() != int(rep.Errors) {
		t.Fatalf("errors diverge: %d vs %d", b.Errors(), rep.Errors)
	}
	if v.Now() != rep.PerShard[0].Now {
		t.Fatalf("1-shard array clock %v, raw volume %v", rep.PerShard[0].Now, v.Now())
	}
	if int64(b.DecodedBlobs()) != rep.DecodedBlobs {
		t.Fatalf("decoded blobs diverge: %d vs %d", b.DecodedBlobs(), rep.DecodedBlobs)
	}
}

// TestReadBatchReadMostlyPreset: the read-mostly closed-loop preset drives
// a mixed Serve pass, then its reads replay through the batch path —
// the batch must agree with the shard clocks advanced by exactly those
// reads, for any parallelism.
func TestReadBatchReadMostlyPreset(t *testing.T) {
	ops, err := workload.ClosedLoop(workload.ReadMostlySpec(500, 512, 7))
	if err != nil {
		t.Fatal(err)
	}
	lbas := ReadOps(ops)
	if len(lbas) < 400 {
		t.Fatalf("read-mostly preset produced only %d reads", len(lbas))
	}
	var ref []byte
	for _, par := range []int{1, 4} {
		cfg := batchConfig(4, par)
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		// Fill with the preset's write prefix so reads mostly hit mapped
		// blocks.
		if _, err := a.Serve(ops[:512], RunOptions{}); err != nil {
			t.Fatal(err)
		}
		rep, err := a.ReadBatch(lbas, ReadBatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = js
		} else if !bytes.Equal(js, ref) {
			t.Fatalf("parallelism=%d: read-mostly batch report diverged", par)
		}
	}
}

// TestReadBatchValidation: an out-of-range LBA fails the whole batch
// before any shard state changes.
func TestReadBatchValidation(t *testing.T) {
	a, _ := storm(t, batchConfig(2, 1))
	before := a.Stats()
	if _, err := a.ReadBatch([]int64{0, a.Blocks()}, ReadBatchOptions{}); err == nil {
		t.Fatal("out-of-range lba accepted")
	}
	if a.Stats() != before {
		t.Fatal("failed validation mutated shard state")
	}
}

func BenchmarkServeReadBatch(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			cfg := batchConfig(4, par)
			a, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			spec := workload.DefaultBootStormSpec()
			fill, _ := spec.Fill()
			if _, err := a.Serve(fill, RunOptions{}); err != nil {
				b.Fatal(err)
			}
			lbas, _ := spec.Storm()
			b.SetBytes(int64(len(lbas)) * int64(cfg.Volume.BlockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.ReadBatch(lbas, ReadBatchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCacheAdmissionDeterminism: with an undersized cache under storm
// pressure — the regime where the admission policy makes every kind of
// decision (evictions, ghost hits, victim comparisons) — reports must
// still encode to identical bytes for any decode parallelism and
// GOMAXPROCS. Admission runs entirely in the sequential plan phase, so
// cache state is a pure function of the op order.
func TestCacheAdmissionDeterminism(t *testing.T) {
	spec := workload.DefaultBootStormSpec()
	var ref []byte
	var refStats volume.Stats
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, par := range []int{0, 1, 4, 8} {
			cfg := batchConfig(4, par)
			// A quarter of the image's unique content: small enough that the
			// storm evicts constantly.
			cfg.Volume.CacheBytes = int64(spec.ImageBlocks) * int64(cfg.Volume.BlockSize) / 16
			a, lbas := storm(t, cfg)
			var rep *ReadBatchReport
			var err error
			for pass := 0; pass < 3; pass++ {
				rep, err = a.ReadBatch(lbas, ReadBatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
			}
			js, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			st := a.Stats()
			if ref == nil {
				ref = js
				refStats = st
				if rep.CacheHits == 0 || rep.CacheMisses == 0 || st.CacheAdmissions == 0 {
					t.Fatalf("sweep must exercise the policy: %+v", rep)
				}
			} else {
				if !bytes.Equal(js, ref) {
					t.Fatalf("procs=%d parallelism=%d: report diverged:\n%s\nwant:\n%s", procs, par, js, ref)
				}
				if st.CacheHits != refStats.CacheHits || st.CacheMisses != refStats.CacheMisses ||
					st.CacheAdmissions != refStats.CacheAdmissions || st.CacheGhostHits != refStats.CacheGhostHits {
					t.Fatalf("procs=%d parallelism=%d: cache counters diverged: %+v vs %+v", procs, par, st, refStats)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestBootStormWarmPassHitsCache: with a cache a quarter the size of the
// image's unique content, repeated storm passes must settle into a real
// hit rate — the pure-LRU cache this policy replaced measured ~0 here
// (each pass's scan evicted everything the previous pass cached).
func TestBootStormWarmPassHitsCache(t *testing.T) {
	spec := workload.DefaultBootStormSpec()
	cfg := batchConfig(4, 2)
	cfg.Volume.CacheBytes = int64(spec.ImageBlocks) * int64(cfg.Volume.BlockSize) / 16
	a, lbas := storm(t, cfg)
	cold, err := a.ReadBatch(lbas, ReadBatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var warm *ReadBatchReport
	for pass := 0; pass < 2; pass++ {
		warm, err = a.ReadBatch(lbas, ReadBatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if warm.CacheHits == 0 {
		t.Fatalf("warm storm pass hit nothing: cold=%v warm=%v", cold, warm)
	}
	if warm.HitRate() <= cold.HitRate() {
		t.Fatalf("warm pass hit rate %.3f must beat the cold pass's %.3f",
			warm.HitRate(), cold.HitRate())
	}
	if warm.HitRate() < 0.05 {
		t.Fatalf("warm pass hit rate %.3f below the boot-storm floor", warm.HitRate())
	}
	// The counters must reconcile: every read either hit, missed, or was
	// unmapped (and the storm reads only mapped blocks).
	if warm.CacheHits+warm.CacheMisses != int64(warm.Reads) {
		t.Fatalf("hits %d + misses %d != reads %d", warm.CacheHits, warm.CacheMisses, warm.Reads)
	}
}

// TestReadBatchCloseRace: Close while batches are in flight must neither
// panic, hang, nor race — it waits for a decode fan-out to finish before
// stopping the workers, and the next batch restarts them. Before Close was
// ordered behind in-flight batches, a Map could send on the worker
// channel Close had just closed. The cache is off so every batch decodes.
func TestReadBatchCloseRace(t *testing.T) {
	cfg := batchConfig(2, 4)
	cfg.Volume.CacheBytes = 0
	a, lbas := storm(t, cfg)
	lbas = lbas[:32]
	stop := make(chan struct{})
	var closers sync.WaitGroup
	for g := 0; g < 2; g++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a.Close()
				// Jitter, so Close lands at every point of a batch in turn.
				for spin := rng.Intn(64); spin > 0; spin-- {
					runtime.Gosched()
				}
			}
		}()
	}
	var want []byte
	for round := 0; round < 1000; round++ {
		var got []byte
		rep, err := a.ReadBatch(lbas, ReadBatchOptions{Sink: func(i int, block []byte, err error) {
			if i == 0 {
				got = append(got, block...)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 || rep.DecodedBlobs == 0 {
			t.Fatalf("round %d: %d read errors, %d decodes", round, rep.Errors, rep.DecodedBlobs)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("round %d: read 0 returned different bytes across a Close", round)
		}
	}
	close(stop)
	closers.Wait()
}

// TestServeReadBatchDirectStress drives every entry point of one array at
// once — batch Serve, batch ReadBatch with a Sink, and direct Write/Read —
// which is legal now that each holds one shard lock at a time. Under -race
// this is the proof that nothing in the shared skeleton (partitions, the
// decode pool, per-shard batch state) leaks between concurrent calls; the
// shard-sum accounting identity must hold once they quiesce.
func TestServeReadBatchDirectStress(t *testing.T) {
	cfg := batchConfig(4, 4)
	a, lbas := storm(t, cfg)
	ops, err := workload.ClosedLoop(workload.ReadMostlySpec(300, 512, 7))
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	var wg sync.WaitGroup
	run := func(f func(round int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if err := f(round); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		run(func(int) error {
			_, err := a.Serve(ops, RunOptions{Clients: 3, ContentSeed: 9, CleanEvery: 64})
			return err
		})
		run(func(int) error {
			var reads atomic.Int64
			rep, err := a.ReadBatch(lbas, ReadBatchOptions{Clients: 3, Sink: func(int, []byte, error) { reads.Add(1) }})
			if err == nil && (reads.Load() != int64(len(lbas)) || rep.Reads != len(lbas)) {
				err = fmt.Errorf("sink saw %d of %d reads (report says %d)", reads.Load(), len(lbas), rep.Reads)
			}
			return err
		})
		run(func(round int) error {
			// Direct traffic on LBAs no batch touches, so the bytes are checkable.
			for i := int64(0); i < 32; i++ {
				lba := 2048 + int64(g)*64 + i
				data := workload.UniqueChunk(3, int32(lba)+int32(round), cfg.Volume.BlockSize, 0.5)
				if _, err := a.Write(lba, data); err != nil {
					return err
				}
				got, _, err := a.Read(lba)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, data) {
					return fmt.Errorf("lba %d: direct read diverged from its write", lba)
				}
			}
			return nil
		})
	}
	wg.Wait()
	checkShardStatsSumToMerged(t, a)
}

// TestSinkMayReenter: Sink runs with no shard lock held, so it may call back
// into the array — a direct Read of the block it was just handed (same
// shard: this deadlocked while Sink ran under the lock) and a nested
// ReadBatch, which finds the shard's batch checked out and takes its own.
// The bytes Sink was handed stay valid for the whole call.
func TestSinkMayReenter(t *testing.T) {
	a, lbas := storm(t, batchConfig(2, 2))
	lbas = lbas[:256]
	var nested atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := a.ReadBatch(lbas, ReadBatchOptions{Clients: 2, Sink: func(i int, block []byte, err error) {
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			again, _, err := a.Read(lbas[i])
			if err != nil || !bytes.Equal(again, block) {
				t.Errorf("read %d: re-entrant Read disagrees with the batch (%v)", i, err)
			}
			if i%64 == 0 {
				_, err := a.ReadBatch(lbas[i:i+1], ReadBatchOptions{Sink: func(_ int, inner []byte, err error) {
					if err != nil || !bytes.Equal(inner, block) {
						t.Errorf("read %d: nested ReadBatch disagrees with the batch (%v)", i, err)
					}
					nested.Add(1)
				}})
				if err != nil {
					t.Error(err)
				}
			}
		}})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ReadBatch did not return: Sink deadlocked calling back into the array")
	}
	if nested.Load() != 4 {
		t.Fatalf("%d nested batches ran, want 4", nested.Load())
	}
	// The shards kept one batch each; the array still serves.
	if rep, err := a.ReadBatch(lbas, ReadBatchOptions{}); err != nil || rep.Errors != 0 {
		t.Fatalf("batch after re-entrant sinks: %+v, %v", rep, err)
	}
}

// TestReadBatchSinkOutlivesEviction: a checked-out batch's blocks alias its
// shard's cache. Here the Sink's first call runs, on the same shard, a
// nested ReadBatch and direct Reads that evict every entry the outer batch
// aliases and refill the cache with other blocks many times over. Every
// block the outer batch hands its Sink, that first one included, must
// still be byte for byte what was written.
func TestReadBatchSinkOutlivesEviction(t *testing.T) {
	cfg := batchConfig(1, 2)
	cfg.Volume.CacheBytes = 16 * int64(cfg.Volume.BlockSize)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	want := make([][]byte, 256)
	for lba := range want {
		want[lba] = workload.UniqueChunk(4, int32(lba), cfg.Volume.BlockSize, 0.5)
		if _, err := a.Write(int64(lba), want[lba]); err != nil {
			t.Fatal(err)
		}
	}
	// The outer batch misses 16 blocks and hits each again (pending hits);
	// the nested traffic reads 64 others three times over, so they outrank
	// the outer entries in the admission sketch and displace them.
	var outer, other []int64
	for pass := 0; pass < 2; pass++ {
		for lba := int64(0); lba < 16; lba++ {
			outer = append(outer, lba)
		}
	}
	for pass := 0; pass < 3; pass++ {
		for lba := int64(100); lba < 164; lba++ {
			other = append(other, lba)
		}
	}
	_, err = a.ReadBatch(outer, ReadBatchOptions{Sink: func(i int, block []byte, err error) {
		if i == 0 {
			if _, err := a.ReadBatch(other, ReadBatchOptions{}); err != nil {
				t.Error(err)
			}
			for _, lba := range other {
				if _, _, err := a.Read(lba); err != nil {
					t.Error(err)
				}
			}
		}
		if err != nil || !bytes.Equal(block, want[outer[i]]) {
			t.Errorf("read %d (lba %d) changed under the Sink (%v)", i, outer[i], err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Every entry the outer batch aliased was evicted meanwhile.
	rep, err := a.ReadBatch(outer[:16], ReadBatchOptions{})
	if err != nil || rep.CacheHits != 0 {
		t.Fatalf("outer entries survived the nested traffic: %+v, %v", rep, err)
	}
}

package serve

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inlinered/internal/metrics"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// serveRounds serves batches one after another and returns each report's
// JSON.
func serveRounds(t *testing.T, a *Array, batches [][]workload.Op, opt RunOptions) [][]byte {
	t.Helper()
	out := make([][]byte, len(batches))
	for i, b := range batches {
		rep, err := a.Serve(b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = rep.JSON(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCloseDuringServeFront: Close while Serve's write fronts have tasks
// posted must neither hang, race nor change a report — it takes each shard's
// lock, which a drain holds until its last posted task has run, and the
// next Serve builds a fresh front.
func TestCloseDuringServeFront(t *testing.T) {
	ops := testOps(t)
	var batches [][]workload.Op
	for len(ops) >= 200 {
		batches, ops = append(batches, ops[:200]), ops[200:]
	}
	opt := RunOptions{Clients: 3, ContentSeed: 9, CleanEvery: 64}
	ref, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	want := serveRounds(t, ref, batches, opt)

	a, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
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
				for spin := rng.Intn(64); spin > 0; spin-- {
					runtime.Gosched()
				}
			}
		}()
	}
	got := serveRounds(t, a, batches, opt)
	close(stop)
	closers.Wait()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("batch %d: report changed under concurrent Close:\n%s\nwant:\n%s", i, got[i], want[i])
		}
	}
}

// TestServeOnlyArrayCloseStopsWorkers: Serve's write front posts to the
// array's pool, which starts its workers on first use, so an array that
// only serves still owns Parallelism-1 parked goroutines until Close — and
// a Serve after Close restarts them without changing a byte.
func TestServeOnlyArrayCloseStopsWorkers(t *testing.T) {
	ops := testOps(t)
	batches := [][]workload.Op{ops[:len(ops)/2], ops[len(ops)/2:]}
	opt := RunOptions{Clients: 2, ContentSeed: 9, CleanEvery: 64}
	cfg := testConfig(2)
	cfg.Parallelism = 4
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := serveRounds(t, ref, batches, opt)

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	got := serveRounds(t, a, batches[:1], opt)
	if n := runtime.NumGoroutine(); n <= before {
		t.Fatalf("%d goroutines after Serve at Parallelism 4, %d before: the write front started no worker", n, before)
	}
	a.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after Close, %d before Serve", runtime.NumGoroutine(), before)
		}
	}
	got = append(got, serveRounds(t, a, batches[1:], opt)...)
	a.Close()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("batch %d: report changed across Close:\n%s\nwant:\n%s", i, got[i], want[i])
		}
	}
}

// TestSerialServeStartsNoGoroutine: with one client the write front runs
// inline — Post queues its tasks and the drain's own Wait runs them — so a
// Serve call starts no goroutine at all, however many shards it drains.
func TestSerialServeStartsNoGoroutine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a second thread to watch the goroutine count while Serve runs")
	}
	a, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	ops := testOps(t)
	before := runtime.NumGoroutine() + 1 // the watcher below
	var peak, samples atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				peak.Store(max(peak.Load(), int64(runtime.NumGoroutine())))
				samples.Add(1)
				runtime.Gosched()
			}
		}
	}()
	for samples.Load() == 0 {
		runtime.Gosched()
	}
	samples.Store(0)
	for round := 0; round < 5; round++ {
		if _, err := a.Serve(ops, RunOptions{Clients: 1, ContentSeed: 9, CleanEvery: 100}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-stopped
	if samples.Load() == 0 {
		t.Skip("the watcher never ran while Serve did")
	}
	if int(peak.Load()) > before {
		t.Errorf("%d goroutines during serial Serve calls, %d before them", peak.Load(), before)
	}
}

// TestServeMixedSpeculation runs the benchmark's serve-mixed op mix (60/35/5
// write/read/trim, dedup 2, half the ops on a hotspot, the cleaner running)
// over two shards and reads the encode-placement counters: the front's guess
// must waste no encode, and leave at most 1 % of the unique blocks to be
// encoded inline at commit.
func TestServeMixedSpeculation(t *testing.T) {
	const blocks, batch, rounds = 4096, 2048, 6
	ops, err := workload.ClosedLoop(workload.ClosedLoopSpec{
		Ops: rounds * batch, Blocks: blocks, WriteFrac: 0.6, TrimFrac: 0.05, DedupRatio: 2, Hotspot: 0.5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	vc := volume.DefaultConfig()
	vc.Blocks = blocks
	a, err := New(Config{Volume: vc, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	metrics.Enable()
	defer metrics.Disable()
	spec0, inline0, wasted0 := metrics.WriteEncodesSpeculated.Value(), metrics.WriteEncodesInline.Value(), metrics.WriteEncodesWasted.Value()
	opt := RunOptions{Clients: 2, ContentSeed: 11}
	if _, err := a.Serve(ops[:blocks], opt); err != nil { // the fill
		t.Fatal(err)
	}
	opt.CleanEvery = 512
	for rest := ops[blocks:]; len(rest) >= batch; rest = rest[batch:] {
		if _, err := a.Serve(rest[:batch], opt); err != nil {
			t.Fatal(err)
		}
	}
	spec, inline, wasted := metrics.WriteEncodesSpeculated.Value()-spec0, metrics.WriteEncodesInline.Value()-inline0, metrics.WriteEncodesWasted.Value()-wasted0
	st := a.Stats()
	unique := st.Writes - st.DedupHits
	t.Logf("%d writes, %d unique: %d encodes speculated, %d inline, %d wasted", st.Writes, unique, spec, inline, wasted)
	if spec-wasted+inline != unique {
		t.Fatalf("encodes used (%d speculated - %d wasted + %d inline) != %d unique writes", spec, wasted, inline, unique)
	}
	if wasted != 0 || inline*100 > unique {
		t.Fatalf("front mis-speculated: %d wasted, %d inline of %d unique writes", wasted, inline, unique)
	}
}

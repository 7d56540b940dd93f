package parallel

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inlinered/internal/metrics"
)

func TestMapCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 7, 100, 1024} {
			hit := make([]int32, n)
			p.Map(n, func(i int) { atomic.AddInt32(&hit[i], 1) })
			for i := range hit {
				if hit[i] != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, hit[i])
				}
			}
		}
		p.Close()
	}
}

func TestMapReusesWorkersAcrossCalls(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		p.Map(64, func(i int) { total.Add(int64(i)) })
	}
	want := int64(50 * 64 * 63 / 2)
	if total.Load() != want {
		t.Fatalf("sum: got %d, want %d", total.Load(), want)
	}
}

func TestSingleWorkerRunsInline(t *testing.T) {
	p := New(1)
	defer p.Close()
	// With one worker, Map must run on the calling goroutine in order.
	var order []int
	p.Map(16, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order broken at %d: %v", i, order)
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() != runtime.NumCPU() {
		t.Fatalf("workers: got %d, want NumCPU=%d", p.Workers(), runtime.NumCPU())
	}
}

// TestMapZeroAllocSteadyState: after warm-up, Map itself must not
// allocate — tasks travel by value and the round is recycled (the engine
// calls Map once per batch on the 4 KB-chunk path).
func TestMapZeroAllocSteadyState(t *testing.T) {
	p := New(4)
	defer p.Close()
	var sink atomic.Int64
	fn := func(i int) { sink.Add(int64(i)) }
	p.Map(256, fn) // warm-up: launch workers
	allocs := testing.AllocsPerRun(100, func() { p.Map(256, fn) })
	if allocs != 0 {
		t.Fatalf("Map allocates %.1f objects/op steady-state, want 0", allocs)
	}
}

// TestMapZeroAllocWithMetrics: enabling the wall-clock metrics layer must
// not reintroduce allocations on the Map hot path — every record is a
// plain atomic op on a pre-registered handle.
func TestMapZeroAllocWithMetrics(t *testing.T) {
	metrics.Enable()
	defer metrics.Disable()
	p := New(4)
	defer p.Close()
	var sink atomic.Int64
	fn := func(i int) { sink.Add(int64(i)) }
	p.Map(256, fn) // warm-up: launch workers
	allocs := testing.AllocsPerRun(100, func() { p.Map(256, fn) })
	if allocs != 0 {
		t.Fatalf("Map with metrics on allocates %.1f objects/op steady-state, want 0", allocs)
	}
	if n, _ := metrics.SeriesValue("inlinered_pool_map_calls_total", "subsystem", "parallel"); n < 100 {
		t.Fatalf("pool map calls = %d, want >= 100 recorded", n)
	}
	if busy := metrics.PoolBusy.Value(); busy <= 0 {
		t.Fatalf("pool busy ns = %d, want > 0", busy)
	}
	if metrics.PoolBatchSize.N() == 0 {
		t.Fatal("batch-size histogram recorded no samples")
	}
}

// TestMapManyRoundsStress hammers post/wait/recycle: uneven item costs,
// varying n (including n < workers), back-to-back rounds.
func TestMapManyRoundsStress(t *testing.T) {
	p := New(8)
	defer p.Close()
	var total atomic.Int64
	rounds := 0
	for _, n := range []int{1, 2, 3, 7, 8, 9, 63, 64, 1000} {
		for r := 0; r < 200; r++ {
			hit := make([]int32, n)
			p.Map(n, func(i int) {
				if i%17 == 0 {
					for k := 0; k < 100; k++ {
						total.Add(1)
					}
				}
				atomic.AddInt32(&hit[i], 1)
			})
			for i := range hit {
				if hit[i] != 1 {
					t.Fatalf("n=%d round=%d: index %d visited %d times", n, r, i, hit[i])
				}
			}
			rounds++
		}
	}
	if rounds != 9*200 {
		t.Fatalf("rounds = %d", rounds)
	}
}

func TestCloseIdempotentAndUnstarted(t *testing.T) {
	p := New(4)
	p.Close() // never started
	p.Close() // and again
	q := New(4)
	q.Map(8, func(int) {})
	q.Close()
	q.Close()
	// A closed pool restarts on demand.
	var hit atomic.Int64
	q.Map(64, func(int) { hit.Add(1) })
	if hit.Load() != 64 {
		t.Fatalf("Map after Close ran %d of 64 items", hit.Load())
	}
	q.Close()
}

// TestMapConcurrentCallersAndClose: several goroutines share one pool —
// Map from all of them at once, Map from inside a Map's fn, and Close in
// the middle of it all. Every Map must still run every index exactly once
// (whoever is lending at the time runs it: workers that come and go, the
// callers themselves), and nothing may panic, hang, or race.
func TestMapConcurrentCallersAndClose(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				n := 1 + (g*31+round)%97
				hit := make([]int32, n)
				p.Map(n, func(i int) {
					atomic.AddInt32(&hit[i], 1)
					if i == 0 && round%8 == 0 {
						var inner atomic.Int32
						p.Map(5, func(int) { inner.Add(1) }) // nested: a round like any other
						if inner.Load() != 5 {
							t.Errorf("nested Map ran %d of 5 items", inner.Load())
						}
					}
				})
				for i := range hit {
					if hit[i] != 1 {
						t.Errorf("caller %d round %d n=%d: index %d visited %d times", g, round, n, i, hit[i])
						return
					}
				}
				if g == 0 && round%10 == 0 {
					p.Close()
				}
			}
		}(g)
	}
	wg.Wait()
}

// meet blocks until n callers have arrived — which takes n goroutines — and
// reports false if they have not within the timeout.
type meet struct {
	n       int32
	arrived atomic.Int32
	all     chan struct{}
}

func newMeet(n int) *meet { return &meet{n: int32(n), all: make(chan struct{})} }

func (m *meet) wait() bool {
	if m.arrived.Add(1) == m.n {
		close(m.all)
	}
	select {
	case <-m.all:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// TestMapCallersShareTheLenders: nobody loses the helpers for coming late.
// Two goroutines Map two items each on one 4-worker pool, and no item
// returns before all four have started: both rounds are in flight at once
// and each runs on more than one goroutine. The same for a Map issued from
// inside a Map's item. (A pool that runs a busy pool's late caller inline
// would park its first item waiting for the second.)
func TestMapCallersShareTheLenders(t *testing.T) {
	p := New(4)
	defer p.Close()
	four := newMeet(4)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Map(2, func(int) {
				if !four.wait() {
					t.Error("two concurrent Maps: their four items never ran at the same time")
				}
			})
		}()
	}
	wg.Wait()

	outer, inner := newMeet(2), newMeet(2)
	p.Map(2, func(i int) {
		if !outer.wait() {
			t.Error("outer Map ran its two items on one goroutine")
		}
		if i == 0 {
			p.Map(2, func(int) {
				if !inner.wait() {
					t.Error("nested Map ran its two items on one goroutine")
				}
			})
		}
	})
}

// TestCloseWithTasksQueued: Close with rounds still queued loses nothing —
// each completes in its poster's Wait — leaves no goroutine behind, and the
// next Map starts fresh workers.
func TestCloseWithTasksQueued(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(4)
	for r := 0; r < 50; r++ {
		var a, b Tasks
		hit := make([]int32, 40)
		mark := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hit[i], 1)
			}
		}
		p.Post(&a, 0, 20, 1, mark)
		p.Post(&b, 20, 40, 3, mark)
		p.Close()
		p.Wait(&b)
		p.Wait(&a)
		for i := range hit {
			if hit[i] != 1 {
				t.Fatalf("round %d: index %d ran %d times", r, i, hit[i])
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), base)
		}
	}
	both := newMeet(2)
	p.Map(2, func(int) {
		if !both.wait() {
			t.Error("no worker after Close: Map ran both items on the caller")
		}
	})
	p.Close()
}

// TestRoundHandOff: a round may be added to while it is open and waited for
// by a goroutine other than its poster, given a channel hand-off in between
// (the ingest front stage's shape: one goroutine posts a batch's groups as
// it cuts them, another waits for the batch).
func TestRoundHandOff(t *testing.T) {
	type batch struct {
		round Tasks
		hit   []int32
	}
	for _, workers := range []int{1, 3} {
		p := New(workers)
		out := make(chan *batch, 1)
		go func() {
			defer close(out)
			for r := 0; r < 200; r++ {
				b := &batch{hit: make([]int32, 1+r%37)}
				for lo := 0; lo < len(b.hit); lo += 5 {
					p.Post(&b.round, lo, min(lo+5, len(b.hit)), 2, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							b.hit[i]++ // owned by the task until the round is waited for
						}
					})
				}
				if !Send(p, out, b, nil) {
					return
				}
			}
		}()
		n := 0
		for b, ok := Recv(p, out); ok; b, ok = Recv(p, out) {
			p.Wait(&b.round)
			for i, h := range b.hit {
				if h != 1 {
					t.Fatalf("workers=%d batch %d: index %d ran %d times", workers, n, i, h)
				}
			}
			n++
		}
		if n != 200 {
			t.Fatalf("workers=%d: received %d of 200 batches", workers, n)
		}
		p.Close()
	}
}

// TestForEachClaimsEveryIndexOnce: every index runs exactly once for any
// worker count (0 = one per index, 1 = inline, n, more than n), and the
// error returned is the lowest failing index's however the host schedules.
func TestForEachClaimsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		for _, workers := range []int{0, 1, n, n + 5} {
			hit := make([]int32, n)
			err := New(1).ForEach(n, workers, func(i int) error {
				atomic.AddInt32(&hit[i], 1)
				if i%3 == 2 {
					return errors.New(string(rune('a' + i%26)))
				}
				return nil
			})
			for i := range hit {
				if hit[i] != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, hit[i])
				}
			}
			if n < 3 && err != nil {
				t.Fatalf("n=%d workers=%d: unexpected error %v", n, workers, err)
			}
			if n >= 3 && (err == nil || err.Error() != "c") {
				t.Fatalf("n=%d workers=%d: want index 2's error, got %v", n, workers, err)
			}
		}
	}
}

// TestPartitionPreservesOrder: each bucket's queue is exactly the inputs
// routed to it, in input order, with their positions — across reuse with
// growing and shrinking shapes.
func TestPartitionPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var p Partition[int64]
	for _, shape := range [][2]int{{0, 3}, {100, 4}, {1000, 7}, {10, 2}, {50, 1}} {
		n, buckets := shape[0], shape[1]
		in := make([]int64, n)
		route := make([]int, n)
		for i := range in {
			in[i], route[i] = rng.Int63(), rng.Intn(buckets)
		}
		p.Split(n, buckets, func(i int) int { return route[i] }, func(i int) int64 { return in[i] })
		if len(p.Queues) != buckets || len(p.Pos) != buckets {
			t.Fatalf("%v: %d queues, %d pos", shape, len(p.Queues), len(p.Pos))
		}
		for b := 0; b < buckets; b++ {
			var wantQ []int64
			var wantPos []int
			for i := range in {
				if route[i] == b {
					wantQ, wantPos = append(wantQ, in[i]), append(wantPos, i)
				}
			}
			if !slices.Equal(p.Queues[b], wantQ) || !slices.Equal(p.Pos[b], wantPos) {
				t.Fatalf("%v bucket %d: got %v at %v, want %v at %v", shape, b, p.Queues[b], p.Pos[b], wantQ, wantPos)
			}
		}
	}
}

// TestPostWaitCoversEveryIndex: every index of every round runs exactly
// once before Wait returns, for rounds smaller than, equal to and larger
// than the task queue, one of them posted in two halves (added to while
// open), with the poster alone (the round runs in its Wait, on no other
// goroutine), with ForEach workers lending and with the pool's own workers.
func TestPostWaitCoversEveryIndex(t *testing.T) {
	for _, c := range []struct{ workers, lenders int }{{1, 0}, {1, 1}, {1, 3}, {4, 0}} {
		p := New(c.workers)
		_ = p.ForEach(1+c.lenders, 0, func(w int) error {
			if w != 0 {
				return nil // no index left: lend
			}
			before := runtime.NumGoroutine()
			var a, b Tasks
			for _, n := range []int{0, 1, 7, 64, 5 * taskQueue} {
				hitA, hitB := make([]int32, n), make([]int32, n)
				mark := func(hit []int32) func(lo, hi int) {
					return func(lo, hi int) {
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&hit[i], 1)
						}
					}
				}
				p.Post(&a, 0, n/2, 3, mark(hitA)) // two rounds in flight at once
				p.Post(&b, 0, n, 1, mark(hitB))
				p.Post(&a, n/2, n, 3, mark(hitA))
				p.Wait(&b)
				p.Wait(&a)
				p.Wait(&a) // no round open: returns at once
				for i := 0; i < n; i++ {
					if hitA[i] != 1 || hitB[i] != 1 {
						t.Errorf("%+v n=%d: index %d ran %d and %d times", c, n, i, hitA[i], hitB[i])
					}
				}
			}
			if c.workers == 1 && c.lenders == 0 && runtime.NumGoroutine() > before {
				t.Errorf("a lone poster started goroutines: %d, %d before", runtime.NumGoroutine(), before)
			}
			return nil
		})
		p.Close()
	}
}

// TestForEachWorkersLend: a worker with no index left runs posted tasks
// until the last index finishes — here index 0 never runs a task itself
// (it blocks until its round is done elsewhere), so only a lender can.
func TestForEachWorkersLend(t *testing.T) {
	p := New(1)
	var ran atomic.Int32
	err := p.ForEach(2, 2, func(i int) error {
		if i == 1 {
			return nil
		}
		var ts Tasks
		done := make(chan struct{})
		p.Post(&ts, 0, 4, 1, func(lo, hi int) {
			if ran.Add(1) == 4 {
				close(done)
			}
		})
		<-done
		p.Wait(&ts)
		return nil
	})
	if err != nil || ran.Load() != 4 {
		t.Fatalf("err %v, %d of 4 tasks ran", err, ran.Load())
	}
}

// TestWriteFrontTaskPanic: a panic inside a task — a posted round's or a
// Map's item — is parked wherever the task ran — on a goroutine lending
// itself (a ForEach worker, a pool worker), which must survive it, or in the
// poster's own Wait — and re-raised on the goroutine that posted it, after
// the rest of the round has run. Many rounds, so every placement occurs.
func TestWriteFrontTaskPanic(t *testing.T) {
	const rounds = 200
	for _, workers := range []int{1, 4} {
		p := New(workers)
		var raised, ranRest atomic.Int32
		boom := func(lo, hi int) {
			if lo == 3 {
				panic("boom")
			}
			ranRest.Add(1)
		}
		err := p.ForEach(3, 3, func(w int) error {
			if w != 0 {
				return nil
			}
			for r := 0; r < 2*rounds; r++ {
				func() {
					defer func() {
						if v := recover(); v == "boom" {
							raised.Add(1)
						} else if v != nil {
							panic(v)
						}
					}()
					if r%2 == 0 {
						var ts Tasks
						p.Post(&ts, 0, 8, 1, boom)
						p.Wait(&ts)
					} else {
						p.Map(8, func(i int) { boom(i, i+1) })
					}
					t.Error("a round with a panicked task returned normally")
				}()
			}
			return nil
		})
		p.Close()
		rest := int32(14 * rounds)
		if workers == 1 {
			rest = 10 * rounds // an inline Map is a plain loop: it stops at the panic
		}
		if err != nil || raised.Load() != 2*rounds || ranRest.Load() != rest {
			t.Fatalf("workers=%d, err %v: %d of %d panics re-raised on the poster, %d of %d other tasks ran",
				workers, err, raised.Load(), 2*rounds, ranRest.Load(), rest)
		}
	}
}

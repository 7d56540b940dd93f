// Package parallel provides the persistent worker pool the data plane
// fans real computation out on. It exists for wall-clock speed only: the
// simulated virtual clock never depends on how many goroutines executed
// the work, so callers are free to size the pool to the host (the paper's
// "keep up with the storage device" argument applied to the reproduction
// itself).
//
// A Pool's goroutines are started lazily on the first Map call and live
// until Close, so per-batch fan-out does not pay goroutine creation. Work
// distribution is deliberately low-overhead: a Map publishes one job
// (fn, n) and wakes the workers, and every participant — workers and the
// calling goroutine alike — claims contiguous index batches off a shared
// atomic counter until the range is exhausted. Steady-state Map calls
// allocate nothing and perform no per-task channel operations (one
// buffered-channel token per woken worker per Map, not per index), so the
// pool stays profitable even at 4 KB-chunk granularity, where a
// closure-per-span dispatch spends a measurable share of its time in the
// scheduler and the allocator.
//
// Beside the pool sit the pieces every batch tier above the volume shares:
// ForEach (workers claim WHOLE indices — one shard or node each — off an
// atomic counter; one with no index left runs the pure tasks an index has
// published with Post) and Partition (an order-preserving count-then-fill
// split of a batch into per-child queues). A batch call is validate →
// Partition → ForEach over the children → merge.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"inlinered/internal/metrics"
)

// grainShards is how many claimable batches each worker's fair share is
// split into: small enough that an unlucky worker stuck with expensive
// items sheds load to the others, large enough that the atomic counter is
// not contended per item.
const grainShards = 4

// taskQueue is how many posted tasks may wait for a taker before Post runs
// the next one itself. A shard drain keeps at most a dozen in flight
// (volume.WriteBatch), so 64 covers five drains on one pool.
const taskQueue = 64

// Pool is a fixed-size persistent worker pool. The zero value is not
// usable; build one with New. A Pool with one worker runs everything
// inline on the calling goroutine, which keeps Parallelism=1 runs strictly
// single-threaded (useful for determinism baselines).
//
// Map is safe for concurrent callers: one caller at a time fans out over
// the workers, and a caller that finds the pool busy (including an fn that
// calls Map on its own pool) runs its items inline on its own goroutine.
// So several batches may share one pool; the late ones just lose the
// helpers, never correctness.
type Pool struct {
	workers int

	// mu is held by the one Map that owns the workers, and by Close — which
	// therefore waits for a fan-out in flight before stopping them.
	mu sync.Mutex

	// The published job. Written by Map before the wake tokens are sent
	// and read by workers only while holding one, so the channel provides
	// the happens-before edges; valid until Map returns.
	fn    func(int)
	n     int
	grain int
	pubNS int64        // metrics.Clock() at publish time, -1 when metrics are off
	next  atomic.Int64 // next unclaimed index
	out   atomic.Int64 // woken workers that have not yet checked out

	wake chan struct{} // one token per woken worker per Map; nil while stopped
	done chan struct{} // signaled by the last worker to check out

	tasks chan task // posted tasks waiting for a taker; never closed
}

// New returns a pool with the given number of workers; workers <= 0 means
// runtime.NumCPU(). Worker goroutines are not started until first use.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers, done: make(chan struct{}, 1), tasks: make(chan task, taskQueue)}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// launch starts the worker goroutines. Caller holds p.mu.
func (p *Pool) launch() {
	wake := make(chan struct{}, p.workers)
	p.wake = wake
	for w := 0; w < p.workers-1; w++ {
		// Counter slot w+1; the calling goroutine records on slot 0.
		slot := w + 1
		go func() {
			// End of this worker's previous busy window, or -1 when
			// metrics were off then. Idle time is measured from there to
			// the next wake-up this worker services.
			idleFrom := int64(-1)
			for range wake {
				start := int64(-1)
				if p.pubNS >= 0 {
					start = metrics.Clock()
				}
				if start >= 0 {
					metrics.PoolClaimWait.Observe(start - p.pubNS)
					if idleFrom >= 0 {
						metrics.PoolIdle.AddAt(slot, start-idleFrom)
					}
				}
				p.run()
				idleFrom = -1
				if start >= 0 {
					if end := metrics.Clock(); end >= 0 {
						metrics.PoolBusy.AddAt(slot, end-start)
						idleFrom = end
					}
				}
				if p.out.Add(-1) == 0 {
					p.done <- struct{}{}
				}
			}
		}()
	}
}

// run claims contiguous index batches until the job's range is exhausted.
func (p *Pool) run() {
	fn, n, grain := p.fn, p.n, p.grain
	record := p.pubNS >= 0
	for {
		lo := int(p.next.Add(int64(grain))) - grain
		if lo >= n {
			return
		}
		hi := lo + grain
		if hi > n {
			hi = n
		}
		if record {
			metrics.PoolBatchSize.Observe(int64(hi - lo))
		}
		for i := lo; i < hi; i++ {
			fn(i)
		}
	}
}

// Map runs fn(i) for every i in [0, n) and returns when all calls have
// completed. The calling goroutine always participates, so a W-worker pool
// uses exactly W threads; workers are woken only when there are enough
// batches to share. fn must be safe to call concurrently for distinct
// indices and must only write state owned by its own index.
func (p *Pool) Map(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p.workers <= 1 || n == 1 || !p.mu.TryLock() {
		start := metrics.Clock()
		for i := 0; i < n; i++ {
			fn(i)
		}
		if start >= 0 {
			metrics.PoolMapCalls.Add(1)
			metrics.PoolItems.Add(int64(n))
			metrics.PoolBusy.AddSince(0, start)
		}
		return
	}
	defer p.mu.Unlock()
	if p.wake == nil {
		p.launch()
	}
	grain := n / (p.workers * grainShards)
	if grain < 1 {
		grain = 1
	}
	// Never wake more workers than there are batches beyond the caller's
	// own first claim; surplus wake-ups would only bounce off the counter.
	helpers := p.workers - 1
	if max := (n+grain-1)/grain - 1; helpers > max {
		helpers = max
	}
	// pubNS rides to the workers with the job fields: the wake channel's
	// happens-before edge covers it, and a -1 (metrics off at publish)
	// suppresses every clock read this Map would otherwise cause.
	p.fn, p.n, p.grain, p.pubNS = fn, n, grain, metrics.Clock()
	if p.pubNS >= 0 {
		metrics.PoolMapCalls.Add(1)
		metrics.PoolItems.Add(int64(n))
	}
	p.next.Store(0)
	if helpers > 0 {
		p.out.Store(int64(helpers))
		for i := 0; i < helpers; i++ {
			p.wake <- struct{}{}
		}
	}
	p.run()
	metrics.PoolBusy.AddSince(0, p.pubNS)
	if helpers > 0 {
		// Wait for every woken worker to check out: the job fields above
		// are reused by the next Map, and completion of all fn calls is
		// exactly "all participants returned from run".
		<-p.done
	}
	p.fn = nil
}

// Close stops the worker goroutines after any fan-out in flight has
// finished. It is idempotent, safe on a pool whose workers never started,
// and leaves the pool usable: a later Map starts fresh workers.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
	}
}

// Tasks tracks one round of posted tasks at a time: Post opens a round,
// Wait closes it. It belongs to the goroutine that posts and waits.
type Tasks struct {
	open     bool
	pending  atomic.Int32
	done     chan struct{}       // one token per round, from whoever finishes its last task
	panicked atomic.Pointer[any] // a task's panic, re-raised by Wait
}

// task is one posted index range.
type task struct {
	fn     func(lo, hi int)
	lo, hi int
	t      *Tasks
}

// run parks a panic, so the round still completes and a lender survives.
func (tk task) run() {
	defer func() {
		if r := recover(); r != nil {
			v := r // escapes: allocated here, on the panic path only
			tk.t.panicked.CompareAndSwap(nil, &v)
		}
		if tk.t.pending.Add(-1) == 0 {
			tk.t.done <- struct{}{}
		}
	}()
	tk.fn(tk.lo, tk.hi)
}

// Post publishes fn over [lo, hi), grain indices to a task, for any
// goroutine lending itself to p — the poster's own Wait included — and
// returns without waiting. fn must be pure computation on state owned by
// its indices: no lock, nothing that blocks. t's last round must be closed.
func (p *Pool) Post(t *Tasks, lo, hi, grain int, fn func(lo, hi int)) {
	if hi <= lo {
		return
	}
	if t.done == nil {
		t.done = make(chan struct{}, 1)
	}
	t.open = true
	t.pending.Store(int32((hi - lo + grain - 1) / grain))
	for ; lo < hi; lo += grain {
		tk := task{fn, lo, min(lo+grain, hi), t}
		select {
		case p.tasks <- tk:
		default:
			tk.run()
		}
	}
}

// Wait returns once every task of t's open round has run (at once when
// none is open), running posted tasks — anyone's — while it waits, so with
// nobody lending the round simply runs here. It re-raises a parked panic.
func (p *Pool) Wait(t *Tasks) {
	if !t.open {
		return
	}
	t.open = false
	p.lend(t.done)
	if v := t.panicked.Swap(nil); v != nil {
		panic(*v)
	}
}

// lend runs posted tasks until stop is ready.
func (p *Pool) lend(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case tk := <-p.tasks:
			tk.run()
		}
	}
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 means one per index), the caller among them, and returns
// the lowest-index error. Each worker claims WHOLE indices off an atomic
// counter, so every index runs exactly once, on one goroutine, start to
// finish — scheduling decides only when an index runs, never what it does.
// A worker that finds no index left runs the tasks posted on p until the
// last index has finished.
func (p *Pool) ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	// One escaping variable, not one per field: a batch call allocates it once.
	var s struct {
		next, claiming atomic.Int64 // next unclaimed index; workers still claiming
		mu             sync.Mutex
		first          error
		firstI         int
		wg             sync.WaitGroup
	}
	s.firstI = n
	finished := make(chan struct{}) // closed when the last claimer runs out
	drain := func() {
		defer s.wg.Done()
		for i := int(s.next.Add(1)) - 1; i < n; i = int(s.next.Add(1)) - 1 {
			if err := fn(i); err != nil {
				s.mu.Lock()
				if i < s.firstI {
					s.first, s.firstI = err, i
				}
				s.mu.Unlock()
			}
		}
		if s.claiming.Add(-1) == 0 {
			close(finished)
		}
		p.lend(finished)
	}
	s.claiming.Store(int64(workers))
	s.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go drain()
	}
	drain()
	s.wg.Wait()
	return s.first
}

// Partition is a reusable order-preserving split of a batch of n inputs
// into per-bucket queues: bucket b's queue holds exactly the inputs routed
// to b, in input order. Split counts, carves exact-size queues out of one
// backing array, then fills — no queue ever regrows — and the buffers
// survive from one Split to the next.
type Partition[T any] struct {
	// Queues[b] is bucket b's items and Pos[b][k] the input index that
	// Queues[b][k] came from. Both alias the partition's buffers and are
	// valid until the next Split.
	Queues [][]T
	Pos    [][]int

	bucket []int32 // input -> bucket, kept from the count pass for the fill
	end    []int   // per-bucket fill cursor
	items  []T
	pos    []int
}

// Split partitions inputs 0..n-1 over buckets queues. route(i) names input
// i's bucket and item(i) the value queued for it; each is called once per
// input, in input order.
func (p *Partition[T]) Split(n, buckets int, route func(i int) int, item func(i int) T) {
	if cap(p.end) < buckets {
		p.Queues = make([][]T, buckets)
		p.Pos = make([][]int, buckets)
		p.end = make([]int, buckets)
	}
	if cap(p.items) < n {
		p.bucket = make([]int32, n)
		p.items = make([]T, n)
		p.pos = make([]int, n)
	}
	p.Queues, p.Pos = p.Queues[:buckets], p.Pos[:buckets]
	bucket, end, items, pos := p.bucket[:n], p.end[:buckets], p.items[:n], p.pos[:n]
	clear(end)
	for i := range bucket {
		b := route(i)
		bucket[i] = int32(b)
		end[b]++
	}
	// Counts become start offsets; the fill advances each to its bucket's end.
	off := 0
	for b, c := range end {
		end[b] = off
		off += c
	}
	for i, b := range bucket {
		k := end[b]
		items[k], pos[k] = item(i), i
		end[b]++
	}
	lo := 0
	for b, hi := range end {
		p.Queues[b], p.Pos[b] = items[lo:hi:hi], pos[lo:hi:hi]
		lo = hi
	}
}

// Package parallel is how the data plane gets real computation onto other
// goroutines. It exists for wall-clock speed only: the simulated virtual
// clock never depends on which goroutine executed the work, so callers are
// free to size the pool to the host (the paper's "keep up with the storage
// device" argument applied to the reproduction itself).
//
// There is one mechanism: a Pool is a bounded queue of posted tasks — an
// index range and the function to run over it — and a task is run by whoever
// is lending itself to the queue at the time: the pool's workers-1
// goroutines (started on first use, parked on the queue until Close), every
// goroutine waiting on the pool (Wait, Recv, Send), every ForEach worker
// that has run out of indices, and the poster itself when the queue is
// full. So workers bounds the goroutines the pool owns, not who may compute:
// hash groups, encodes and decodes posted by different callers share one
// population, and correctness never depends on a worker existing — with
// nobody else lending, a round runs in its poster's Wait. Map is one posted
// round plus that Wait, allocation-free in steady state.
//
// A task must be pure computation on state owned by its index range. It must
// not wait for anything a lender could be holding — a shard lock, a channel,
// a round other than one it posted itself — because the goroutine that picks
// it up may be the holder (a nested Map is fine: its Wait lends; so is a
// leaf mutex around a free list).
//
// Beside the pool sit the pieces every batch tier above the volume shares:
// ForEach (workers claim WHOLE indices — one shard or node each — off an
// atomic counter, on goroutines of their own because an index takes locks)
// and Partition (an order-preserving count-then-fill split of a batch into
// per-child queues). A batch call is validate → Partition → ForEach over
// the children → merge.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"inlinered/internal/metrics"
)

// grainShards is how many tasks each worker's fair share of a Map is split
// into: small enough that an unlucky lender stuck with expensive items
// sheds load to the others, large enough that the queue is not contended
// per item.
const grainShards = 4

// taskQueue is how many posted tasks may wait for a taker before Post runs
// the next one itself. A shard drain keeps at most a dozen in flight
// (volume.WriteBatch), an ingest two batches of hash groups and a Map four
// per worker. Neighbouring values tried: CHANGES.md, PR 18 and PR 19.
const taskQueue = 64

// Pool is a task queue and the workers-1 goroutines parked on it. The zero
// value is not usable; build one with New. A Pool with one worker owns no
// goroutine: Map runs inline on the caller and posted rounds run in their
// posters' Wait (or on ForEach workers), which keeps Parallelism=1 runs
// strictly single-threaded. Every method is safe for concurrent callers.
type Pool struct {
	workers int
	tasks   chan task // posted tasks waiting for a taker; never closed

	mu   sync.Mutex
	quit chan struct{} // closed by Close; nil while no worker is running
}

// New returns a pool with the given number of workers; workers <= 0 means
// runtime.NumCPU(). Worker goroutines are not started until first use.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers, tasks: make(chan task, taskQueue)}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// start launches the workers if none is running.
func (p *Pool) start() {
	if p.workers <= 1 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.quit == nil {
		p.quit = make(chan struct{})
		for w := 1; w < p.workers; w++ {
			go recv(p, p.quit, w) // counter slot w; every other lender records on slot 0
		}
	}
}

// Close stops the worker goroutines; one in the middle of a task finishes
// it first. Tasks still queued run in their posters' Wait. It is idempotent,
// safe on a pool whose workers never started, and leaves the pool usable: a
// later Post or Map starts fresh workers.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.quit != nil {
		close(p.quit)
		p.quit = nil
	}
}

// Map runs fn(i) for every i in [0, n) and returns when all calls have
// completed: one round of tasks of n/(4·workers) indices each, and the
// caller lends itself until the round is done. fn must be safe to call
// concurrently for distinct indices and must only write state owned by its
// own index. A panic in fn is re-raised here once the round has run.
func (p *Pool) Map(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	start := metrics.Clock()
	if start >= 0 {
		metrics.PoolMapCalls.Add(1)
		metrics.PoolItems.Add(int64(n))
	}
	if p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		metrics.PoolBusy.AddSince(0, start)
		return
	}
	t := mapRounds.Get().(*Tasks)
	p.post(t, 0, n, max(n/(p.workers*grainShards), 1), nil, fn)
	p.Wait(t)
	mapRounds.Put(t)
}

// mapRounds recycles Map's rounds, so a steady-state Map allocates nothing.
var mapRounds = sync.Pool{New: func() any { return new(Tasks) }}

// Tasks tracks one round of posted tasks at a time: the first Post opens a
// round, later ones add to it, Wait closes it. One goroutine at a time owns
// it — the poster, or whoever the poster handed the round to (through a
// channel, say) once it had posted the last task.
type Tasks struct {
	open     bool
	pending  atomic.Int32        // tasks not yet run, plus one while the round is open
	done     chan struct{}       // one token per round, from whoever finishes its last task after Wait began
	panicked atomic.Pointer[any] // a task's panic, re-raised by Wait
}

// task is one posted index range: fn over all of it, or each over every
// index (Map's form — the caller's func rides along, no closure per call).
type task struct {
	fn     func(lo, hi int)
	each   func(int)
	lo, hi int
	t      *Tasks
	posted int64 // metrics.Clock() at Post; -1 (metrics off) suppresses every clock read
}

// run executes the task on counter slot slot and returns when it started
// and ended on the metrics clock (-1: not recorded). A panic is parked, so
// the round still completes and a lender survives.
func (tk task) run(slot int) (start, end int64) {
	start, end = -1, -1
	if tk.posted >= 0 {
		if start = metrics.Clock(); start >= 0 {
			metrics.PoolClaimWait.Observe(start - tk.posted)
			metrics.PoolBatchSize.Observe(int64(tk.hi - tk.lo))
		}
	}
	defer func() {
		if r := recover(); r != nil {
			v := r // escapes: allocated here, on the panic path only
			tk.t.panicked.CompareAndSwap(nil, &v)
		}
		if start >= 0 {
			if end = metrics.Clock(); end >= 0 {
				metrics.PoolBusy.AddAt(slot, end-start)
			}
		}
		if tk.t.pending.Add(-1) == 0 {
			tk.t.done <- struct{}{}
		}
	}()
	if tk.each == nil {
		tk.fn(tk.lo, tk.hi)
		return
	}
	for i := tk.lo; i < tk.hi; i++ {
		tk.each(i)
	}
	return
}

// Post publishes fn over [lo, hi), grain indices to a task, for any
// goroutine lending itself to p — the poster's own Wait included — and
// returns without waiting. fn must be pure computation on state owned by
// its indices (see the package comment for what a task may not do).
func (p *Pool) Post(t *Tasks, lo, hi, grain int, fn func(lo, hi int)) {
	p.post(t, lo, hi, grain, fn, nil)
}

// post is Post for either form of task.
func (p *Pool) post(t *Tasks, lo, hi, grain int, fn func(lo, hi int), each func(int)) {
	if hi <= lo {
		return
	}
	if !t.open {
		if t.done == nil {
			t.done = make(chan struct{}, 1)
		}
		t.open = true
		t.pending.Add(1) // the open round itself: no task can be the last until Wait
	}
	t.pending.Add(int32((hi - lo + grain - 1) / grain))
	p.start()
	posted := metrics.Clock()
	for ; lo < hi; lo += grain {
		tk := task{fn, each, lo, min(lo+grain, hi), t, posted}
		select {
		case p.tasks <- tk:
		default:
			tk.run(0)
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
	if t.pending.Add(-1) != 0 {
		Recv(p, t.done)
	}
	if v := t.panicked.Swap(nil); v != nil {
		panic(*v)
	}
}

// Recv receives from c, running posted tasks until a value is ready (or c
// is closed): what a goroutine does instead of blocking on a stage that the
// tasks may be feeding.
func Recv[T any](p *Pool, c <-chan T) (T, bool) { return recv(p, c, 0) }

// recv is Recv on counter slot slot; a pool worker (slot > 0) also records
// the time between its tasks as idle.
func recv[T any](p *Pool, c <-chan T, slot int) (v T, ok bool) {
	idleFrom := int64(-1)
	for {
		select {
		case v, ok = <-c:
			return v, ok
		case tk := <-p.tasks:
			start, end := tk.run(slot)
			if slot > 0 && idleFrom >= 0 && start >= 0 {
				metrics.PoolIdle.AddAt(slot, start-idleFrom)
			}
			idleFrom = end
		}
	}
}

// Send sends v on c, running posted tasks while c is full. It gives up and
// reports false once stop is ready.
func Send[T any](p *Pool, c chan<- T, v T, stop <-chan struct{}) bool {
	for {
		select {
		case c <- v:
			return true
		case <-stop:
			return false
		case tk := <-p.tasks:
			tk.run(0)
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
		Recv(p, finished)
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

package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Pool is a k-server resource on the virtual clock: a CPU with k hardware
// threads, a GPU command queue (k=1), or an SSD channel set. Jobs are placed
// on the earliest-free server in arrival order. Pool is not safe for
// concurrent use; the simulation driver is single-threaded by design so runs
// are exactly reproducible.
type Pool struct {
	name    string
	free    freeHeap // next-free time per server
	busy    time.Duration
	gap     time.Duration // arrival-after-free idle committed by Acquire
	jobs    int64
	horizon time.Duration // latest completion time scheduled so far
	last    int           // server that received the most recent Acquire
}

// NewPool returns a Pool with k servers, all free at virtual time 0.
// It panics if k < 1.
func NewPool(name string, k int) *Pool {
	if k < 1 {
		panic(fmt.Sprintf("sim: pool %q needs at least one server, got %d", name, k))
	}
	p := &Pool{name: name, free: make(freeHeap, k)}
	for i := range p.free {
		p.free[i].id = i
	}
	heap.Init(&p.free)
	return p
}

// Name returns the label the pool was created with.
func (p *Pool) Name() string { return p.name }

// Servers returns the number of servers in the pool.
func (p *Pool) Servers() int { return len(p.free) }

// Acquire schedules a job that arrives at virtual time at and needs service
// time d. It returns the job's start and completion times. A zero or
// negative d occupies the server for no time but still respects queueing
// (start may be later than at).
func (p *Pool) Acquire(at, d time.Duration) (start, end time.Duration) {
	if d < 0 {
		d = 0
	}
	start = max(at, p.free[0].free)
	if at > p.free[0].free {
		p.gap += at - p.free[0].free
	}
	end = start + d
	p.last = p.free[0].id
	p.free[0].free = end
	heap.Fix(&p.free, 0)
	p.busy += d
	p.jobs++
	if end > p.horizon {
		p.horizon = end
	}
	return start, end
}

// NextFree reports when the earliest server becomes free.
func (p *Pool) NextFree() time.Duration { return p.free[0].free }

// LastServer reports which server (0-based, stable across the pool's life)
// received the most recent Acquire. The observability layer uses it to place
// each committed job on the timeline lane of the server that ran it.
func (p *Pool) LastServer() int { return p.last }

// Backlog reports how far behind the pool is at virtual time at: zero when a
// server is idle, otherwise the wait a new arrival would experience.
func (p *Pool) Backlog(at time.Duration) time.Duration {
	if p.free[0].free <= at {
		return 0
	}
	return p.free[0].free - at
}

// Saturated reports whether every server is busy past virtual time at. The
// integrated pipeline uses this as the paper's "CPU utilization is full"
// signal when deciding whether to offload indexing to the GPU.
func (p *Pool) Saturated(at time.Duration) bool {
	return p.free[0].free > at
}

// Horizon reports the latest completion time scheduled so far.
func (p *Pool) Horizon() time.Duration { return p.horizon }

// GapTime reports idle time committed because jobs arrived after the
// earliest server freed (dependency bubbles).
func (p *Pool) GapTime() time.Duration { return p.gap }

// BusyTime reports the total server-busy virtual time accumulated so far.
func (p *Pool) BusyTime() time.Duration { return p.busy }

// Jobs reports how many jobs have been scheduled.
func (p *Pool) Jobs() int64 { return p.jobs }

// Utilization reports mean server utilization in [0,1] over the window from
// time 0 to the given end time (typically the pipeline completion time).
func (p *Pool) Utilization(until time.Duration) float64 {
	if until <= 0 {
		return 0
	}
	return p.busy.Seconds() / (until.Seconds() * float64(len(p.free)))
}

// Reset returns every server to free-at-0 and clears statistics.
func (p *Pool) Reset() {
	for i := range p.free {
		p.free[i].free = 0
	}
	heap.Init(&p.free)
	p.busy, p.gap, p.jobs, p.horizon, p.last = 0, 0, 0, 0, 0
}

// serverSlot is one server's next-free time plus its stable identity (used
// for trace lanes). Ties break by id so server assignment is deterministic.
type serverSlot struct {
	free time.Duration
	id   int
}

// freeHeap is a min-heap of per-server next-free times.
type freeHeap []serverSlot

func (h freeHeap) Len() int { return len(h) }
func (h freeHeap) Less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].id < h[j].id
}
func (h freeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *freeHeap) Push(x interface{}) { *h = append(*h, x.(serverSlot)) }
func (h *freeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

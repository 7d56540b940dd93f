package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkPoolMap measures the pool's dispatch overhead at the engine's
// working grain: one Map per 1024-item batch with a near-free body, so
// ns/op is almost pure coordination cost (a queue send and receive per
// task, the round's countdown, parking and unparking the lenders). The x2
// case runs two callers on one pool at once, each timing b.N Maps: what a
// second shard or cluster node batch-reading on a shared pool pays. Steady
// state must report 0 allocs/op — the alloc guard is
// TestMapZeroAllocSteadyState; this benchmark tracks the time side.
func BenchmarkPoolMap(b *testing.B) {
	for _, bc := range []struct {
		name                string
		workers, n, callers int
	}{
		{"w1n1024", 1, 1024, 1},
		{"w4n1024", 4, 1024, 1},
		{"w4n64", 4, 64, 1},
		{"w4n1024x2", 4, 1024, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := New(bc.workers)
			defer p.Close()
			var sink atomic.Int64
			fn := func(i int) { sink.Add(1) }
			p.Map(bc.n, fn) // warm-up
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 1; c < bc.callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						p.Map(bc.n, fn)
					}
				}()
			}
			for i := 0; i < b.N; i++ {
				p.Map(bc.n, fn)
			}
			wg.Wait()
			b.StopTimer()
			if got, want := sink.Load(), int64((bc.callers*b.N+1)*bc.n); got != want {
				b.Fatalf("executed %d items, want %d", got, want)
			}
		})
	}
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Times are nanoseconds since
// the tracer started.
type span struct {
	name       string
	start, end int64
	parent     int32 // id of the span that caused this one, -1 for a root
	root       int32 // id of the workload-root span, shared by one request's spans
	lane       int32 // goroutine that made the call: 0 is the driving one
}

func (s span) dur() int64 { return s.end - s.start }

// noSpan is the parent of a root span.
const noSpan = int32(-1)

// tracer keeps spans in memory until the run ends. Lane 0 belongs to the
// goroutine driving the run and is the only lane whose spans may be parents,
// so their ids (their index in lane 0) are final as soon as they are
// recorded; each worker goroutine appends to a lane of its own without
// locking.
type tracer struct {
	t0    time.Time
	lanes [][]span
}

func newTracer(workers int) *tracer {
	return &tracer{t0: time.Now(), lanes: make([][]span, workers+1)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span on lane 0 and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	root := int32(len(t.lanes[0]))
	if parent != noSpan {
		root = t.lanes[0][parent].root
	}
	t.lanes[0] = append(t.lanes[0], span{name: name, start: t.now(), parent: parent, root: root})
	return int32(len(t.lanes[0]) - 1)
}

// end closes a span opened with begin and returns its duration in seconds.
func (t *tracer) end(id int32) float64 {
	s := &t.lanes[0][id]
	s.end = t.now()
	return float64(s.dur()) / 1e9
}

// timed records one completed call on lane 0 and returns its duration in
// seconds.
func (t *tracer) timed(name string, parent int32, fn func()) float64 {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// leaf records a completed span on a worker's lane (1-based) under a lane-0
// parent.
func (t *tracer) leaf(lane int, name string, parent int32, start, end int64) {
	t.lanes[lane] = append(t.lanes[lane], span{
		name: name, start: start, end: end, parent: parent, root: t.lanes[0][parent].root, lane: int32(lane),
	})
}

// fanout runs fn(i) for i in [0,n) on workers goroutines, which claim
// contiguous blocks of block indexes from a shared counter; each block is
// one span named name under parent. It returns the wall time of the whole
// fan-out and the busy time summed over the blocks, in seconds. With one
// worker everything runs on the calling goroutine.
func (t *tracer) fanout(name string, parent int32, workers, n, block int, fn func(i int)) (wall, busy float64) {
	leg := t.begin(fmt.Sprintf("%s@%d", name, workers), parent)
	var next atomic.Int64
	var busyNS atomic.Int64
	body := func(lane int) {
		for {
			lo := int(next.Add(int64(block))) - block
			if lo >= n {
				return
			}
			hi := min(lo+block, n)
			start := t.now()
			for i := lo; i < hi; i++ {
				fn(i)
			}
			end := t.now()
			t.leaf(lane, name, leg, start, end)
			busyNS.Add(end - start)
		}
	}
	if workers <= 1 {
		body(1)
	} else {
		var wg sync.WaitGroup
		for w := 1; w <= workers; w++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				body(lane)
			}(w)
		}
		wg.Wait()
	}
	return t.end(leg), float64(busyNS.Load()) / 1e9
}

// spans flattens the lanes: lane 0 first, so parent ids stay valid.
func (t *tracer) spans() []span {
	var all []span
	for _, l := range t.lanes {
		all = append(all, l...)
	}
	return all
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover (children are clipped to the
// parent and their overlaps counted once), in nanoseconds.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent != noSpan {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		ks := kids[int32(i)]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		var covered int64
		edge := s.start // everything before edge is already counted
		for _, k := range ks {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// write stores the spans as Chrome trace-event JSON (open it in Perfetto or
// chrome://tracing): complete events, one thread per lane, with each span's
// id, parent and workload-root id in args.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	fmt.Fprintf(w, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":%q}}", "benchmark "+workload)
	for i, s := range t.spans() {
		fmt.Fprintf(w, ",\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"root\":%d}}",
			s.name, s.lane, float64(s.start)/1e3, float64(s.dur())/1e3, i, s.parent, s.root)
	}
	fmt.Fprintf(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

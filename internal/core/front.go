package core

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"inlinered/internal/chunk"
	"inlinered/internal/dedup"
	"inlinered/internal/metrics"
)

// frontGroup is how many consecutive chunks one hash job covers, frontQueue
// how many jobs may wait before the chunking goroutine hashes the next one
// itself. Measured on the 2-thread benchmark host (8 MiB of Gear chunks,
// 15 ms a round): groups of 1–128 and depths of 2–32 are within noise of
// each other, a job per batch loses the overlap (24 ms); 64 × 8 keeps the
// channel traffic and the run-ahead small without being near either edge.
const (
	frontGroup = 64
	frontQueue = 8
)

// front is the free-running head of the pipeline: Figure 1's chunk+hash box,
// which depends on nothing downstream. One goroutine owns the reader and the
// chunker and cuts the stream into batches; every frontGroup chunks become a
// hash job for whichever goroutine is free — the Parallelism-2 dedicated
// hashers, the commit goroutine whenever it would otherwise block on this
// stage, the chunking goroutine itself when the queue is full or the stream
// has ended. So Parallelism goroutines do real work, and with Parallelism 1
// (work and out nil) the same code runs inline on the caller.
//
// The stage touches no virtual time, report, journal, index or recorder: it
// produces chunk bytes and fingerprints, a pure function of the stream, and
// the commit goroutine takes batches strictly in order. It runs at most two
// batches ahead of it: one queued in out, one being cut.
type front struct {
	ck       chunk.Chunker
	batch    int
	work     chan hashJob
	out      chan *hashedBatch   // cut batches in stream order; closed with err set
	err      error               // why the stream ended: io.EOF or the reader's error
	stop     chan struct{}       // closed by close: Process is returning
	panicked atomic.Pointer[any] // a stage goroutine's panic, re-raised by await
	wg       sync.WaitGroup
}

// hashJob is one group of a batch's chunks and the slots for their
// fingerprints (slices of its own: the batch's are still being appended to).
type hashJob struct {
	chunks [][]byte
	fps    []dedup.Fingerprint
	hb     *hashedBatch
}

var errFrontStopped = errors.New("core: front stage stopped")

// stopReader fails the chunker's next Read once the stage is stopped, so a
// cancelled stage outlives Process by at most the Read in flight.
type stopReader struct {
	r    io.Reader
	stop <-chan struct{}
}

func (s stopReader) Read(p []byte) (int, error) {
	select {
	case <-s.stop:
		return 0, errFrontStopped
	default:
		return s.r.Read(p)
	}
}

// newFront starts the stage over r: Parallelism-1 goroutines, the first of
// which cuts the stream before it joins the others hashing.
func (e *Engine) newFront(r io.Reader) *front {
	f := &front{batch: e.cfg.Batch, stop: make(chan struct{})}
	f.ck = e.newChunker(stopReader{r, f.stop})
	if e.par > 1 {
		f.work = make(chan hashJob, frontQueue)
		f.out = make(chan *hashedBatch, 1)
	}
	for i := 1; i < e.par; i++ {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if i == 1 {
				f.run()
			}
			for {
				select {
				case j := <-f.work:
					f.hash(j)
				case <-f.stop:
					return
				}
			}
		}()
	}
	return f
}

// close stops the stage's goroutines and waits for them.
func (f *front) close() {
	close(f.stop)
	f.wg.Wait()
}

// park keeps a panic for await to re-raise; deferred on stage goroutines.
func (f *front) park() {
	if v := recover(); v != nil {
		f.panicked.CompareAndSwap(nil, &v)
	}
}

// run cuts batches until the stream ends or the stage is stopped.
func (f *front) run() {
	defer close(f.out)
	defer f.park()
	for {
		hb, err := f.cut()
		if err != nil {
			f.err = err
			return
		}
		select {
		case f.out <- hb:
		case <-f.stop:
			return
		}
	}
}

// cut chunks the next batch, publishing a hash job per group as it goes. The
// last batch of a stream may be short; the cut after it returns io.EOF (the
// chunkers' EOF is sticky).
func (f *front) cut() (*hashedBatch, error) {
	hb := &hashedBatch{chunks: make([][]byte, 0, f.batch), fps: make([]dedup.Fingerprint, f.batch), done: make(chan struct{})}
	hb.pending.Store(1) // the cut itself: done stays open until every group is out
	defer hb.hashed()
	for lo, start := 0, metrics.Clock(); ; {
		c, err := f.ck.Next()
		if err == nil {
			hb.chunks = append(hb.chunks, c.Data)
		}
		n := len(hb.chunks)
		if n > lo && (err != nil || n-lo == frontGroup || n == f.batch) {
			metrics.StageChunk.ObserveSince(start)
			hb.pending.Add(1)
			j := hashJob{hb.chunks[lo:n], hb.fps[lo:n], hb}
			select {
			case f.work <- j: // never ready inline (nil channel)
			default:
				f.hash(j)
			}
			lo, start = n, metrics.Clock()
		}
		if n == f.batch || err == io.EOF && n > 0 {
			hb.fps = hb.fps[:n]
			return hb, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// hash fingerprints one group. A panic is parked so the batch still
// completes and nothing blocks on it.
func (f *front) hash(j hashJob) {
	defer metrics.StageHash.ObserveSince(metrics.Clock())
	defer j.hb.hashed()
	defer f.park()
	for i, c := range j.chunks {
		j.fps[i] = dedup.Sum(c)
	}
}

// hashed drops one reference on the batch's fingerprints; the last one
// publishes them.
func (hb *hashedBatch) hashed() {
	if hb.pending.Add(-1) == 0 {
		close(hb.done)
	}
}

// next returns the next batch in stream order, or the error that ended the
// stream.
func (f *front) next() (*hashedBatch, error) {
	if f.out == nil {
		return f.cut()
	}
	if hb, ok := await(f, f.out); ok {
		return hb, nil
	}
	return nil, f.err
}

// wait returns once every fingerprint of hb is in place.
func (f *front) wait(hb *hashedBatch) { await(f, hb.done) }

// await receives from c, hashing queued groups until it is ready, and
// re-raises a parked panic.
func await[T any](f *front, c <-chan T) (v T, ok bool) {
	defer metrics.StageFrontWait.ObserveSince(metrics.Clock())
	for {
		select {
		case v, ok = <-c:
			if p := f.panicked.Load(); p != nil {
				panic(*p)
			}
			return v, ok
		case j := <-f.work:
			f.hash(j)
		}
	}
}

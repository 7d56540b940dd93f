package core

import (
	"errors"
	"io"

	"inlinered/internal/chunk"
	"inlinered/internal/dedup"
	"inlinered/internal/metrics"
	"inlinered/internal/parallel"
)

// frontGroup is how many consecutive chunks one hash task covers. Groups of
// 16–128 are within noise of each other (CHANGES.md, PR 19); a task per
// batch loses the overlap.
const frontGroup = 64

// front is the free-running head of the pipeline: Figure 1's chunk+hash box,
// which depends on nothing downstream. One goroutine owns the reader and the
// chunker and cuts the stream into batches; every frontGroup chunks become a
// task posted on the engine's pool, for whoever is lending itself to it — the
// pool's workers, the commit goroutine whenever it would otherwise block on
// this stage, the chunking goroutine while its hand-off slot is full. With
// Parallelism 1 (out nil) the same code runs inline on the caller: the groups
// queue up and run in wait.
//
// The stage touches no virtual time, report, journal, index or recorder: it
// produces chunk bytes and fingerprints, a pure function of the stream, and
// the commit goroutine takes batches strictly in order. It runs at most two
// batches ahead of it: one queued in out, one being cut.
type front struct {
	ck       chunk.Chunker
	batch    int
	pool     *parallel.Pool
	out      chan *hashedBatch // cut batches in stream order; closed with err or panicked set
	err      error             // why the stream ended: io.EOF or the reader's error
	panicked any               // the chunking goroutine's panic, re-raised by next
	stop     chan struct{}     // closed by close: Process is returning
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

// newFront starts the stage over r: above Parallelism 1, the one goroutine
// that cuts the stream.
func (e *Engine) newFront(r io.Reader) *front {
	f := &front{batch: e.cfg.Batch, pool: e.pool, stop: make(chan struct{})}
	f.ck = e.newChunker(stopReader{r, f.stop})
	if e.pool.Workers() > 1 {
		f.out = make(chan *hashedBatch, 1)
		go f.run()
	}
	return f
}

// close stops the chunking goroutine and waits for it to close out.
func (f *front) close() {
	close(f.stop)
	if f.out != nil {
		for range f.out {
		}
	}
}

// run cuts batches until the stream ends or the stage is stopped, running
// posted tasks while the commit goroutine has yet to take the last one.
func (f *front) run() {
	defer close(f.out)
	defer func() { f.panicked = recover() }()
	for {
		hb, err := f.cut()
		if err != nil {
			f.err = err
			return
		}
		if !parallel.Send(f.pool, f.out, hb, f.stop) {
			return
		}
	}
}

// cut chunks the next batch, posting a hash task per group as it goes. The
// last batch of a stream may be short; the cut after it returns io.EOF (the
// chunkers' EOF is sticky).
func (f *front) cut() (*hashedBatch, error) {
	hb := &hashedBatch{chunks: make([][]byte, 0, f.batch), fps: make([]dedup.Fingerprint, f.batch)}
	// Slice headers of the tasks' own: the batch's are still being appended to.
	chunks, fps := hb.chunks[:f.batch], hb.fps
	hash := func(lo, hi int) {
		defer metrics.StageHash.ObserveSince(metrics.Clock())
		for i := lo; i < hi; i++ {
			fps[i] = dedup.Sum(chunks[i])
		}
	}
	for lo, start := 0, metrics.Clock(); ; {
		c, err := f.ck.Next()
		if err == nil {
			hb.chunks = append(hb.chunks, c.Data)
		}
		n := len(hb.chunks)
		if n > lo && (err != nil || n-lo == frontGroup || n == f.batch) {
			metrics.StageChunk.ObserveSince(start)
			f.pool.Post(&hb.hashes, lo, n, frontGroup, hash)
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

// next returns the next batch in stream order, or the error that ended the
// stream, running posted tasks until one is ready.
func (f *front) next() (*hashedBatch, error) {
	if f.out == nil {
		return f.cut()
	}
	defer metrics.StageFrontWait.ObserveSince(metrics.Clock())
	if hb, ok := parallel.Recv(f.pool, f.out); ok {
		return hb, nil
	}
	if f.panicked != nil {
		panic(f.panicked)
	}
	return nil, f.err
}

// wait returns once every fingerprint of hb is in place, running posted
// tasks until then; a hash task's panic is re-raised here.
func (f *front) wait(hb *hashedBatch) {
	defer metrics.StageFrontWait.ObserveSince(metrics.Clock())
	f.pool.Wait(&hb.hashes)
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"inlinered"
	"inlinered/internal/workload"
)

// ingest is the stream-pipeline workload pair: one round is one
// inlinered.Run-equivalent call (NewEngine + Process, so the last engine
// stays referenced for the heap snapshot) over the materialised stream.
type ingest struct {
	base
	opts      inlinered.Options
	data      []byte
	snap, max int

	ref     []byte // Report.JSON of the first timed round
	last    *inlinered.Engine
	lastRep *inlinered.Report
}

func (g *ingest) process(opts inlinered.Options) (*inlinered.Engine, *inlinered.Report, time.Duration, error) {
	r := bytes.NewReader(g.data)
	start := time.Now()
	eng, err := inlinered.NewEngine(inlinered.PaperPlatform(), opts)
	if err != nil {
		return nil, nil, 0, err
	}
	rep, err := eng.Process(r)
	return eng, rep, time.Since(start), err
}

func newIngest(cfg config, opts inlinered.Options, data []byte, snap, max int) (instance, error) {
	g := &ingest{opts: opts, data: data, snap: snap, max: max}
	g.opts.Mode = inlinered.CPUOnly
	g.opts.Parallelism = cfg.workers
	g.heap0 = liveHeap()
	for warm := 0; warm < 2; warm++ {
		if _, _, _, err := g.process(g.opts); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// fixedStream materialises the ingest-fixed input: the paper's stream,
// dedup ratio 2.0 and compression ratio 2.0.
func fixedStream(cfg config) ([]byte, error) {
	stream, err := inlinered.NewStream(inlinered.StreamSpec{
		TotalBytes: sizesFor(cfg.scale).IngestBytes, DedupRatio: 2, CompressionRatio: 2, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	return io.ReadAll(stream)
}

func setupIngestFixed(cfg config) (instance, error) {
	sz := sizesFor(cfg.scale)
	data, err := fixedStream(cfg)
	if err != nil {
		return nil, err
	}
	return newIngest(cfg, inlinered.Options{}, data, sz.IngestSnap, sz.IngestMax)
}

// shiftedStream materialises the ingest-cdc input: a corpus of files
// re-emitted with random prefixes, incompressible (Fill 1.0), so the Gear
// chunker resynchronises, SHA-1 and the index see mostly duplicates, and
// the entropy bypass skips the encoder for every unique chunk.
func shiftedStream(cfg config) ([]byte, error) {
	sz := sizesFor(cfg.scale)
	r, _, err := workload.NewShifted(workload.ShiftSpec{
		Files: sz.CDCFiles, FileSize: sz.CDCFileSize, Repeats: sz.CDCRepeats,
		MaxShift: sz.CDCMaxShift, Fill: 1.0, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

func setupIngestCDC(cfg config) (instance, error) {
	sz := sizesFor(cfg.scale)
	data, err := shiftedStream(cfg)
	if err != nil {
		return nil, err
	}
	return newIngest(cfg, inlinered.Options{ContentDefined: true, EntropyBypass: true}, data, sz.CDCSnap, sz.CDCMax)
}

func (g *ingest) run(seconds float64, atSnap func()) timed {
	return roundLoop(seconds, g.snap, g.max, atSnap, g.round)
}

func (g *ingest) round() (time.Duration, int64, int64, int64, error) {
	eng, rep, d, err := g.process(g.opts)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	g.last, g.lastRep = eng, rep
	js, err := rep.JSON()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var failed int64
	if g.ref == nil {
		g.ref = js
	} else if !bytes.Equal(js, g.ref) {
		failed = rep.Chunks // a round whose report drifted is a failed round
	}
	return d, rep.Bytes, rep.Chunks, failed, nil
}

// exact: the engine appends each unique blob once and never cleans, so the
// bytes it stores and the bytes it writes are the same quantity.
func (g *ingest) exact() (stored, written float64) {
	r := g.lastRep
	v := float64(r.StoredBytes+r.JournalBytes) / float64(r.Bytes)
	return v, v
}

// verify runs the backbone invariant: one more round with Options.Verify
// and Engine.Verify against the source bytes, and one at Parallelism 1;
// both reports must equal the timed rounds' byte for byte.
func (g *ingest) verify() (int64, error) {
	var failed int64
	vopts := g.opts
	vopts.Verify = true
	eng, rep, _, err := g.process(vopts)
	if err != nil {
		return 0, err
	}
	if err := eng.Verify(bytes.NewReader(g.data)); err != nil {
		fmt.Printf("  verify: %v\n", err)
		failed += rep.Chunks
	}
	serial := g.opts
	serial.Parallelism = 1
	_, srep, _, err := g.process(serial)
	if err != nil {
		return 0, err
	}
	for _, r := range []*inlinered.Report{rep, srep} {
		js, err := r.JSON()
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(js, g.ref) {
			fmt.Printf("  verify: report differs from the timed rounds' (parallelism %d)\n", g.opts.Parallelism)
			failed += r.Chunks
		}
	}
	return failed, nil
}

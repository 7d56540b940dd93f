package main

import (
	"fmt"
	"runtime"
	"time"
)

// config is what one run of one workload is given. seed is the only
// workload parameter; scale divides every size (1 in real runs, 64 in the
// package's tests).
type config struct {
	seed    int64
	seconds float64
	scale   int
	workers int // generator threads, Parallelism and Shards: min(nproc, 4)
	outDir  string
}

// sizes holds every workload's dimensions. They are fixed (never derived
// from -seconds), so a seed names the same inputs on every host; the
// envelope records them and two result files compare only when they agree.
type sizes struct {
	// Rounds: every workload runs Snap rounds, takes its exact-count
	// snapshot, then keeps going until the time box closes or Max rounds
	// (the materialised inputs) are used up.
	IngestBytes              int64
	IngestSnap, IngestMax    int
	CDCFiles, CDCFileSize    int
	CDCRepeats, CDCMaxShift  int
	CDCSnap, CDCMax          int
	ServeBlocks              int64
	ServeBatch, ServeClean   int
	ServeSnap, ServeMax      int
	DirectBlocks             int64
	DirectSegment            int
	DirectSnap, DirectMax    int
	StormBlocks              int64
	StormClients, StormReads int
	StormSnap, StormMax      int
	ClusterBlocks            int64
	ClusterBatch             int
	ClusterSnap, ClusterMax  int
}

func sizesFor(scale int) sizes {
	d := func(n int) int {
		if n/scale < 2 {
			return 2
		}
		return n / scale
	}
	shift := 4096
	if fs := d(256 << 10); shift >= fs/4 {
		shift = fs / 4
	}
	return sizes{
		IngestBytes: int64(d(8 << 20)), IngestSnap: d(80), IngestMax: d(800),
		CDCFiles: 8, CDCFileSize: d(256 << 10), CDCRepeats: 4, CDCMaxShift: shift,
		CDCSnap: d(80), CDCMax: d(1200),
		ServeBlocks: int64(d(16384)), ServeBatch: d(2048), ServeClean: d(512),
		ServeSnap: d(96), ServeMax: d(1024),
		DirectBlocks: int64(d(4096)), DirectSegment: d(2048),
		DirectSnap: d(64), DirectMax: d(768),
		StormBlocks: int64(d(8192)), StormClients: 128, StormReads: d(64),
		StormSnap: d(80), StormMax: d(1600),
		ClusterBlocks: int64(d(8192)), ClusterBatch: d(4096),
		ClusterSnap: d(96), ClusterMax: d(1024),
	}
}

// timed is what a workload's timed region measured. Rounds time their own
// call, so the pause for the snapshot between two rounds is in no number.
type timed struct {
	lanes  [][]float64 // seconds per round, in order, per closed-loop caller
	bytes  int64       // user bytes moved
	ops    int64
	failed int64
	extra  map[string]float64 // metrics only this workload has
	err    error
}

// instance is one set-up workload: inputs materialised, device built and
// filled, warm-up done.
type instance interface {
	// run executes rounds for about seconds of round time, at least the
	// workload's snapshot round count, calling atSnap between two rounds
	// after exactly that many.
	run(seconds float64, atSnap func()) timed
	// round executes the next round alone (the traced run wraps it in a
	// span). It times its own public-API call, so checks it makes on the
	// result stay outside the measurement.
	round() (d time.Duration, bytes, ops, failed int64, err error)
	// exact returns stored_per_user_byte and written_per_user_byte from
	// the program's own accounting; called inside atSnap.
	exact() (stored, written float64)
	// verify checks the program's outputs outside the timed region and
	// returns how many ops it found wrong.
	verify() (failed int64, err error)
	// heapBase is the live heap once the inputs existed but before the
	// engine or device did.
	heapBase() uint64
	close()
}

type base struct{ heap0 uint64 }

func (b *base) heapBase() uint64 { return b.heap0 }
func (b *base) close()           {}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// roundLoop is the closed loop most workloads share: one caller issuing one
// public-API call per round.
func roundLoop(seconds float64, snap, max int, atSnap func(),
	round func() (d time.Duration, bytes, ops, failed int64, err error)) timed {
	var t timed
	rounds := make([]float64, 0, max)
	busy := 0.0
	for i := 0; i < max && (i < snap || busy < seconds); i++ {
		d, b, o, f, err := round()
		if err != nil {
			t.err = fmt.Errorf("round %d: %w", i, err)
			return t
		}
		rounds = append(rounds, d.Seconds())
		busy += d.Seconds()
		t.bytes += b
		t.ops += o
		t.failed += f
		if i+1 == snap {
			atSnap()
		}
	}
	t.lanes = [][]float64{rounds}
	return t
}

// workloadDef names one workload. The names are fixed: issues cite them.
type workloadDef struct {
	name  string
	why   string
	setup func(cfg config) (instance, error)
	trace func(k *kit) error // the traced run's legs, under k.root
}

var workloads = []workloadDef{
	{"ingest-fixed", "the paper's stream (dedup 2, comp 2, fixed 4 KiB chunks): the LZ encoder dominates, hashing second", setupIngestFixed, traceIngestFixed},
	{"ingest-cdc", "shifted files, content-defined chunks, entropy bypass: chunker, SHA-1 and index work, encoder skipped", setupIngestCDC, traceIngestCDC},
	{"serve-mixed", "Array.Serve batches, 60/35/5 write/read/trim over a working set larger than the cache, cleaner running", setupServeMixed, traceServeMixed},
	{"blockdev-direct", "one op per call under the shard lock, working set fits the cache: the only per-op wall latencies", setupDirect, traceDirect},
	{"boot-storm", "read-only Array.ReadBatch storms with an undersized cache: sub-block decode and cache admission", setupBootStorm, traceBootStorm},
	{"cluster-replicated", "Cluster.Serve on 3 nodes, 2 replicas, read-mostly, with node crashes, rejoins and read-repair", setupCluster, traceCluster},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 3

// runEndToEnd is the untraced run: set up, measure the timed region, check
// the outputs.
func runEndToEnd(w workloadDef, cfg config) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	var inst instance
	var setups []float64
	for s := 0; s < setupRepeats; s++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	var stored, written, heapMB float64
	snapped := false
	runtime.GC()
	t := inst.run(cfg.seconds, func() {
		stored, written = inst.exact()
		heapMB = (float64(liveHeap()) - float64(inst.heapBase())) / 1e6
		snapped = true
	})
	if t.err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, t.err)
	}
	if !snapped {
		return nil, fmt.Errorf("%s: timed region ended before its snapshot round", w.name)
	}
	bad, err := inst.verify()
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", w.name, err)
	}

	lanes := t.lanes
	rounds := 0
	for _, l := range lanes {
		rounds += len(l)
	}
	res.Attempted = t.ops
	res.Rounds = rounds
	res.Failed = t.failed + bad
	res.Correct = res.Failed == 0
	// Every caller moves the same bytes per round, so the callers' combined
	// rate in a segment is their number times bytes per mean round time.
	perRound := float64(t.bytes) / float64(rounds)
	res.set("setup_s", median(setups))
	res.set("throughput_mbps", float64(len(lanes))*perRound/1e6/bestSegment(lanes, mean))
	res.set("round_ms_p50", 1e3*bestSegment(lanes, median))
	res.set("round_ms_p90", 1e3*bestSegment(lanes, func(xs []float64) float64 { return percentile(xs, 90) }))
	res.set("stored_per_user_byte", stored)
	res.set("written_per_user_byte", written)
	res.set("live_heap_mb", heapMB)
	for name, v := range t.extra {
		res.set(name, v)
	}
	return res, nil
}

package volume

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"inlinered/internal/fault"
	"inlinered/internal/metrics"
	"inlinered/internal/obs"
	"inlinered/internal/parallel"
)

// frontOp is one op of a write-front differential run: 'w'rite (of content
// id), 'r'ead, 't'rim at lba, or 'c'lean.
type frontOp struct {
	kind byte
	lba  int64
	id   int
}

// frontRun is everything a run leaves behind that a report, a recovery or a
// trace could see.
type frontRun struct {
	errs    []string // per op, "" on success
	lats    []int64  // per op virtual latency
	stats   Stats
	now     int64
	journal []byte
	trace   []byte
}

// runFront drives ops through a fresh volume: per op (Write / ReadInto /
// Trim / Clean) when lenders < 0, else with the writes going through a
// WriteBatch while that many other goroutines lend themselves to its pool.
func runFront(t *testing.T, cfg Config, setup func(*Volume), ops []frontOp, lenders int) frontRun {
	t.Helper()
	rec := obs.NewRecorder()
	cfg.Obs = rec
	v := newVolume(t, cfg)
	if setup != nil {
		setup(v)
	}
	var ids []int
	for _, op := range ops {
		if op.kind == 'w' {
			ids = append(ids, op.id)
		}
	}
	run := frontRun{errs: make([]string, len(ops)), lats: make([]int64, len(ops))}
	drive := func(wb *WriteBatch) {
		var buf []byte
		for k, op := range ops {
			var err error
			before := v.Now()
			switch {
			case op.kind == 'w' && wb != nil:
				_, err = wb.Write(op.lba)
			case op.kind == 'w':
				_, err = v.Write(op.lba, block(op.id))
			case op.kind == 'r':
				buf, _, err = v.ReadInto(buf[:0], op.lba)
			case op.kind == 't':
				_, err = v.Trim(op.lba)
			default:
				_, err = v.Clean()
			}
			run.lats[k] = int64(v.Now() - before)
			if err != nil {
				run.errs[k] = err.Error()
			}
		}
	}
	if lenders < 0 {
		drive(nil)
	} else {
		pool := parallel.New(1)
		wb := v.NewWriteBatch(pool, len(ids), func(dst []byte, i int) []byte { return append(dst, block(ids[i])...) })
		_ = pool.ForEach(1+lenders, 0, func(i int) error {
			if i == 0 {
				drive(wb)
			}
			return nil
		})
	}
	var trace bytes.Buffer
	if err := rec.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	run.stats, run.now, run.journal, run.trace = v.Stats(), int64(v.Now()), v.JournalImage(), trace.Bytes()
	return run
}

func requireSameRun(t *testing.T, want, got frontRun) {
	t.Helper()
	if !reflect.DeepEqual(want.errs, got.errs) {
		t.Fatalf("per-op errors differ:\n%q\n%q", want.errs, got.errs)
	}
	if !reflect.DeepEqual(want.lats, got.lats) {
		t.Fatal("per-op virtual latencies differ")
	}
	if !reflect.DeepEqual(want.stats, got.stats) {
		t.Fatalf("stats differ:\n%+v\n%+v", want.stats, got.stats)
	}
	if want.now != got.now {
		t.Fatalf("clock differs: %d vs %d", want.now, got.now)
	}
	if !bytes.Equal(want.journal, got.journal) {
		t.Fatalf("journal images differ (%d vs %d bytes)", len(want.journal), len(got.journal))
	}
	if !bytes.Equal(want.trace, got.trace) {
		t.Fatalf("recorder traces differ (%d vs %d bytes)", len(want.trace), len(got.trace))
	}
}

// mixedOps is a random closed-loop mix over a small LBA range and a small
// content pool, so overwrites, trims of shared chunks and duplicates within
// and across windows all occur; cleans run every 97 ops.
func mixedOps(seed int64, n int) []frontOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]frontOp, 0, n)
	for k := 0; k < n; k++ {
		lba := rng.Int63n(96)
		switch r := rng.Intn(10); {
		case (k+1)%97 == 0:
			ops = append(ops, frontOp{kind: 'c'})
		case r < 5:
			ops = append(ops, frontOp{'w', lba, rng.Intn(80)})
		case r < 6:
			ops = append(ops, frontOp{kind: 't', lba: lba})
		default:
			ops = append(ops, frontOp{kind: 'r', lba: lba})
		}
	}
	return ops
}

// fillers returns n writes of never-repeated content to LBAs from 1000 up.
func fillers(next *int, n int) []frontOp {
	ops := make([]frontOp, n)
	for i := range ops {
		ops[i] = frontOp{'w', int64(1000 + *next), 1000 + *next}
		*next++
	}
	return ops
}

// TestWriteBatchMatchesPerOpLoop: a queue drained with its writes going
// through the write front leaves exactly what the per-op loop leaves —
// per-op errors and latencies, Stats, clock, journal image and recorder
// trace — whatever faults fire, whatever the index evicts, when the log
// fills, when the journal is dead, and with or without goroutines lending.
func TestWriteBatchMatchesPerOpLoop(t *testing.T) {
	type fixture struct {
		name  string
		cfg   func() Config
		setup func(*Volume)
		ops   []frontOp
		check func(t *testing.T, st Stats, errs []string)
	}
	faulty := func(seed int64) func() Config {
		return func() Config {
			cfg := faultConfig()
			cfg.SegmentBytes = 128 << 10
			cfg.Faults = fault.Config{Seed: seed, Rates: fault.Uniform(0.03)}
			return cfg
		}
	}
	anyErr := func(errs []string) bool {
		for _, e := range errs {
			if e != "" {
				return true
			}
		}
		return false
	}
	fixtures := []fixture{
		{name: "clean", cfg: faultConfig, ops: mixedOps(1, 700)},
		{name: "faults-seed0", cfg: faulty(0), ops: mixedOps(2, 700)},
		{name: "faults-seed3", cfg: faulty(3), ops: mixedOps(3, 700)},
		{name: "faults-seed7", cfg: faulty(7), ops: mixedOps(4, 700), check: func(t *testing.T, st Stats, _ []string) {
			if st.SSDWriteRetries+st.SSDReadRetries+st.JournalTornRecords == 0 {
				t.Fatal("3% fault rates never fired")
			}
		}},
		{name: "capped-index", cfg: func() Config {
			cfg := faulty(7)()
			cfg.Index.MaxEntries = 24
			return cfg
		}, ops: mixedOps(5, 700)},
		{name: "log-full", cfg: func() Config {
			cfg := faultConfig()
			cfg.Compress = false
			cfg.SegmentBytes = 64 << 10
			return cfg
		}, setup: func(v *Volume) { v.maxSegs = 3 }, ops: mixedOps(6, 700), check: func(t *testing.T, _ Stats, errs []string) {
			if !anyErr(errs) {
				t.Fatal("the log never filled")
			}
		}},
		{name: "dead-journal", cfg: faulty(3), setup: func(v *Volume) {
			armFaults(v, fault.Config{Seed: 3, Rates: fault.Rates{SSDWritePermanent: 1}})
			v.journalFlush(0, fabricateFlush(t))
			armFaults(v, fault.Config{Seed: 3, Rates: fault.Uniform(0.03)})
		}, ops: mixedOps(7, 700), check: func(t *testing.T, st Stats, _ []string) {
			if st.JournalWriteFailures != 1 || st.JournalRecords != 0 {
				t.Fatalf("journal not dead: %+v", st)
			}
		}},
		{name: "read-only", cfg: faultConfig, ops: []frontOp{{kind: 'r', lba: 1}, {kind: 't', lba: 2}, {kind: 'c'}, {kind: 'r', lba: 3}}},
		{name: "bad-lba", cfg: faultConfig, ops: []frontOp{{'w', 1, 1}, {'w', -1, 2}, {'w', 1 << 40, 2}, {'w', 2, 2}}},
	}
	for _, n := range []int{0, 1, writeWindow, writeWindow + 1, writeWindows*writeWindow + 1} {
		next := 0
		fixtures = append(fixtures, fixture{name: fmt.Sprintf("writes=%d", n), cfg: faultConfig, ops: fillers(&next, n)})
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			want := runFront(t, fx.cfg(), fx.setup, fx.ops, -1)
			if fx.check != nil {
				fx.check(t, want.stats, want.errs)
			}
			for _, lenders := range []int{0, 1, 3} {
				requireSameRun(t, want, runFront(t, fx.cfg(), fx.setup, fx.ops, lenders))
			}
		})
	}
}

// TestWriteBatchMisspeculation builds the two queues on which the front's
// guess is wrong, one each way, and checks that the volume cannot tell. X is
// stored at LBA 0 in window 0. Window 2 (speculated before any write of
// window 1 commits) holds X again: predicted a duplicate. A trim of LBA 0
// inside window 1 then drops X's last reference, so window 2's X commits
// unique and is encoded inline. Window 3, speculated after that trim and
// before window 2 commits, also holds X: predicted unique and encoded ahead,
// it commits as a duplicate of window 2's — one wasted encode.
func TestWriteBatchMisspeculation(t *testing.T) {
	const x = 7
	next := 0
	var ops []frontOp
	ops = append(ops, frontOp{'w', 0, x})
	ops = append(ops, fillers(&next, writeWindow-1)...) // window 0
	w1 := fillers(&next, writeWindow)
	ops = append(ops, w1[0], frontOp{kind: 't', lba: 0})
	ops = append(ops, w1[1:]...) // window 1
	ops = append(ops, frontOp{'w', 1, x})
	ops = append(ops, fillers(&next, writeWindow-1)...) // window 2
	ops = append(ops, frontOp{'w', 2, x}, frontOp{'w', 3, x})
	ops = append(ops, fillers(&next, 5)...) // window 3: X twice, the second a predicted duplicate

	want := runFront(t, faultConfig(), nil, ops, -1)
	metrics.Enable()
	defer metrics.Disable()
	spec, inline, wasted := metrics.WriteEncodesSpeculated.Value(), metrics.WriteEncodesInline.Value(), metrics.WriteEncodesWasted.Value()
	got := runFront(t, faultConfig(), nil, ops, 1)
	spec, inline, wasted = metrics.WriteEncodesSpeculated.Value()-spec, metrics.WriteEncodesInline.Value()-inline, metrics.WriteEncodesWasted.Value()-wasted
	requireSameRun(t, want, got)
	if unique := int64(3*writeWindow + 5); spec != unique || inline != 1 || wasted != 1 {
		t.Fatalf("encodes: %d speculated, %d inline, %d wasted; want %d, 1, 1", spec, inline, wasted, unique)
	}
	if got.stats.DedupHits != 2 {
		t.Fatalf("dedup hits: %d, want 2 (window 3's two writes of X)", got.stats.DedupHits)
	}
}

// TestLogFullWriteChargesEncodeBatch is TestLogFullWriteChargesEncode
// through the write front: the encode it ran ahead of time for a write the
// log then rejects is charged exactly as the inline one is.
func TestLogFullWriteChargesEncodeBatch(t *testing.T) {
	cfg := faultConfig()
	cfg.Compress = false
	full := func(v *Volume) {
		v.maxSegs = len(v.segments)
		v.cur.off = int64(cfg.SegmentBytes)
	}
	ops := []frontOp{{'w', 0, 1}, {'w', 1, 1}, {'w', 2, 2}}
	want := runFront(t, cfg, full, ops, -1)
	for k, e := range want.errs {
		if e == "" || want.lats[k] == 0 {
			t.Fatalf("write %d: error %q, latency %d; want a charged log-full rejection", k, e, want.lats[k])
		}
	}
	requireSameRun(t, want, runFront(t, cfg, full, ops, 1))
}

// TestWriteBatchOverrun: a Write past the run's n writes is an error that
// leaves the volume as it was — no virtual time, no stats, no journal entry —
// instead of committing an earlier write's payload from the wrapped slot
// ring; a run of no writes refuses its first.
func TestWriteBatchOverrun(t *testing.T) {
	for _, n := range []int{3, 0} {
		v := newVolume(t, faultConfig())
		pool := parallel.New(1)
		wb := v.NewWriteBatch(pool, n, func(dst []byte, i int) []byte { return append(dst, block(i)...) })
		for i := 0; i < n; i++ {
			if _, err := wb.Write(int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		stats, now, journal := v.Stats(), v.Now(), v.JournalImage()
		for k := 0; k < 2; k++ {
			lat, err := wb.Write(10)
			if want := fmt.Sprintf("volume: WriteBatch: write %d of a %d-write run", n+1, n); err == nil || err.Error() != want || lat != 0 {
				t.Fatalf("n=%d: overrun write returned (%v, %v), want error %q", n, lat, err, want)
			}
		}
		if !reflect.DeepEqual(stats, v.Stats()) || now != v.Now() || !bytes.Equal(journal, v.JournalImage()) {
			t.Fatalf("n=%d: the refused write changed the volume", n)
		}
		if got, _, err := v.ReadInto(nil, 10); err != nil || !bytes.Equal(got, make([]byte, len(got))) {
			t.Fatalf("n=%d: LBA 10 reads %x… (%v), want zeros", n, got[:8], err)
		}
	}
}

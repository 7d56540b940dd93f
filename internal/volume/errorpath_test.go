package volume

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"inlinered/internal/cpusim"
	"inlinered/internal/fault"
	"inlinered/internal/lz"
	"inlinered/internal/obs"
)

// armFaults swaps in a fresh injector mid-run, so a test can build clean
// state first and then fault a specific operation.
func armFaults(v *Volume, cfg fault.Config) { v.sub.SetFaultInjector(fault.New(cfg)) }

func disarmFaults(v *Volume) { v.sub.SetFaultInjector(nil) }

// segGarbage recomputes the garbage invariant from first principles:
// Stats.GarbageBytes must equal the dead bytes summed over all segments.
func segGarbage(v *Volume) int64 {
	var g int64
	for i := range v.segments {
		g += v.segments[i].used - v.segments[i].live
	}
	return g
}

// segLive sums live bytes over all segments; it must equal
// Stats.StoredBytes (each referenced blob lives in exactly one segment).
// A mid-move cleaning failure that credits the destination segment without
// debiting the source double-counts the moved blob and breaks this.
func segLive(v *Volume) int64 {
	var l int64
	for i := range v.segments {
		l += v.segments[i].live
	}
	return l
}

// checkSpaceInvariants asserts the two segment-accounting invariants.
func checkSpaceInvariants(t *testing.T, v *Volume, context string) {
	t.Helper()
	st := v.Stats()
	if st.GarbageBytes < 0 {
		t.Fatalf("%s: GarbageBytes went negative: %d", context, st.GarbageBytes)
	}
	if got := segGarbage(v); st.GarbageBytes != got {
		t.Fatalf("%s: GarbageBytes=%d but segments hold %d dead bytes", context, st.GarbageBytes, got)
	}
	if got := segLive(v); st.StoredBytes != got {
		t.Fatalf("%s: StoredBytes=%d but segments hold %d live bytes", context, st.StoredBytes, got)
	}
}

// retryBackoffTotal is the virtual time a request that exhausts every retry
// must have spent backing off.
func retryBackoffTotal() time.Duration {
	var d time.Duration
	for a := 0; a < fault.MaxRetries; a++ {
		d += fault.Backoff(a)
	}
	return d
}

// TestReadErrorCommitsTimeAndStats locks down the Read error-path contract:
// a read that exhausts its transient retries surfaces an error AND commits
// the retry/backoff time to the clock, counts in Stats.Reads, and shows up
// in the read histogram. Before the fix, the error return skipped all
// three — the spent virtual time simply vanished.
func TestReadErrorCommitsTimeAndStats(t *testing.T) {
	cfg := faultConfig()
	rec := obs.NewRecorder()
	cfg.Obs = rec
	v := newVolume(t, cfg)
	if _, err := v.Write(7, block(7)); err != nil {
		t.Fatal(err)
	}
	before := v.Stats()
	now := v.Now()
	armFaults(v, fault.Config{Seed: 21, Rates: fault.Rates{fault.SSDReadTransient: 1}})

	_, lat, err := v.Read(7)
	if err == nil {
		t.Fatal("rate-1 transient read faults must exhaust retries and surface")
	}
	backoffs := retryBackoffTotal()
	if lat < backoffs {
		t.Fatalf("failed-read latency %v < total retry backoff %v: spent time vanished", lat, backoffs)
	}
	if got := v.Now(); got != now+lat {
		t.Fatalf("clock did not commit the failed read: now=%v, want %v", got, now+lat)
	}
	st := v.Stats()
	if st.Reads != before.Reads+1 {
		t.Fatalf("failed read not counted: Reads=%d, want %d", st.Reads, before.Reads+1)
	}
	if st.ReadLat.Count != before.ReadLat.Count+1 {
		t.Fatalf("failed read invisible in histogram: count=%d, want %d",
			st.ReadLat.Count, before.ReadLat.Count+1)
	}
	if st.ReadLat.Max < backoffs {
		t.Fatalf("read histogram max %v < backoff total %v: failed read not observed", st.ReadLat.Max, backoffs)
	}
	if st.SSDReadRetries != before.SSDReadRetries+fault.MaxRetries {
		t.Fatalf("retries: %d, want %d", st.SSDReadRetries, before.SSDReadRetries+fault.MaxRetries)
	}

	// The failure is visible in the trace as a read-error span.
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("read-error")) {
		t.Fatal("trace has no read-error span for the failed read")
	}

	// The fault was injected, not real: disarmed, the data is still there.
	disarmFaults(v)
	got, _, err := v.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(7)) {
		t.Fatal("data corrupted by a failed read")
	}
}

// TestUnmappedReadObserved checks the consistency half of the Read fix:
// unmapped reads count in Stats, observe the zero-fill staging-copy charge
// in the latency histogram (they used to count at zero latency, making an
// unmapped read cheaper than a cache hit of the same bytes), and emit a
// span like every mapped read.
func TestUnmappedReadObserved(t *testing.T) {
	cfg := smallConfig()
	rec := obs.NewRecorder()
	cfg.Obs = rec
	v := newVolume(t, cfg)
	got, lat, err := v.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	cpu := cpusim.New(cpusim.DefaultConfig())
	_, want := cpu.Run(0, cpu.Cost.MemcpyCycles(cfg.BlockSize)+cpu.Cost.StageOverheadCycles)
	if lat != want {
		t.Fatalf("unmapped read latency = %v, want the zero-fill copy charge %v", lat, want)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unmapped read must return zeros")
		}
	}
	st := v.Stats()
	if st.Reads != 1 {
		t.Fatalf("Reads = %d, want 1", st.Reads)
	}
	if st.ReadLat.Count != 1 {
		t.Fatalf("unmapped read missing from the histogram: count = %d, want 1", st.ReadLat.Count)
	}
	if st.ReadLat.Max != want || st.ReadLat.Min != want {
		t.Fatalf("histogram must pin the zero-fill charge: min=%v max=%v want=%v",
			st.ReadLat.Min, st.ReadLat.Max, want)
	}
	if rec.Spans() == 0 {
		t.Fatal("unmapped read emitted no span")
	}
}

// TestWriteErrorCommitsTimeAndStats is the Write twin of the Read test: a
// permanently failed append still counts the CPU time the request consumed
// (fingerprint, probe, compress) on the clock and in the write histogram.
func TestWriteErrorCommitsTimeAndStats(t *testing.T) {
	v := newVolume(t, faultConfig())
	armFaults(v, fault.Config{Seed: 4, Rates: fault.Rates{fault.SSDWritePermanent: 1}})
	now := v.Now()

	lat, err := v.Write(0, block(0))
	if err == nil {
		t.Fatal("rate-1 permanent write faults must surface")
	}
	if lat <= 0 {
		t.Fatal("failed write consumed CPU time before the append; latency must be > 0")
	}
	if got := v.Now(); got != now+lat {
		t.Fatalf("clock did not commit the failed write: now=%v, want %v", got, now+lat)
	}
	st := v.Stats()
	if st.Writes != 1 {
		t.Fatalf("failed write not counted: Writes=%d, want 1", st.Writes)
	}
	if st.WriteLat.Count != 1 {
		t.Fatalf("failed write invisible in histogram: count=%d, want 1", st.WriteLat.Count)
	}
	// The failed write must not have mapped the LBA or leaked live bytes.
	if st.LogicalBytes != 0 || st.StoredBytes != 0 {
		t.Fatalf("failed write leaked space accounting: %+v", st)
	}

	disarmFaults(v)
	if _, err := v.Write(0, block(0)); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
	if got, _, err := v.Read(0); err != nil || !bytes.Equal(got, block(0)) {
		t.Fatal("round trip after a failed write broke")
	}
}

// dirtyVolume builds a volume whose early segments are half garbage, so
// Clean has real moving to do.
func dirtyVolume(t *testing.T) *Volume {
	t.Helper()
	cfg := faultConfig()
	cfg.Compress = false // raw blobs: predictable sizes, many per segment
	cfg.SegmentBytes = 128 << 10
	cfg.CleanThreshold = 0.3
	v := newVolume(t, cfg)
	const n = 256
	for i := 0; i < n; i++ {
		if _, err := v.Write(int64(i), block(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		if _, err := v.Trim(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// TestCleanErrorCommitsTime checks that a cleaning pass killed by a
// permanent write fault still commits the read time it consumed to the
// virtual clock. Before the fix, cleanSegment returned without v.now = t.
func TestCleanErrorCommitsTime(t *testing.T) {
	v := dirtyVolume(t)
	armFaults(v, fault.Config{Seed: 2, Rates: fault.Rates{fault.SSDWritePermanent: 1}})
	now := v.Now()
	if _, err := v.Clean(); err == nil {
		t.Fatal("permanent write faults must surface from cleaning")
	}
	if got := v.Now(); got <= now {
		t.Fatalf("failed clean's drive time vanished: now=%v, was %v", got, now)
	}
	checkSpaceInvariants(t, v, "after failed clean")
}

// TestCleanMidMoveFailureKeepsAccountingConsistent is the regression test
// for the per-chunk accounting fix: find a seed where cleaning moves at
// least one blob and then dies, and require the garbage invariant
// (Stats.GarbageBytes == dead bytes summed over segments, and >= 0) to hold
// at the failure point and through recovery. Before the fix, moved chunks
// bumped the destination segment but the source segment and GarbageBytes
// were only reconciled on success, so the failure point broke the invariant.
func TestCleanMidMoveFailureKeepsAccountingConsistent(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		v := dirtyVolume(t)
		movedBefore := v.Stats().MovedBytes
		armFaults(v, fault.Config{Seed: seed, Rates: fault.Rates{fault.SSDWritePermanent: 0.3}})
		now := v.Now()
		_, err := v.Clean()
		st := v.Stats()
		if v.Now() < now {
			t.Fatalf("seed %d: clock went backwards across Clean", seed)
		}
		checkSpaceInvariants(t, v, fmt.Sprintf("seed %d after Clean (err=%v)", seed, err))
		if err == nil || st.MovedBytes == movedBefore {
			continue // not the shape we're hunting: need moves, then a failure
		}

		// Found a mid-move failure. Recovery: disarm and clean to completion.
		disarmFaults(v)
		if _, err := v.Clean(); err != nil {
			t.Fatalf("seed %d: clean after disarm: %v", seed, err)
		}
		checkSpaceInvariants(t, v, fmt.Sprintf("seed %d after recovery clean", seed))
		// Every surviving block still reads back byte-identical.
		for i := 1; i < 256; i += 2 {
			got, _, err := v.Read(int64(i))
			if err != nil {
				t.Fatalf("seed %d: lba %d after recovery: %v", seed, i, err)
			}
			if !bytes.Equal(got, block(i)) {
				t.Fatalf("seed %d: lba %d corrupted by interrupted cleaning", seed, i)
			}
		}
		return
	}
	t.Fatal("no seed in [0,64) produced a mid-move cleaning failure after a successful move")
}

// TestTornFlushCountsInJournalHistogram locks down the torn-flush decision:
// a torn record consumed real drive time, so it counts —
// JournalFlushLat.Count == JournalRecords + JournalTornRecords.
func TestTornFlushCountsInJournalHistogram(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = fault.Config{Seed: 5, Rates: fault.Rates{fault.JournalTorn: 0.2}}
	v := newVolume(t, cfg)
	for i := 0; i < 300; i++ {
		if _, err := v.Write(int64(i), block(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := v.Stats()
	if st.JournalTornRecords == 0 {
		t.Fatal("20% torn rate over 300 writes should have fired")
	}
	if want := st.JournalRecords + st.JournalTornRecords; st.JournalFlushLat.Count != want {
		t.Fatalf("journal-flush histogram count %d != records %d + torn %d",
			st.JournalFlushLat.Count, st.JournalRecords, st.JournalTornRecords)
	}
}

// TestDegradedFlushesNotObserved is the other half of the torn-flush
// contract: flushes dropped by a permanent journal-write failure (and all
// later drops in degraded mode) consume no drive time and must NOT count.
func TestDegradedFlushesNotObserved(t *testing.T) {
	v := newVolume(t, faultConfig())
	before := v.Stats().JournalFlushLat.Count
	armFaults(v, fault.Config{Seed: 3, Rates: fault.Rates{fault.SSDWritePermanent: 1}})
	flush := fabricateFlush(t)
	v.journalFlush(0, flush) // permanent failure: degrades journaling off
	v.journalFlush(0, flush) // degraded: dropped silently
	if got := v.Stats().JournalFlushLat.Count; got != before {
		t.Fatalf("dropped flushes counted in the histogram: %d, want %d", got, before)
	}
}

// TestJournalFlushDegradeKeepsRetryTime: a journal write that exhausts its
// six transient retries spent Σ fault.Backoff(0..5) = 12.6 ms backing off.
// That time is counted in SSDWriteRetries, so it must also come back from
// journalFlush for the write to commit — the clock never loses time.
func TestJournalFlushDegradeKeepsRetryTime(t *testing.T) {
	v := newVolume(t, faultConfig())
	armFaults(v, fault.Config{Seed: 3, Rates: fault.Rates{fault.SSDWriteTransient: 1}})
	const at = 2 * time.Millisecond
	end := v.journalFlush(at, fabricateFlush(t))
	if want := at + 12600*time.Microsecond; end != want {
		t.Fatalf("failed journal flush ends at %v, want %v", end, want)
	}
	disarmFaults(v)
	v.journalFlush(end, fabricateFlush(t)) // degraded: dropped though the write would land
	st := v.Stats()
	if st.JournalWriteFailures != 1 || st.SSDWriteRetries != fault.MaxRetries || st.JournalRecords != 0 {
		t.Fatalf("failures=%d retries=%d records=%d; want 1, %d, 0",
			st.JournalWriteFailures, st.SSDWriteRetries, st.JournalRecords, fault.MaxRetries)
	}
}

// TestLogFullWriteChargesEncode: a unique write the log rejects ran the
// fingerprint, the probe AND the encoder before alloc refused it, so all
// three jobs stay on the clock and in the write histogram.
func TestLogFullWriteChargesEncode(t *testing.T) {
	cfg := faultConfig()
	cfg.Compress = false // raw store: the encode job is one staging copy
	v := newVolume(t, cfg)
	v.maxSegs = len(v.segments)         // no segment left to open...
	v.cur.off = int64(cfg.SegmentBytes) // ...and the open one is full
	data := block(1)
	lat, err := v.Write(0, data)
	if err == nil || !strings.Contains(err.Error(), "log full") {
		t.Fatalf("want a log-full rejection, got %v", err)
	}
	cpu, cost := v.sub.CPU, v.sub.CPU.Cost
	want := cpu.Time(cost.ChunkCycles(len(data))+cost.HashCycles(len(data))+cost.StageOverheadCycles) +
		cpu.Time(cost.ProbeCycles(0, 0)) +
		cpu.Time(cost.MemcpyCycles(len(lz.StoreRaw(nil, data)))+cost.StageOverheadCycles)
	if lat != want || v.Now() != want {
		t.Fatalf("rejected write committed %v (clock %v), want hash+probe+encode = %v", lat, v.Now(), want)
	}
	if st := v.Stats(); st.Writes != 1 || st.WriteLat.Count != 1 || st.StoredBytes != 0 {
		t.Fatalf("rejected write accounting: %+v", st)
	}
}

// TestClockMonotoneUnderErrors sweeps a mixed op stream through aggressive
// fault rates — including error-surfacing permanent faults — and checks the
// global accounting contract: the clock never goes backwards, every issued
// op is counted and observed exactly once (success or failure), and the
// garbage invariant holds throughout.
func TestClockMonotoneUnderErrors(t *testing.T) {
	cfg := faultConfig()
	cfg.SegmentBytes = 128 << 10
	v := newVolume(t, cfg)
	armFaults(v, fault.Config{Seed: 77, Rates: fault.Rates{
		fault.SSDWriteTransient: 0.3,
		fault.SSDReadTransient:  0.3,
		fault.SSDWritePermanent: 0.02,
		fault.JournalTorn:       0.1,
	}})
	rng := rand.New(rand.NewSource(1))
	last := v.Now()
	var writes, reads, trims int64
	sawError := false
	for op := 0; op < 600; op++ {
		lba := rng.Int63n(96)
		var err error
		switch rng.Intn(8) {
		case 0, 1, 2, 3:
			_, err = v.Write(lba, block(rng.Intn(64)))
			writes++
		case 4:
			_, err = v.Trim(lba)
			trims++
		case 5:
			_, err = v.Clean()
		default:
			_, _, err = v.Read(lba)
			reads++
		}
		if err != nil {
			sawError = true
		}
		if v.Now() < last {
			t.Fatalf("virtual clock went backwards at op %d", op)
		}
		last = v.Now()
		checkSpaceInvariants(t, v, fmt.Sprintf("op %d", op))
	}
	if !sawError {
		t.Fatal("2% permanent write rate over 600 ops should have surfaced an error")
	}
	st := v.Stats()
	if st.Writes != writes || st.Reads != reads || st.Trims != trims {
		t.Fatalf("op counts drifted: stats %d/%d/%d, issued %d/%d/%d",
			st.Writes, st.Reads, st.Trims, writes, reads, trims)
	}
	if st.WriteLat.Count != writes || st.ReadLat.Count != reads || st.TrimLat.Count != trims {
		t.Fatalf("histogram counts drifted: %d/%d/%d, issued %d/%d/%d",
			st.WriteLat.Count, st.ReadLat.Count, st.TrimLat.Count, writes, reads, trims)
	}
}

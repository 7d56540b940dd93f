package serve

import (
	"bytes"
	"fmt"
	"testing"

	"inlinered/internal/fault"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// armShard swaps a fresh drive-level injector into one shard mid-run, the
// serve-layer analogue of the volume error-path tests' armFaults: build
// clean state first, then fault specific operations.
func armShard(a *Array, i int, cfg fault.Config) {
	a.shards[i].v.Drive().SetFaultInjector(fault.New(cfg))
}

func disarmShard(a *Array, i int) {
	a.shards[i].v.Drive().SetFaultInjector(nil)
}

// dirtyArray builds a faultless array whose shards hold half-garbage
// segments, so Clean has real moving to do on every shard.
func dirtyArray(t *testing.T, shards int) *Array {
	t.Helper()
	cfg := testConfig(shards)
	cfg.Volume.Faults = fault.Config{}
	cfg.Volume.Compress = false // raw blobs: predictable sizes, many per segment
	cfg.Volume.SegmentBytes = 128 << 10
	cfg.Volume.CleanThreshold = 0.3
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, cfg.Volume.BlockSize)
	const n = 512
	for i := 0; i < n; i++ {
		for b := range payload {
			payload[b] = byte(i + b)
		}
		if _, err := a.Write(int64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Trim every other SHARD-LOCAL block (lba/shards is the local address),
	// so every shard ends up half garbage regardless of the shard count.
	for i := 0; i < n; i++ {
		if (i/shards)%2 == 0 {
			if _, err := a.Trim(int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

// TestArrayCleanFirstErrorPropagation locks the Clean contract at the
// array layer: one shard dying on a permanent write fault surfaces the
// error, but every OTHER shard still cleans (the error is collected, not
// short-circuited), the failing shard's spent drive time commits to the
// clock, and the merged garbage accounting stays sane.
func TestArrayCleanFirstErrorPropagation(t *testing.T) {
	a := dirtyArray(t, 4)
	armShard(a, 1, fault.Config{Seed: 2, Rates: fault.Rates{SSDWritePermanent: 1}})
	now := a.Now()

	cleaned, err := a.Clean()
	if err == nil {
		t.Fatal("permanent write faults on shard 1 must surface from Clean")
	}
	if cleaned == 0 {
		t.Fatal("error on one shard starved the others: nothing cleaned")
	}
	if got := a.Now(); got <= now {
		t.Fatalf("failed clean's drive time vanished: now=%v, was %v", got, now)
	}
	st := a.Stats()
	if st.GarbageBytes < 0 {
		t.Fatalf("GarbageBytes went negative: %d", st.GarbageBytes)
	}
	if st.CleanRuns == 0 {
		t.Fatal("clean runs not counted across shards")
	}

	// Recovery: disarm and clean to completion; surviving data intact.
	disarmShard(a, 1)
	if _, err := a.Clean(); err != nil {
		t.Fatalf("clean after disarm: %v", err)
	}
	payload := make([]byte, a.cfg.Volume.BlockSize)
	for i := 0; i < 512; i++ {
		if (i/4)%2 == 0 {
			continue // trimmed by dirtyArray
		}
		for b := range payload {
			payload[b] = byte(i + b)
		}
		got, _, err := a.Read(int64(i))
		if err != nil {
			t.Fatalf("lba %d after recovery: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("lba %d corrupted by interrupted cleaning", i)
		}
	}
}

// TestArrayTrimErrorPath: trims reject out-of-range LBAs, succeed on
// unmapped blocks, and — under aggressive injected faults on every shard —
// still count exactly once in the merged stats and histograms with a
// monotone clock (the error-path accounting contract, one layer up).
func TestArrayTrimErrorPath(t *testing.T) {
	a := dirtyArray(t, 4)
	if _, err := a.Trim(-1); err == nil {
		t.Fatal("negative lba accepted")
	}
	if _, err := a.Trim(a.Blocks()); err == nil {
		t.Fatal("lba past capacity accepted")
	}
	for i := range a.shards {
		armShard(a, i, fault.Config{Seed: int64(i), Rates: fault.Rates{
			SSDWriteTransient: 0.3,
			SSDReadTransient:  0.3,
			SSDWritePermanent: 0.05,
		}})
	}
	before := a.Stats()
	last := a.Now()
	var trims int64
	for lba := int64(0); lba < 256; lba++ { // half mapped, half already trimmed
		if _, err := a.Trim(lba); err != nil {
			t.Fatalf("trim lba %d under faults: %v", lba, err)
		}
		trims++
		if now := a.Now(); now < last {
			t.Fatalf("clock went backwards at trim %d", lba)
		} else {
			last = now
		}
	}
	st := a.Stats()
	if st.Trims != before.Trims+trims {
		t.Fatalf("trims drifted: %d, want %d", st.Trims, before.Trims+trims)
	}
	if st.TrimLat.Count != before.TrimLat.Count+trims {
		t.Fatalf("trim histogram drifted: %d, want %d", st.TrimLat.Count, before.TrimLat.Count+trims)
	}
	if st.GarbageBytes < 0 {
		t.Fatalf("GarbageBytes went negative: %d", st.GarbageBytes)
	}
}

// TestServeCountsFaultedOps: a batch whose reads all exhaust their
// transient retries reports every failure in Errors — and the failed ops
// still commit to the clock, the stats, and the histograms exactly once.
func TestServeCountsFaultedOps(t *testing.T) {
	cfg := testConfig(2)
	cfg.Volume.Faults = fault.Config{}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Map some blocks first (unmapped reads never touch media, so they
	// cannot fault).
	fill := make([]workload.Op, 64)
	for i := range fill {
		fill[i] = workload.Op{Kind: workload.OpWrite, LBA: int64(i), Content: int32(i)}
	}
	if _, err := a.Serve(fill, RunOptions{ContentSeed: 9}); err != nil {
		t.Fatal(err)
	}
	for i := range a.shards {
		armShard(a, i, fault.Config{Seed: int64(i), Rates: fault.Rates{SSDReadTransient: 1}})
	}
	before := a.Stats()
	reads := make([]workload.Op, 64)
	for i := range reads {
		reads[i] = workload.Op{Kind: workload.OpRead, LBA: int64(i)}
	}
	rep, err := a.Serve(reads, RunOptions{ContentSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != int64(len(reads)) {
		t.Fatalf("errors = %d, want %d (every mapped read must exhaust retries)", rep.Errors, len(reads))
	}
	if rep.Elapsed <= 0 {
		t.Fatal("failed reads consumed no virtual time")
	}
	st := a.Stats()
	if st.Reads != before.Reads+int64(len(reads)) {
		t.Fatalf("failed reads not counted: %d, want %d", st.Reads, before.Reads+int64(len(reads)))
	}
	if st.ReadLat.Count != before.ReadLat.Count+int64(len(reads)) {
		t.Fatalf("failed reads invisible in histogram: %d, want %d",
			st.ReadLat.Count, before.ReadLat.Count+int64(len(reads)))
	}
	if st.SSDReadRetries != before.SSDReadRetries+int64(len(reads))*fault.MaxRetries {
		t.Fatalf("retries: %d, want %d", st.SSDReadRetries,
			before.SSDReadRetries+int64(len(reads))*fault.MaxRetries)
	}

	// Disarmed, the same batch serves clean: injected faults never
	// corrupted the stored data.
	for i := range a.shards {
		disarmShard(a, i)
	}
	rep, err = a.Serve(reads, RunOptions{ContentSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors after disarm: %d", rep.Errors)
	}
}

// TestShardStatsSumToMerged cross-checks the merge: per-shard counter sums
// must equal the merged counters for a mixed faulted run.
func TestShardStatsSumToMerged(t *testing.T) {
	a, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Serve(testOps(t), RunOptions{ContentSeed: 9, CleanEvery: 50}); err != nil {
		t.Fatal(err)
	}
	checkShardStatsSumToMerged(t, a)
}

// checkShardStatsSumToMerged asserts the accounting identity on a quiescent
// array: summing ShardStats' counters reproduces Stats' exactly.
func checkShardStatsSumToMerged(t *testing.T, a *Array) {
	t.Helper()
	var sum volume.Stats
	for _, st := range a.ShardStats() {
		sum.AddCounters(st)
	}
	merged := a.Stats()
	merged.WriteLat, merged.ReadLat, merged.TrimLat, merged.JournalFlushLat = sum.WriteLat, sum.ReadLat, sum.TrimLat, sum.JournalFlushLat
	if fmt.Sprintf("%+v", merged) != fmt.Sprintf("%+v", sum) {
		t.Fatalf("shard counters do not sum to merged stats:\nsum:    %+v\nmerged: %+v", sum, merged)
	}
}

package volume

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"inlinered/internal/dedup"
	"inlinered/internal/fault"
)

// faultConfig is smallConfig with the read cache off (so reads exercise the
// SSD path) and a small bin index (so inserts actually flush to the journal).
func faultConfig() Config {
	cfg := smallConfig()
	cfg.CacheBytes = 0
	cfg.Index.BinBits = 4
	cfg.Index.BufferEntries = 4
	return cfg
}

// --- satellite error paths (no injection) ---

func TestTrimNeverWrittenLBA(t *testing.T) {
	v := newVolume(t, smallConfig())
	if _, err := v.Trim(5); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.Trims != 1 {
		t.Fatalf("trims: %d", st.Trims)
	}
	if st.LogicalBytes != 0 || st.GarbageBytes != 0 || st.StoredBytes != 0 {
		t.Fatalf("trim of a never-written lba must not move space accounting: %+v", st)
	}
	got, _, err := v.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("never-written lba must read zeros")
		}
	}
}

func TestAllocOutOfSpaceAndCleanOnFullDrive(t *testing.T) {
	// A tiny drive with raw (uncompressed) unique blocks fills fast.
	cfg := smallConfig()
	cfg.SSD.BlocksPerChannel = 4 // 8ch * 4blk * 128pg * 4K = 16 MiB physical
	cfg.Compress = false
	cfg.CacheBytes = 0
	v := newVolume(t, cfg)

	// Fill until the log refuses.
	var full error
	var written int64
	for lba := int64(0); lba < v.cfg.Blocks; lba++ {
		if _, err := v.Write(lba, block(int(lba))); err != nil {
			full = err
			break
		}
		written++
	}
	if full == nil {
		t.Fatal("tiny drive never filled")
	}
	if written == 0 {
		t.Fatal("no writes landed before the log filled")
	}
	// The failed write must not have corrupted anything: every accepted
	// block still reads back.
	for _, lba := range []int64{0, written / 2, written - 1} {
		got, _, err := v.Read(lba)
		if err != nil {
			t.Fatalf("lba %d after full: %v", lba, err)
		}
		if !bytes.Equal(got, block(int(lba))) {
			t.Fatalf("lba %d corrupted by out-of-space write", lba)
		}
	}

	// Cleaning a full drive with live data everywhere has no headroom to
	// move blobs into: it must fail gracefully, not corrupt.
	for lba := int64(0); lba < written; lba += 2 {
		if _, err := v.Trim(lba); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Clean(); err == nil {
		t.Fatal("cleaning a headroom-less full drive should report the allocation failure")
	}
	if got, _, err := v.Read(1); err != nil || !bytes.Equal(got, block(1)) {
		t.Fatal("failed clean corrupted surviving data")
	}

	// Dropping the rest makes whole segments dead; cleaning then reclaims
	// them and the volume accepts writes again.
	for lba := int64(1); lba < written; lba += 2 {
		if _, err := v.Trim(lba); err != nil {
			t.Fatal(err)
		}
	}
	cleaned, err := v.Clean()
	if err != nil {
		t.Fatal(err)
	}
	if cleaned == 0 {
		t.Fatal("fully-dead segments should be reclaimed")
	}
	if _, err := v.Write(0, block(424242)); err != nil {
		t.Fatalf("write after cleaning a full drive: %v", err)
	}
	if got, _, err := v.Read(0); err != nil || !bytes.Equal(got, block(424242)) {
		t.Fatal("post-clean write round trip failed")
	}
}

// --- injected faults ---

func TestVolumeTransientFaultsAbsorbed(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = fault.Config{
		Seed: 42,
		Rates: fault.Rates{
			SSDWriteTransient: 0.1,
			SSDReadTransient:  0.1,
			SSDLatencySpike:   0.05,
		},
	}
	v := newVolume(t, cfg)
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := v.Write(int64(i), block(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got, _, err := v.Read(int64(i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, block(i)) {
			t.Fatalf("lba %d corrupted under transient faults", i)
		}
	}
	st := v.Stats()
	if st.SSDWriteRetries == 0 {
		t.Fatal("no write retries at 10% transient-write rate")
	}
	if st.SSDReadRetries == 0 {
		t.Fatal("no read retries at 10% transient-read rate")
	}
	if st.LatencySpikes == 0 {
		t.Fatal("no latency spikes at 5% spike rate")
	}
	if st.JournalRecords == 0 {
		t.Fatal("small bin buffers should have journaled flushes")
	}
}

func TestVolumeFaultDeterminism(t *testing.T) {
	run := func() (Stats, int64) {
		cfg := faultConfig()
		cfg.SegmentBytes = 128 << 10
		cfg.Faults = fault.Config{Seed: 11, Rates: fault.Uniform(0.05)}
		v := newVolume(t, cfg)
		rng := rand.New(rand.NewSource(77))
		for op := 0; op < 800; op++ {
			lba := rng.Int63n(128)
			switch rng.Intn(8) {
			case 0, 1, 2, 3:
				if _, err := v.Write(lba, block(rng.Intn(100))); err != nil {
					t.Fatal(err)
				}
			case 4:
				if _, err := v.Trim(lba); err != nil {
					t.Fatal(err)
				}
			case 5:
				if _, err := v.Clean(); err != nil {
					t.Fatal(err)
				}
			default:
				if _, _, err := v.Read(lba); err != nil {
					t.Fatal(err)
				}
			}
		}
		return v.Stats(), int64(v.Now())
	}
	st1, now1 := run()
	st2, now2 := run()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("stats diverged for same fault seed:\n%+v\n%+v", st1, st2)
	}
	if now1 != now2 {
		t.Fatalf("virtual clock diverged for same fault seed: %d vs %d", now1, now2)
	}
	if st1.SSDWriteRetries+st1.SSDReadRetries+st1.LatencySpikes == 0 {
		t.Fatal("uniform 5% rates over 800 ops should have fired")
	}
}

func TestVolumeZeroRateIdentity(t *testing.T) {
	run := func(fc fault.Config) (Stats, int64) {
		cfg := faultConfig()
		cfg.Faults = fc
		v := newVolume(t, cfg)
		for i := 0; i < 150; i++ {
			if _, err := v.Write(int64(i%64), block(i%40)); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 64; i++ {
			if _, _, err := v.Read(i); err != nil {
				t.Fatal(err)
			}
		}
		return v.Stats(), int64(v.Now())
	}
	stOff, nowOff := run(fault.Config{})
	stZero, nowZero := run(fault.Config{Seed: 1234}) // seed set, all rates zero
	if !reflect.DeepEqual(stOff, stZero) || nowOff != nowZero {
		t.Fatalf("zero-rate injection perturbed the run:\n%+v (now=%d)\n%+v (now=%d)",
			stOff, nowOff, stZero, nowZero)
	}
	if stZero.SSDWriteRetries != 0 || stZero.LatencySpikes != 0 || stZero.JournalTornRecords != 0 {
		t.Fatalf("zero-rate run recorded fault activity: %+v", stZero)
	}
}

func TestVolumeTornJournalRecovers(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = fault.Config{Seed: 5, Rates: fault.Rates{JournalTorn: 0.15}}
	v := newVolume(t, cfg)
	for i := 0; i < 300; i++ {
		if _, err := v.Write(int64(i), block(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := v.Stats()
	if st.JournalTornRecords == 0 {
		t.Fatal("15% torn rate over many flushes should have fired")
	}
	idx, rcv, err := v.RecoverIndex()
	if err != nil {
		t.Fatal(err)
	}
	if !rcv.Truncated {
		t.Fatal("recovery over a torn image should truncate")
	}
	// Every recovered entry must point at a live, correctly-sized blob.
	locs := liveLocs(v)
	idx.Walk(func(bin uint32, key []byte, e dedup.Entry) bool {
		ref, ok := locs[e.Loc]
		if !ok {
			t.Fatalf("recovered entry points at unknown loc %d", e.Loc)
		}
		if uint32(len(ref.blob)) != e.Size {
			t.Fatalf("recovered size %d != stored %d at loc %d", e.Size, len(ref.blob), e.Loc)
		}
		return true
	})
	if _, err := v.RecoverIndexStrict(); !errors.Is(err, dedup.ErrJournalCorrupt) {
		t.Fatalf("strict replay of a torn journal: want ErrJournalCorrupt, got %v", err)
	}
}

func TestVolumeJournalWriteFailureDegrades(t *testing.T) {
	v := newVolume(t, faultConfig())
	// Arm a permanent-write injector directly (uniform injection can't
	// reach this path: a data write would fail first and surface).
	armFaults(v, fault.Config{Seed: 3, Rates: fault.Rates{SSDWritePermanent: 1}})

	flush := fabricateFlush(t)
	v.journalFlush(0, flush)
	if !v.sub.Journal.Dead() {
		t.Fatal("permanent journal-write failure must degrade journaling off")
	}
	if got := v.Stats().JournalWriteFailures; got != 1 {
		t.Fatalf("failures: %d", got)
	}
	if len(v.JournalImage()) != 0 {
		t.Fatal("a failed journal write must not reach the durable image")
	}
	// Degraded mode: later flushes are dropped silently, the volume lives on.
	v.journalFlush(0, flush)
	if v.Stats().JournalWriteFailures != 1 {
		t.Fatal("degraded journaling must not re-count failures")
	}
	disarmFaults(v)
	if _, err := v.Write(0, block(1)); err != nil {
		t.Fatalf("degraded volume must keep serving writes: %v", err)
	}
	if got, _, err := v.Read(0); err != nil || !bytes.Equal(got, block(1)) {
		t.Fatal("degraded volume round trip failed")
	}
}

// fabricateFlush builds a real bin-buffer flush from a scratch index.
func fabricateFlush(t *testing.T) *dedup.Flush {
	t.Helper()
	idx, err := dedup.NewBinIndex(dedup.IndexConfig{BinBits: 4, BufferEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	ir := idx.Insert(dedup.Sum(block(9)), dedup.Entry{Loc: 64, Size: 128})
	if ir.Flush == nil {
		t.Fatal("1-entry buffer should flush on insert")
	}
	return ir.Flush
}

// --- crash consistency ---

// liveLocs maps log offsets to their live chunkRefs.
func liveLocs(v *Volume) map[int64]*chunkRef {
	locs := make(map[int64]*chunkRef, len(v.chunks))
	for _, ref := range v.chunks {
		locs[ref.loc] = ref
	}
	return locs
}

// TestVolumeCrashPoints cuts the journal image at every byte boundary and
// checks the acceptance criterion: each cut recovers a consistent prefix of
// the flush history, and every pre-crash location the recovered index
// references reads back byte-identical through the volume.
func TestVolumeCrashPoints(t *testing.T) {
	cfg := faultConfig()
	v := newVolume(t, cfg)
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := v.Write(int64(i), block(i)); err != nil {
			t.Fatal(err)
		}
	}
	image := v.JournalImage()
	if len(image) == 0 {
		t.Fatal("workload produced no journal")
	}
	locs := liveLocs(v)
	locToLBA := make(map[int64]int64, len(v.lbaMap))
	for lba, fp := range v.lbaMap {
		locToLBA[v.chunks[fp].loc] = lba
	}

	verified := make(map[int64]bool) // locs whose read-back already checked
	prevRecords := 0
	for cut := 0; cut <= len(image); cut++ {
		idx, rcv, err := dedup.RecoverJournal(image[:cut], cfg.Index)
		if err != nil {
			t.Fatalf("cut %d: recovery must be lenient: %v", cut, err)
		}
		if rcv.Records < prevRecords {
			t.Fatalf("cut %d: recovered records went backwards (%d -> %d)", cut, prevRecords, rcv.Records)
		}
		prevRecords = rcv.Records
		idx.Walk(func(bin uint32, key []byte, e dedup.Entry) bool {
			ref, ok := locs[e.Loc]
			if !ok {
				t.Fatalf("cut %d: recovered entry references unwritten loc %d", cut, e.Loc)
			}
			if uint32(len(ref.blob)) != e.Size {
				t.Fatalf("cut %d: size mismatch at loc %d", cut, e.Loc)
			}
			if !verified[e.Loc] {
				lba := locToLBA[e.Loc]
				got, _, err := v.Read(lba)
				if err != nil {
					t.Fatalf("cut %d: read-back of lba %d: %v", cut, lba, err)
				}
				if !bytes.Equal(got, block(int(lba))) {
					t.Fatalf("cut %d: lba %d not byte-identical after recovery", cut, lba)
				}
				verified[e.Loc] = true
			}
			return true
		})
	}
	if prevRecords == 0 {
		t.Fatal("full image recovered zero records")
	}
	// The clean, uncut image must also satisfy the strict replayer.
	if _, err := v.RecoverIndexStrict(); err != nil {
		t.Fatalf("strict replay of a clean journal: %v", err)
	}
}

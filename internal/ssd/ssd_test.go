package ssd

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"inlinered/internal/fault"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.PagesPerBlock = 8
	cfg.BlocksPerChannel = 16
	cfg.OverProvision = 0.25
	cfg.GCFreeBlocks = 2
	return cfg
}

func TestNominalRates(t *testing.T) {
	d := New(DefaultConfig())
	if got := d.NominalWriteIOPS(); got != 80_000 {
		t.Fatalf("nominal IOPS: got %g, want 80000", got)
	}
}

func TestPagesRounding(t *testing.T) {
	d := New(DefaultConfig())
	cases := []struct{ bytes, want int }{
		{0, 0}, {-3, 0}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2},
	}
	for _, c := range cases {
		if got := d.Pages(c.bytes); got != c.want {
			t.Errorf("Pages(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestWriteStripesAcrossChannels(t *testing.T) {
	d := New(smallConfig())
	// Two pages, two channels: both complete after one program latency.
	end, err := d.Write(0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if end != d.ProgramLatency {
		t.Fatalf("2 pages on 2 channels: got %v, want %v", end, d.ProgramLatency)
	}
	// Four pages: two waves.
	d2 := New(smallConfig())
	end, err = d2.Write(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if end != 2*d.ProgramLatency {
		t.Fatalf("4 pages on 2 channels: got %v, want %v", end, 2*d.ProgramLatency)
	}
}

func TestWriteBeyondLogicalSpace(t *testing.T) {
	d := New(smallConfig())
	if _, err := d.Write(0, d.LogicalPages(), 1); err == nil {
		t.Fatal("write past logical space should error")
	}
	if _, err := d.Write(0, -1, 1); err == nil {
		t.Fatal("negative lpn should error")
	}
}

// TestReadOutsideLogicalSpace: a read range outside the logical space is
// rejected the way Write rejects it, before the injector is consulted, so
// the error is never transient and fetches nothing.
func TestReadOutsideLogicalSpace(t *testing.T) {
	d := New(smallConfig())
	d.SetFaultInjector(fault.New(fault.Config{Seed: 1, Rates: fault.Rates{fault.SSDReadTransient: 1}}))
	for _, r := range []struct {
		lpn int64
		n   int
	}{{-1, 1}, {d.LogicalPages() - 1, 2}} {
		_, err := d.Read(0, r.lpn, r.n)
		if err == nil {
			t.Fatalf("read [%d,%d) outside the logical space should error", r.lpn, r.lpn+int64(r.n))
		}
		if fault.IsTransient(err) {
			t.Fatalf("read [%d,%d): range error must not be transient: %v", r.lpn, r.lpn+int64(r.n), err)
		}
	}
	if st := d.Stats(); st.HostReadPages != 0 || st.ReadFaults != 0 {
		t.Fatalf("rejected reads must fetch nothing and consult no injector: %+v", st)
	}
}

func TestOverwriteInvalidates(t *testing.T) {
	d := New(smallConfig())
	if _, err := d.Write(0, 7, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(0, 7, 1); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.HostWritePages != 2 || st.NANDWritePages != 2 {
		t.Fatalf("stats after overwrite: %+v", st)
	}
	// Exactly one valid mapping should remain.
	valid := 0
	for _, ch := range d.chans {
		for b := range ch.blocks {
			valid += ch.blocks[b].valid
		}
	}
	if valid != 1 {
		t.Fatalf("valid pages after overwrite: got %d, want 1", valid)
	}
}

func TestTrim(t *testing.T) {
	d := New(smallConfig())
	if _, err := d.Write(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	d.Trim(0, 4)
	if got := d.Stats().TrimmedPages; got != 4 {
		t.Fatalf("trimmed: got %d, want 4", got)
	}
	d.Trim(100, 2) // unmapped: no-op
	if got := d.Stats().TrimmedPages; got != 4 {
		t.Fatalf("trim of unmapped pages should not count: got %d", got)
	}
}

func TestReadChargesChannels(t *testing.T) {
	d := New(smallConfig())
	d.Write(0, 0, 1)
	end, err := d.Read(time.Second, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if end != time.Second+d.ReadLatency {
		t.Fatalf("read end: got %v", end)
	}
	if d.Stats().HostReadPages != 1 {
		t.Fatalf("read accounting: %+v", d.Stats())
	}
}

func TestGCProducesWriteAmplification(t *testing.T) {
	d := New(smallConfig())
	logical := d.LogicalPages()
	rng := rand.New(rand.NewSource(1))
	// Random overwrites over the whole logical space, several drive-fills.
	var at time.Duration
	for i := int64(0); i < 6*logical; i++ {
		lpn := rng.Int63n(logical)
		if _, err := d.Write(at, lpn, 1); err != nil {
			t.Fatalf("write %d failed: %v", i, err)
		}
	}
	st := d.Stats()
	if st.GCRuns == 0 || st.Erases == 0 {
		t.Fatalf("expected GC activity: %+v", st)
	}
	wa := st.WriteAmplification()
	if wa <= 1.0 {
		t.Fatalf("random overwrite must amplify writes: WA=%g", wa)
	}
	if wa > 10 {
		t.Fatalf("implausible write amplification: WA=%g", wa)
	}
	if d.MaxErase() == 0 {
		t.Fatal("wear accounting should record erases")
	}
}

func TestSequentialWriteLowAmplification(t *testing.T) {
	// Sequential whole-space rewrites invalidate whole blocks at a time, so
	// GC finds empty victims and WA stays ~1.
	d := New(smallConfig())
	logical := d.LogicalPages()
	for pass := 0; pass < 6; pass++ {
		for lpn := int64(0); lpn < logical; lpn++ {
			if _, err := d.Write(0, lpn, 1); err != nil {
				t.Fatalf("pass %d lpn %d: %v", pass, lpn, err)
			}
		}
	}
	wa := d.Stats().WriteAmplification()
	if wa > 1.1 {
		t.Fatalf("sequential rewrite WA should stay near 1, got %g", wa)
	}
}

func TestSequentialBeatsRandomWA(t *testing.T) {
	run := func(random bool) float64 {
		d := New(smallConfig())
		logical := d.LogicalPages()
		rng := rand.New(rand.NewSource(9))
		for i := int64(0); i < 5*logical; i++ {
			lpn := i % logical
			if random {
				lpn = rng.Int63n(logical)
			}
			if _, err := d.Write(0, lpn, 1); err != nil {
				panic(err)
			}
		}
		return d.Stats().WriteAmplification()
	}
	seq, rnd := run(false), run(true)
	if seq >= rnd {
		t.Fatalf("sequential WA (%g) should beat random WA (%g)", seq, rnd)
	}
}

func TestWriteAmplificationZeroBeforeWrites(t *testing.T) {
	if (Stats{}).WriteAmplification() != 0 {
		t.Fatal("WA before any write should be 0")
	}
}

func TestUtilizationAndHorizon(t *testing.T) {
	d := New(smallConfig())
	end, _ := d.Write(0, 0, 2)
	if d.Horizon() != end {
		t.Fatalf("horizon: got %v, want %v", d.Horizon(), end)
	}
	if u := d.Utilization(end); u <= 0 || u > 1 {
		t.Fatalf("utilization out of range: %g", u)
	}
	if d.Utilization(0) != 0 {
		t.Fatal("utilization over empty window should be 0")
	}
}

func TestNewValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.BlocksPerChannel = 1 },
		func(c *Config) { c.OverProvision = 1.5 },
	}
	for i, mut := range bad {
		cfg := smallConfig()
		mut(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New should panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

// Mapping invariant: after arbitrary writes and trims, every l2p entry
// points at a valid physical page whose recorded lpn matches, and the
// number of valid pages equals the number of mappings.
func TestMappingInvariant(t *testing.T) {
	d := New(smallConfig())
	logical := d.LogicalPages()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		lpn := rng.Int63n(logical)
		if rng.Intn(10) == 0 {
			d.Trim(lpn, 1)
			continue
		}
		if _, err := d.Write(0, lpn, 1); err != nil {
			t.Fatal(err)
		}
	}
	valid := 0
	for _, ch := range d.chans {
		for b := range ch.blocks {
			for p, st := range ch.blocks[b].state {
				if !st.valid {
					continue
				}
				valid++
				m, ok := d.l2p[st.lpn]
				if !ok {
					t.Fatalf("valid page for lpn %d has no mapping", st.lpn)
				}
				if int(m.blk) != b || int(m.page) != p {
					t.Fatalf("mapping for lpn %d points elsewhere", st.lpn)
				}
			}
		}
	}
	if valid != len(d.l2p) {
		t.Fatalf("valid pages (%d) != mappings (%d)", valid, len(d.l2p))
	}
}

// --- fault injection ---

func TestInjectedWriteFaults(t *testing.T) {
	d := New(smallConfig())
	d.SetFaultInjector(fault.New(fault.Config{
		Seed:  1,
		Rates: fault.Rates{fault.SSDWriteTransient: 1},
	}))
	_, err := d.Write(0, 0, 1)
	if err == nil || !fault.IsTransient(err) {
		t.Fatalf("want transient write fault, got %v", err)
	}
	st := d.Stats()
	if st.WriteFaults != 1 {
		t.Fatalf("WriteFaults = %d, want 1", st.WriteFaults)
	}
	if st.HostWritePages != 0 || st.NANDWritePages != 0 {
		t.Fatalf("failed write must program nothing: %+v", st)
	}
}

func TestInjectedPermanentWriteFault(t *testing.T) {
	d := New(smallConfig())
	d.SetFaultInjector(fault.New(fault.Config{
		Seed:  1,
		Rates: fault.Rates{fault.SSDWritePermanent: 1},
	}))
	_, err := d.Write(0, 0, 1)
	if err == nil || !errors.Is(err, fault.ErrPermanent) {
		t.Fatalf("want permanent write fault, got %v", err)
	}
	if fault.IsTransient(err) {
		t.Fatal("permanent fault must not classify as transient")
	}
}

func TestInjectedReadFaults(t *testing.T) {
	d := New(smallConfig())
	if _, err := d.Write(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	d.SetFaultInjector(fault.New(fault.Config{
		Seed:  2,
		Rates: fault.Rates{fault.SSDReadTransient: 1},
	}))
	before := d.Stats().HostReadPages
	_, err := d.Read(0, 0, 1)
	if err == nil || !fault.IsTransient(err) {
		t.Fatalf("want transient read fault, got %v", err)
	}
	st := d.Stats()
	if st.ReadFaults != 1 {
		t.Fatalf("ReadFaults = %d, want 1", st.ReadFaults)
	}
	if st.HostReadPages != before {
		t.Fatal("failed read must fetch nothing")
	}
}

func TestInjectedLatencySpike(t *testing.T) {
	d := New(smallConfig())
	d.SetFaultInjector(fault.New(fault.Config{
		Seed:  3,
		Rates: fault.Rates{fault.SSDLatencySpike: 1},
	}))
	end, err := d.Write(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if end < 2*time.Millisecond+d.ProgramLatency {
		t.Fatalf("spiked write finished too early: %v", end)
	}
	if end > 8*time.Millisecond+d.ProgramLatency {
		t.Fatalf("spike exceeds 4x the 2ms base: %v", end)
	}
	if d.Stats().LatencySpikes != 1 {
		t.Fatalf("LatencySpikes = %d, want 1", d.Stats().LatencySpikes)
	}
}

// Two drives with the same seed and request sequence make identical fault
// decisions and land on identical completion times and stats.
func TestFaultDeterminism(t *testing.T) {
	run := func() (Stats, time.Duration, int) {
		d := New(smallConfig())
		d.SetFaultInjector(fault.New(fault.Config{
			Seed:  42,
			Rates: fault.Uniform(0.2),
		}))
		var at time.Duration
		failures := 0
		for i := int64(0); i < 200; i++ {
			end, err := d.Write(at, i%d.LogicalPages(), 1)
			if err != nil {
				failures++
				continue
			}
			at = end
		}
		return d.Stats(), at, failures
	}
	s1, t1, f1 := run()
	s2, t2, f2 := run()
	if s1 != s2 || t1 != t2 || f1 != f2 {
		t.Fatalf("same seed diverged:\n%+v %v %d\n%+v %v %d", s1, t1, f1, s2, t2, f2)
	}
	if s1.WriteFaults == 0 || s1.LatencySpikes == 0 {
		t.Fatalf("expected injected activity at rate 0.2: %+v", s1)
	}
}

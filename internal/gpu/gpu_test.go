package gpu

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"inlinered/internal/fault"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.ComputeUnits = 2
	cfg.WavefrontSize = 4
	cfg.ClockHz = 1e9
	cfg.LaunchOverhead = 10 * time.Microsecond
	cfg.PCIeSetup = time.Microsecond
	cfg.PCIeBytesPerSec = 1e9
	cfg.DeviceMemBytes = 1 << 20
	return cfg
}

func TestWavefrontsLockstep(t *testing.T) {
	// 8 items, wavefront of 4: waves cost max(1,2,3,4)=4 and max(10,1,1,1)=10.
	p := Wavefronts([]float64{1, 2, 3, 4, 10, 1, 1, 1}, 4)
	if p.Items != 8 || p.Waves != 2 {
		t.Fatalf("items/waves: %d/%d", p.Items, p.Waves)
	}
	if p.SumWaveCycles != 14 {
		t.Fatalf("SumWaveCycles: got %g, want 14", p.SumWaveCycles)
	}
	if p.LaneCycles != 23 {
		t.Fatalf("LaneCycles: got %g, want 23", p.LaneCycles)
	}
}

func TestWavefrontsPartialWave(t *testing.T) {
	p := Wavefronts([]float64{5, 7}, 4)
	if p.Waves != 1 || p.SumWaveCycles != 7 {
		t.Fatalf("partial wave: waves=%d sum=%g", p.Waves, p.SumWaveCycles)
	}
}

func TestDivergenceFactor(t *testing.T) {
	// Uniform lanes: no divergence.
	p := Wavefronts([]float64{3, 3, 3, 3}, 4)
	if got := p.DivergenceFactor(4); got != 1.0 {
		t.Fatalf("uniform divergence: got %g, want 1", got)
	}
	// One hot lane: wave costs 8, lanes total 8+3 = 11; factor = 8*4/11.
	p = Wavefronts([]float64{8, 1, 1, 1}, 4)
	want := 8.0 * 4 / 11
	if got := p.DivergenceFactor(4); got != want {
		t.Fatalf("divergence: got %g, want %g", got, want)
	}
	if (Profile{}).DivergenceFactor(4) != 1 {
		t.Fatal("empty profile should report factor 1")
	}
}

func TestLaunchChargesOverheadAndCompute(t *testing.T) {
	d := New(testConfig())
	// 2 waves of 1000 cycles each on 2 CUs -> 1000 cycles at 1 GHz = 1 µs.
	k := func() Profile {
		return Profile{Items: 8, Waves: 2, SumWaveCycles: 2000, LaneCycles: 8000}
	}
	end, _, _ := d.Launch(0, "k", k)
	want := 10*time.Microsecond + time.Microsecond
	if end != want {
		t.Fatalf("launch end: got %v, want %v", end, want)
	}
	if d.Kernels() != 1 {
		t.Fatalf("kernel count: %d", d.Kernels())
	}
}

func TestLaunchSerializesOnQueue(t *testing.T) {
	d := New(testConfig())
	k := func() Profile { return Profile{} }
	end1, _, _ := d.Launch(0, "k", k)
	end2, _, _ := d.Launch(0, "k", k)
	if end2 != end1+d.LaunchOverhead {
		t.Fatalf("second kernel should queue: end1=%v end2=%v", end1, end2)
	}
	if !d.Busy(0) {
		t.Fatal("device should be busy at t=0")
	}
}

func TestLaunchOverheadFloor(t *testing.T) {
	// The architectural point of §3.1(3): tiny kernels cost the launch
	// overhead no matter how little work they do.
	d := New(testConfig())
	k := func() Profile {
		return Wavefronts([]float64{1}, d.WavefrontSize)
	}
	end, _, _ := d.Launch(0, "k", k)
	if end < d.LaunchOverhead {
		t.Fatalf("kernel finished before launch overhead: %v < %v", end, d.LaunchOverhead)
	}
}

func TestTransfers(t *testing.T) {
	d := New(testConfig())
	end := d.TransferToDevice(0, 1000) // 1 µs setup + 1 µs wire
	if end != 2*time.Microsecond {
		t.Fatalf("HtoD: got %v, want 2µs", end)
	}
	// Shares one link: queued behind the first transfer.
	end2 := d.TransferFromDevice(0, 0)
	if end2 != end+time.Microsecond {
		t.Fatalf("DtoH should queue on the shared link: got %v", end2)
	}
}

func TestAllocFree(t *testing.T) {
	d := New(testConfig())
	b, err := d.Alloc("bins", 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	if d.MemUsed() != 1<<19 || b.Size() != 1<<19 {
		t.Fatalf("mem accounting: used=%d size=%d", d.MemUsed(), b.Size())
	}
	if _, err := d.Alloc("too-big", 1<<20); !errors.Is(err, ErrOutOfDeviceMemory) {
		t.Fatalf("expected out-of-memory, got %v", err)
	}
	d.Free(b)
	if d.MemUsed() != 0 {
		t.Fatalf("free should return memory: used=%d", d.MemUsed())
	}
	d.Free(b) // double free is a no-op
	if _, err := d.Alloc("neg", -1); err == nil {
		t.Fatal("negative alloc should error")
	}
}

func TestResetKeepsBuffers(t *testing.T) {
	d := New(testConfig())
	b, _ := d.Alloc("persistent", 128)
	b.Data[0] = 42
	d.Launch(0, "k", func() Profile { return Profile{} })
	d.Reset()
	if d.Kernels() != 0 || d.Busy(0) {
		t.Fatal("reset should clear timeline")
	}
	if b.Data[0] != 42 || d.MemUsed() != 128 {
		t.Fatal("reset must not free device buffers (the index persists)")
	}
}

func TestNewValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.ComputeUnits = 0 },
		func(c *Config) { c.WavefrontSize = 0 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.PCIeBytesPerSec = 0 },
	}
	for i, mut := range bad {
		cfg := testConfig()
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

// Property: Wavefronts conserves lane cycles and its wave sum is bounded by
// [LaneCycles/w, LaneCycles] (max per wave is between mean and sum).
func TestWavefrontsBoundsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%200) + 1
		w := int(wRaw%16) + 1
		cycles := make([]float64, n)
		var total float64
		for i := range cycles {
			cycles[i] = float64(rng.Intn(1000))
			total += cycles[i]
		}
		p := Wavefronts(cycles, w)
		if p.LaneCycles != total {
			return false
		}
		return p.SumWaveCycles >= total/float64(w)-1e-9 && p.SumWaveCycles <= total+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: divergence factor is always >= 1.
func TestDivergenceAtLeastOneProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%100) + 1
		cycles := make([]float64, n)
		for i := range cycles {
			cycles[i] = float64(rng.Intn(100) + 1)
		}
		p := Wavefronts(cycles, 8)
		return p.DivergenceFactor(8) >= 1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceAccessors(t *testing.T) {
	cfg := testConfig()
	d := New(cfg)
	if d.Lanes() != cfg.ComputeUnits*cfg.WavefrontSize {
		t.Fatalf("lanes: %d", d.Lanes())
	}
	if d.TransferTime(0) != cfg.PCIeSetup {
		t.Fatalf("zero-byte transfer should cost setup only: %v", d.TransferTime(0))
	}
	k := func() Profile {
		return Wavefronts([]float64{100, 200}, 2)
	}
	end, _, _ := d.Launch(0, "acc", k)
	if d.NextFree() != end {
		t.Fatalf("NextFree: %v vs %v", d.NextFree(), end)
	}
	tEnd := d.TransferToDevice(0, 1000)
	if d.Horizon() < tEnd || d.Horizon() < end {
		t.Fatal("horizon must cover queue and link")
	}
	st := d.Stats()
	if st.Items != 2 || st.Waves != 1 {
		t.Fatalf("device stats: %+v", st)
	}
	if u := d.Utilization(end); u <= 0 || u > 1 {
		t.Fatalf("utilization: %g", u)
	}
	if u := d.LinkUtilization(tEnd); u <= 0 || u > 1 {
		t.Fatalf("link utilization: %g", u)
	}
	b, _ := d.Alloc("named", 8)
	if b.Name() != "named" {
		t.Fatal("buffer name")
	}
}

// --- fault injection ---

func TestDeviceLostKillsLaunches(t *testing.T) {
	d := New(testConfig())
	d.SetFaultInjector(fault.New(fault.Config{
		Seed:  1,
		Rates: fault.Rates{GPUDeviceLost: 1},
	}))
	ran := false
	k := func() Profile { ran = true; return Profile{} }

	end, _, err := d.Launch(0, "victim", k)
	if err == nil || !errors.Is(err, fault.ErrDeviceLost) || !strings.Contains(err.Error(), "launch victim") {
		t.Fatalf("want ErrDeviceLost naming the kernel, got %v", err)
	}
	if ran {
		t.Fatal("kernel must not run on a lost device")
	}
	if !d.Lost() {
		t.Fatal("device must report itself lost")
	}
	// The failed dispatch still charged its launch overhead.
	if end != d.LaunchOverhead {
		t.Fatalf("failed dispatch end = %v, want %v", end, d.LaunchOverhead)
	}
	if d.Kernels() != 0 {
		t.Fatalf("no kernel completed, counter says %d", d.Kernels())
	}

	// Every later launch fails fast, without further timeline charges.
	end2, _, err := d.Launch(end, "victim", k)
	if err == nil || !errors.Is(err, fault.ErrDeviceLost) {
		t.Fatalf("launch after loss: want ErrDeviceLost, got %v", err)
	}
	if end2 != end {
		t.Fatalf("launch on a dead device must not advance time: %v -> %v", end, end2)
	}
}

func TestDeviceLossIsDeterministic(t *testing.T) {
	run := func() int {
		d := New(testConfig())
		d.SetFaultInjector(fault.New(fault.Config{
			Seed:  99,
			Rates: fault.Rates{GPUDeviceLost: 0.05},
		}))
		k := func() Profile { return Profile{Items: 1} }
		var at time.Duration
		for i := 0; i < 400; i++ {
			end, _, err := d.Launch(at, "k", k)
			if err != nil {
				return i
			}
			at = end
		}
		return -1
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("loss point diverged for same seed: %d vs %d", a, b)
	}
	if a < 0 {
		t.Fatal("rate 0.05 over 400 launches should have fired")
	}
}

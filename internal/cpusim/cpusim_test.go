package cpusim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Threads: 0, ClockHz: 1e9},
		{Threads: 4, ClockHz: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestTimeConversion(t *testing.T) {
	c := New(Config{Name: "t", Threads: 1, ClockHz: 1e9})
	if got := c.Time(1000); got != time.Microsecond {
		t.Fatalf("1000 cycles at 1 GHz: got %v, want 1µs", got)
	}
	if got := c.Time(-5); got != 0 {
		t.Fatalf("negative cycles: got %v, want 0", got)
	}
}

func TestRunUsesAllThreads(t *testing.T) {
	c := New(Config{Name: "t", Threads: 4, ClockHz: 1e9})
	var last time.Duration
	for i := 0; i < 8; i++ {
		_, end := c.Run(0, 1000)
		last = end
	}
	// 8 jobs of 1µs on 4 threads: 2 waves.
	if last != 2*time.Microsecond {
		t.Fatalf("makespan: got %v, want 2µs", last)
	}
	if got := c.Utilization(last); got != 1.0 {
		t.Fatalf("utilization: got %g, want 1", got)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Threads != 8 || cfg.ClockHz != 3.5e9 {
		t.Fatalf("default config changed unexpectedly: %+v", cfg)
	}
	c := New(cfg)
	// Hashing a 4 KB chunk should take on the order of 10 µs, not ms.
	d := c.Time(cfg.Cost.HashCycles(4096))
	if d < time.Microsecond || d > 100*time.Microsecond {
		t.Fatalf("4 KB SHA-1 cost out of plausible range: %v", d)
	}
}

func TestCostModelMonotonicity(t *testing.T) {
	m := DefaultCostModel()
	if m.HashCycles(8192) <= m.HashCycles(4096) {
		t.Fatal("hash cost must grow with size")
	}
	if m.ProbeCycles(10, 5) <= m.ProbeCycles(0, 0) {
		t.Fatal("probe cost must grow with work")
	}
	if m.CompressCycles(4096, 2048, 100) <= m.CompressCycles(4096, 2048, 0) {
		t.Fatal("compress cost must grow with search steps")
	}
}

// Property: all cost functions are non-negative and monotone in each work
// parameter for non-negative inputs.
func TestCostNonNegativeProperty(t *testing.T) {
	m := DefaultCostModel()
	f := func(a, b, c uint16) bool {
		n, d, s := int(a), int(b), int(c)
		return m.HashCycles(n) >= 0 &&
			m.ChunkCycles(n) >= 0 &&
			m.ProbeCycles(n, d) >= 0 &&
			m.CompressCycles(n, d, s) >= 0 &&
			m.DecompressCycles(n) >= 0 &&
			m.PostProcessCycles(n) >= 0 &&
			m.MemcpyCycles(n) >= 0 &&
			m.CompressCycles(n+1, d, s) >= m.CompressCycles(n, d, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package sim

import (
	"testing"
	"time"
)

func TestSeconds(t *testing.T) {
	if got := Seconds(1.5); got != 1500*time.Millisecond {
		t.Fatalf("Seconds(1.5) = %v", got)
	}
	if got := Seconds(0); got != 0 {
		t.Fatalf("Seconds(0) = %v", got)
	}
}

func TestCycles(t *testing.T) {
	// 3500 cycles at 3.5 GHz = 1 µs.
	if got := Cycles(3500, 3.5e9); got != time.Microsecond {
		t.Fatalf("Cycles = %v, want 1µs", got)
	}
}

func TestCyclesPanicsOnBadFrequency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cycles with hz=0 should panic")
		}
	}()
	Cycles(100, 0)
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("Throughput = %g", got)
	}
	if got := Throughput(1000, 0); got != 0 {
		t.Fatalf("Throughput over zero time = %g, want 0", got)
	}
}

func TestFormatRate(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{2.5e9, "2.50 GB/s"},
		{320e6, "320.00 MB/s"},
		{4.2e3, "4.20 KB/s"},
		{12, "12.00 B/s"},
	}
	for _, c := range cases {
		if got := FormatRate(c.in); got != c.want {
			t.Errorf("FormatRate(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestLinkTransfer(t *testing.T) {
	// 10 µs setup, 1 GB/s.
	l := NewLink("pcie", 10*time.Microsecond, 1e9)
	_, e1 := l.Transfer(0, 1_000_000) // 1 MB -> 1 ms + 10 µs
	want := time.Millisecond + 10*time.Microsecond
	if e1 != want {
		t.Fatalf("transfer end: got %v, want %v", e1, want)
	}
	// Second transfer queued behind the first.
	s2, _ := l.Transfer(0, 1)
	if s2 != e1 {
		t.Fatalf("second transfer start: got %v, want %v", s2, e1)
	}
	if got, want := l.Horizon(), e1+10*time.Microsecond+time.Nanosecond; got != want {
		t.Fatalf("horizon: got %v, want %v", got, want)
	}
	if got := l.Utilization(l.Horizon()); got != 1 {
		t.Fatalf("back-to-back transfers: utilization %g, want 1", got)
	}
}

func TestLinkBacklogAndReset(t *testing.T) {
	l := NewLink("pcie", 0, 1e6)
	l.Transfer(0, 1000) // busy until 1ms
	if got := l.Horizon(); got != time.Millisecond {
		t.Fatalf("horizon: got %v", got)
	}
	// A transfer arriving after the link frees starts on arrival.
	if s, _ := l.Transfer(2*time.Millisecond, 0); s != 2*time.Millisecond {
		t.Fatalf("transfer after free: start %v", s)
	}
	l.Reset()
	if l.Horizon() != 0 || l.Utilization(time.Millisecond) != 0 {
		t.Fatal("reset should clear link state")
	}
	if s, _ := l.Transfer(0, 1); s != 0 {
		t.Fatalf("transfer after reset: start %v, want 0", s)
	}
}

func TestLinkPanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink with zero bandwidth should panic")
		}
	}()
	NewLink("bad", 0, 0)
}

func TestLinkNegativeBytesClamped(t *testing.T) {
	l := NewLink("pcie", time.Microsecond, 1e9)
	if got := l.TransferTime(-5); got != time.Microsecond {
		t.Fatalf("negative bytes: got %v, want setup only", got)
	}
}

func TestAccessorsAndHorizon(t *testing.T) {
	p := NewPool("mypool", 3)
	if p.Servers() != 3 {
		t.Fatal("pool accessors broken")
	}
	p.Acquire(10, 5) // arrival after free: starts on arrival
	if p.Horizon() != 15 || p.NextFree() != 0 {
		t.Fatalf("pool horizon %v next-free %v, want 15 and 0", p.Horizon(), p.NextFree())
	}
	l := NewLink("mylink", time.Microsecond, 1e9)
	if got := l.TransferTime(1e9); got != time.Second+time.Microsecond {
		t.Fatalf("link transfer time: got %v", got)
	}
	_, end := l.Transfer(0, 100)
	if l.Horizon() != end {
		t.Fatalf("link horizon: got %v, want %v", l.Horizon(), end)
	}
	if u := l.Utilization(end); u <= 0 || u > 1 {
		t.Fatalf("link utilization: %g", u)
	}
	if l.Utilization(0) != 0 {
		t.Fatal("utilization over empty window")
	}
}

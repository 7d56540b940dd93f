package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPoolSingleServerSerializes(t *testing.T) {
	p := NewPool("cpu", 1)
	s1, e1 := p.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first job: got start=%v end=%v, want 0,10", s1, e1)
	}
	// Arrives while busy: must queue behind the first job.
	s2, e2 := p.Acquire(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second job: got start=%v end=%v, want 10,20", s2, e2)
	}
	// Arrives after idle gap: starts at arrival.
	s3, e3 := p.Acquire(100, 1)
	if s3 != 100 || e3 != 101 {
		t.Fatalf("third job: got start=%v end=%v, want 100,101", s3, e3)
	}
}

func TestPoolParallelServers(t *testing.T) {
	p := NewPool("cpu", 2)
	_, e1 := p.Acquire(0, 10)
	_, e2 := p.Acquire(0, 10)
	if e1 != 10 || e2 != 10 {
		t.Fatalf("two servers should run two jobs concurrently: got %v, %v", e1, e2)
	}
	s3, _ := p.Acquire(0, 10)
	if s3 != 10 {
		t.Fatalf("third job on 2 servers should wait: got start=%v, want 10", s3)
	}
}

func TestPoolNegativeServiceClamped(t *testing.T) {
	p := NewPool("x", 1)
	s, e := p.Acquire(5, -3)
	if s != 5 || e != 5 {
		t.Fatalf("negative service: got %v,%v want 5,5", s, e)
	}
}

func TestPoolSaturatedAndBacklog(t *testing.T) {
	p := NewPool("cpu", 2)
	if p.Saturated(0) {
		t.Fatal("fresh pool should not be saturated")
	}
	p.Acquire(0, 100)
	if p.Saturated(0) {
		t.Fatal("one of two servers busy: not saturated")
	}
	p.Acquire(0, 50)
	if !p.Saturated(0) {
		t.Fatal("both servers busy: saturated")
	}
	if got := p.Backlog(0); got != 50 {
		t.Fatalf("backlog: got %v, want 50", got)
	}
	if got := p.Backlog(60); got != 0 {
		t.Fatalf("backlog after a server frees: got %v, want 0", got)
	}
}

func TestPoolUtilization(t *testing.T) {
	p := NewPool("cpu", 2)
	p.Acquire(0, time.Second)
	p.Acquire(0, time.Second)
	if got := p.Utilization(2 * time.Second); got != 0.5 {
		t.Fatalf("utilization: got %g, want 0.5", got)
	}
}

func TestPoolReset(t *testing.T) {
	p := NewPool("cpu", 2)
	p.Acquire(0, 10)
	p.Reset()
	if p.Jobs() != 0 || p.BusyTime() != 0 || p.Horizon() != 0 || p.NextFree() != 0 {
		t.Fatal("reset should clear all state")
	}
}

func TestPoolPanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) should panic")
		}
	}()
	NewPool("bad", 0)
}

// Property: with k servers and jobs all arriving at time 0 with equal service
// time d, job i starts at floor(i/k)*d — round-robin waves.
func TestPoolWaveProperty(t *testing.T) {
	f := func(kRaw uint8, nRaw uint8) bool {
		k := int(kRaw%8) + 1
		n := int(nRaw%64) + 1
		d := 7 * time.Microsecond
		p := NewPool("cpu", k)
		for i := 0; i < n; i++ {
			start, _ := p.Acquire(0, d)
			want := time.Duration(i/k) * d
			if start != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: completion times never precede arrival + service, and total busy
// time equals the sum of service times.
func TestPoolConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPool("cpu", 4)
	var at time.Duration
	var total time.Duration
	for i := 0; i < 1000; i++ {
		at += time.Duration(rng.Intn(100)) * time.Nanosecond
		d := time.Duration(rng.Intn(1000)) * time.Nanosecond
		total += d
		start, end := p.Acquire(at, d)
		if start < at {
			t.Fatalf("job started before arrival: start=%v arrival=%v", start, at)
		}
		if end != start+d {
			t.Fatalf("end != start+service: %v != %v+%v", end, start, d)
		}
	}
	if p.BusyTime() != total {
		t.Fatalf("busy time %v != sum of service %v", p.BusyTime(), total)
	}
	if p.Jobs() != 1000 {
		t.Fatalf("jobs: got %d, want 1000", p.Jobs())
	}
}

// Property: a 1-server pool never overlaps two jobs in time.
func TestPoolNoOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewPool("q", 1)
	var prevEnd time.Duration
	var at time.Duration
	for i := 0; i < 500; i++ {
		at += time.Duration(rng.Intn(50))
		d := time.Duration(rng.Intn(50))
		start, end := p.Acquire(at, d)
		if start < prevEnd {
			t.Fatalf("overlap: start %v < previous end %v", start, prevEnd)
		}
		prevEnd = end
	}
}

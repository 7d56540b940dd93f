// Package sim provides the virtual-time substrate used by every simulated
// resource in this repository (CPU pools, the GPU, the PCIe link, SSD
// channels).
//
// The model is a deterministic "max-plus" resource-timeline simulation: a
// resource remembers when each of its servers becomes free, and a job that
// arrives at virtual time t and needs service time d is placed on the
// earliest-free server, starting at max(t, serverFree) and completing at
// start+d. Feed-forward pipelines (like the inline data reduction pipeline)
// can then be evaluated by threading completion times through their stages
// without a global event queue, which keeps the simulation fast and exactly
// reproducible.
//
// Virtual time is represented as time.Duration since the start of the
// simulation. Service times are usually derived from cycle-cost models (see
// internal/cpusim and internal/gpu); Cycles converts a cycle count at a clock
// frequency into a Duration.
package sim

import (
	"fmt"
	"time"
)

// Seconds converts a floating-point number of seconds into a virtual-time
// Duration, rounding to the nearest nanosecond.
func Seconds(s float64) time.Duration {
	return time.Duration(s*1e9 + 0.5)
}

// Cycles converts a cycle count at clock frequency hz into a Duration.
// Fractional nanoseconds are rounded to nearest; callers should batch tiny
// per-byte costs into per-chunk costs before converting so rounding error is
// negligible.
func Cycles(cycles float64, hz float64) time.Duration {
	if hz <= 0 {
		panic("sim: non-positive clock frequency")
	}
	return Seconds(cycles / hz)
}

// Throughput reports units per second for n units completed in elapsed
// virtual time. It returns 0 for a non-positive elapsed time.
func Throughput(n float64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return n / elapsed.Seconds()
}

// FormatRate renders a bytes-per-second rate in human units (B/s, KB/s,
// MB/s, GB/s) using decimal multiples, matching how the paper reports
// throughput.
func FormatRate(bytesPerSec float64) string {
	switch {
	case bytesPerSec >= 1e9:
		return fmt.Sprintf("%.2f GB/s", bytesPerSec/1e9)
	case bytesPerSec >= 1e6:
		return fmt.Sprintf("%.2f MB/s", bytesPerSec/1e6)
	case bytesPerSec >= 1e3:
		return fmt.Sprintf("%.2f KB/s", bytesPerSec/1e3)
	default:
		return fmt.Sprintf("%.2f B/s", bytesPerSec)
	}
}

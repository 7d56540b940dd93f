package sim

import (
	"fmt"
	"time"
)

// Link is a serialized bandwidth resource: a PCIe DMA engine or a host
// interface. Each transfer pays a fixed setup latency plus bytes/bandwidth,
// and transfers are serviced one at a time in arrival order.
type Link struct {
	setup       time.Duration // per-transfer setup latency (DMA programming etc.)
	bytesPerSec float64
	free        time.Duration
	busy        time.Duration
}

// NewLink returns a Link with the given per-transfer setup latency and
// bandwidth in bytes per second. It panics on a non-positive bandwidth; name
// labels the panic message.
func NewLink(name string, setup time.Duration, bytesPerSec float64) *Link {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("sim: link %q needs positive bandwidth, got %g", name, bytesPerSec))
	}
	return &Link{setup: setup, bytesPerSec: bytesPerSec}
}

// TransferTime returns the service time for n bytes, without queueing.
func (l *Link) TransferTime(n int) time.Duration {
	if n < 0 {
		n = 0
	}
	return l.setup + Seconds(float64(n)/l.bytesPerSec)
}

// Transfer schedules an n-byte transfer arriving at virtual time at and
// returns its start and completion times.
func (l *Link) Transfer(at time.Duration, n int) (start, end time.Duration) {
	d := l.TransferTime(n)
	start = max(at, l.free)
	end = start + d
	l.free = end
	l.busy += d
	return start, end
}

// Horizon reports the completion time of the last scheduled transfer.
func (l *Link) Horizon() time.Duration { return l.free }

// Utilization reports the fraction of the window [0, until] the link was busy.
func (l *Link) Utilization(until time.Duration) float64 {
	if until <= 0 {
		return 0
	}
	return l.busy.Seconds() / until.Seconds()
}

// Reset clears the link's timeline and busy total.
func (l *Link) Reset() {
	l.free, l.busy = 0, 0
}

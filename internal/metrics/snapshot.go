package metrics

import (
	"fmt"
	"time"
)

// StartSnapshotter enables metrics and writes an immediate exposition
// snapshot to path, which checks up front that the path is writable. The
// returned stop refreshes the runtime telemetry and writes the final
// snapshot, reporting its error.
func StartSnapshotter(path string) (stop func() error, err error) {
	Enable()
	write := func() error {
		SampleRuntime()
		return WriteFile(path)
	}
	if err := write(); err != nil {
		return nil, fmt.Errorf("metrics: writing snapshot: %w", err)
	}
	return write, nil
}

// SummaryLine refreshes the runtime telemetry and renders the one-line
// wall-clock utilization digest surfaced by examples/fileserver and
// BenchmarkServeWallClock: pool busy share, shard-drain time, and the GC
// pause estimate. It reads whatever has been recorded so far — with
// metrics disabled everything reads zero.
func SummaryLine() string {
	SampleRuntime()
	busy := PoolBusy.Value()
	idle := PoolIdle.Value()
	util := "n/a"
	if busy+idle > 0 {
		util = fmt.Sprintf("%.1f%%", 100*float64(busy)/float64(busy+idle))
	}
	return fmt.Sprintf("wall-clock: pool busy %s (%v busy / %v idle), shard drain %v, GC pause ~%v",
		util,
		time.Duration(busy).Round(time.Millisecond),
		time.Duration(idle).Round(time.Millisecond),
		time.Duration(ServeShardDrain.Sum()).Round(time.Millisecond),
		time.Duration(RuntimeGCPause.Value()).Round(100*time.Microsecond))
}

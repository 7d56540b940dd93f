// Command metricscheck validates a Prometheus text-format exposition file
// written by reducerun -metrics-out: it parses the full 0.0.4
// line grammar, enforces histogram invariants (cumulative buckets,
// mandatory +Inf, _count agreement), and — with -require — checks that
// named metric families (or, with a {label="value"} selector, series) are
// present. CI runs it on every snapshot it
// produces, so "the output is valid expfmt" is machine-checked.
//
// Usage:
//
//	metricscheck [-require fam1,fam2,...] FILE
//
// Exits 0 when FILE is a valid exposition containing every required
// family; prints the violation and exits 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"inlinered/internal/metrics"
)

// defaultRequired is the contract every pipeline snapshot must honor: the
// pool, stage, and runtime families are always registered, so they must
// always be present (with zero values when the subsystem never ran).
var defaultRequired = []string{
	"inlinered_pool_map_calls_total",
	"inlinered_pool_worker_busy_seconds_total",
	"inlinered_pool_worker_idle_seconds_total",
	"inlinered_pool_batch_claim_wait_seconds",
	"inlinered_pool_batch_size_items",
	"inlinered_stage_wall_seconds",
	`inlinered_stage_wall_seconds{subsystem="core",stage="front_wait"}`,
	`inlinered_stage_wall_seconds{subsystem="volume",stage="write_prepare"}`,
	`inlinered_stage_wall_seconds{subsystem="volume",stage="write_encode"}`,
	`inlinered_stage_wall_seconds{subsystem="volume",stage="write_commit"}`,
	`inlinered_stage_wall_seconds{subsystem="serve",stage="front_wait"}`,
	`inlinered_volume_write_encodes_total{how="speculated"}`,
	`inlinered_volume_write_encodes_total{how="inline"}`,
	`inlinered_volume_write_encodes_total{how="wasted"}`,
	`inlinered_volume_write_encodes_total{how="shared"}`,
	"go_goroutines",
	"go_memory_heap_objects_bytes",
	"go_gc_pause_estimate_seconds",
}

func main() {
	require := flag.String("require", "", "comma-separated metric families that must be present (empty = the standard pipeline set)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-require fam1,fam2,...] FILE")
		os.Exit(2)
	}
	path := flag.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	families := defaultRequired
	if *require != "" {
		families = strings.Split(*require, ",")
	}
	if err := metrics.Validate(data, families...); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	exp, _ := metrics.ParseExposition(data)
	fmt.Printf("metricscheck: %s ok — %d samples across %d families\n", path, len(exp.Samples), len(exp.Types))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "metricscheck:", err)
	os.Exit(1)
}

package inlinered

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"inlinered/internal/metrics"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// TestMetricsSideChannelDeterminism pins the wall-clock metrics layer's
// core contract: it is a strict side channel. For every tier of the stack
// — stream pipeline, sharded serving, replicated cluster — the
// virtual-time report (and trace, where a recorder is legal) must be
// byte-identical whether metrics collection is on or off, at every
// parallelism / shard / node count we ship.
func TestMetricsSideChannelDeterminism(t *testing.T) {
	metrics.Disable()
	defer metrics.Disable()

	runPipeline := func(par int) ([]byte, []byte) {
		stream, err := NewStream(StreamSpec{TotalBytes: 4 << 20, DedupRatio: 2, CompressionRatio: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder()
		rep, err := Run(PaperPlatform(), Options{Mode: GPUBoth, Parallelism: par, Recorder: rec}, stream)
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := rec.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		return js, trace.Bytes()
	}

	runServe := func(shards int) []byte {
		arr, err := NewArray(BlockDeviceOptions{Blocks: 4096, Shards: shards, FaultSeed: 7, FaultRate: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		ops, err := NewOps(OpsSpec{Ops: 4000, Blocks: 4096, WriteFrac: 0.6, TrimFrac: 0.05, DedupRatio: 2, Hotspot: 0.5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := arr.Serve(ops, ServeOptions{ContentSeed: 7, CleanEvery: 1024})
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}

	runCluster := func(nodes int) []byte {
		replicas := 1
		if nodes > 1 {
			replicas = 2
		}
		cl, err := NewCluster(BlockDeviceOptions{
			Blocks: 2048, Shards: 2, Nodes: nodes, Replicas: replicas,
			NodeFaultSeed: 11, NodeFaultRate: 0.01,
		})
		if err != nil {
			t.Fatal(err)
		}
		ops, err := NewOps(ReadMostlyOps(3000, 2048, 7))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.Serve(ops, ClusterServeOptions{ContentSeed: 7, CleanEvery: 1024})
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}

	// withMetrics runs f twice — metrics off, then on — and returns both
	// results for comparison.
	compare := func(name string, f func() [][]byte) {
		metrics.Disable()
		off := f()
		metrics.Enable()
		on := f()
		metrics.Disable()
		for i := range off {
			if !bytes.Equal(off[i], on[i]) {
				t.Errorf("%s: output %d differs between metrics off and on", name, i)
			}
		}
	}

	for _, par := range []int{1, 4} {
		par := par
		compare("pipeline/par="+itoa(par), func() [][]byte {
			js, tr := runPipeline(par)
			return [][]byte{js, tr}
		})
	}
	for _, shards := range []int{1, 4} {
		shards := shards
		compare("serve/shards="+itoa(shards), func() [][]byte {
			return [][]byte{runServe(shards)}
		})
	}
	for _, nodes := range []int{1, 4} {
		nodes := nodes
		compare("cluster/nodes="+itoa(nodes), func() [][]byte {
			return [][]byte{runCluster(nodes)}
		})
	}
}

// TestMetricsSnapshotFromRealRun drives the real pipeline and serving
// tiers with metrics on, writes an exposition snapshot the way
// -metrics-out does, and validates it with the strict parser: pool
// busy/idle, claim-wait, per-stage wall histograms, and runtime samples
// must all be present in valid Prometheus text format.
func TestMetricsSnapshotFromRealRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	stop, err := metrics.StartSnapshotter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Disable()

	stream, err := NewStream(StreamSpec{TotalBytes: 4 << 20, DedupRatio: 2, CompressionRatio: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(PaperPlatform(), Options{Mode: CPUOnly, Parallelism: 4}, stream); err != nil {
		t.Fatal(err)
	}
	arr, err := NewArray(BlockDeviceOptions{Blocks: 4096, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := NewOps(OpsSpec{Ops: 2000, Blocks: 4096, WriteFrac: 0.6, TrimFrac: 0.05, DedupRatio: 2, Hotspot: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arr.Serve(ops, ServeOptions{ContentSeed: 3}); err != nil {
		t.Fatal(err)
	}
	// The serve workload above rarely fills a 1024-bin index's 16-entry
	// buffers, so drive the volume journal-flush path directly: a one-bin
	// index flushes (and journals) every 16 unique writes.
	vcfg := volume.DefaultConfig()
	vcfg.Blocks = 512
	vcfg.Index.BinBits = 0
	vol, err := volume.New(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := vol.Write(int64(i), workload.UniqueChunk(99, int32(i), 4096, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	required := []string{
		"inlinered_pool_map_calls_total",
		"inlinered_pool_items_total",
		"inlinered_pool_worker_busy_seconds_total",
		"inlinered_pool_worker_idle_seconds_total",
		"inlinered_pool_batch_claim_wait_seconds",
		"inlinered_pool_batch_size_items",
		"inlinered_stage_wall_seconds",
		"go_goroutines",
		"go_memory_heap_objects_bytes",
		"go_gc_pause_estimate_seconds",
		"go_gc_pauses_seconds",
	}
	if err := metrics.Validate(data, required...); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}

	// The run above must actually have recorded work, not just registered
	// empty families.
	exp, err := metrics.ParseExposition(data)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := sampleValue(exp, "inlinered_pool_map_calls_total", "subsystem", "parallel"); n == 0 {
		t.Error("pipeline run recorded no pool Map calls")
	}
	for _, stage := range []string{"chunk", "hash", "front_wait", "dedup_decide", "compress", "commit"} {
		if n, ok := sampleValue(exp, "inlinered_stage_wall_seconds_count", "subsystem", "core", "stage", stage); !ok || n == 0 {
			t.Errorf("core stage %q recorded no wall-clock samples (ok=%v n=%g)", stage, ok, n)
		}
	}
	for _, stage := range []string{"dispatch", "queue_wait", "shard_drain"} {
		if n, ok := sampleValue(exp, "inlinered_stage_wall_seconds_count", "subsystem", "serve", "stage", stage); !ok || n == 0 {
			t.Errorf("serve stage %q recorded no wall-clock samples (ok=%v n=%g)", stage, ok, n)
		}
	}
	if n, _ := sampleValue(exp, "inlinered_stage_wall_seconds_count", "subsystem", "volume", "stage", "journal_flush"); n == 0 {
		t.Error("volume journal_flush recorded no wall-clock samples")
	}
	if v, _ := sampleValue(exp, "go_goroutines"); v <= 0 {
		t.Error("runtime telemetry not sampled")
	}
}

// sampleValue returns the value of the sample name{labels} in exp.
func sampleValue(exp *metrics.Exposition, name string, labels ...string) (float64, bool) {
	for _, s := range exp.Samples {
		match := s.Name == name && len(s.Labels) == len(labels)/2
		for i := 0; match && i < len(labels); i += 2 {
			match = s.Labels[labels[i]] == labels[i+1]
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

func itoa(n int) string { return strconv.Itoa(n) }

package cluster

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"inlinered/internal/fault"
	"inlinered/internal/serve"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// faultSeeds returns the node-fault seeds to sweep: the FAULT_SEEDS
// environment variable (comma-separated, set by the CI cluster-recovery
// matrix) or a fixed default.
func faultSeeds(t *testing.T) []int64 {
	env := os.Getenv("FAULT_SEEDS")
	if env == "" {
		return []int64{1, 1337}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("FAULT_SEEDS: %v", err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// testVolume is the per-node volume fixture: small enough for fast tests,
// with device faults armed so determinism covers the injected streams too.
func testVolume() volume.Config {
	vc := volume.DefaultConfig()
	vc.Blocks = 1024
	vc.SSD.BlocksPerChannel = 128
	vc.SegmentBytes = 1 << 20
	vc.CacheBytes = 0
	vc.Index.BinBits = 4
	vc.Index.BufferEntries = 4
	vc.Faults = fault.Config{Seed: 42, Rates: fault.Rates{
		SSDWriteTransient: 0.05,
		SSDReadTransient:  0.05,
		SSDLatencySpike:   0.02,
		JournalTorn:       0.05,
	}}
	return vc
}

// testConfig arms node-level faults: crashes at a rate that fires several
// times over the test workload, with divergence configurable per test.
func testConfig(nodes, replicas int, crashRate, divergenceRate float64) Config {
	return Config{
		Volume:        testVolume(),
		Nodes:         nodes,
		Replicas:      replicas,
		ShardsPerNode: 2,
		RangeBlocks:   32,
		NodeFaults: fault.Config{
			Seed:  1337,
			Rates: fault.NodeUniform(crashRate, divergenceRate),
		},
		RejoinMinOps: 40,
		RejoinMaxOps: 120,
	}
}

// testOps is the read-mostly recovery workload: outages are dominated by
// reads that must come from a fallback replica.
func testOps(t *testing.T, ops int) []workload.Op {
	t.Helper()
	list, err := workload.ClosedLoop(workload.ReadMostlySpec(ops, 1024, 3))
	if err != nil {
		t.Fatal(err)
	}
	return list
}

func runCluster(t *testing.T, cfg Config, ops []workload.Op, clients int) (*Cluster, *Report, []byte) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Serve(ops, RunOptions{Clients: clients, ContentSeed: 9, CleanEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return c, rep, js
}

// TestClusterSeedSweep re-runs the recovery contract across the CI fault
// matrix: for every swept node-fault seed, crashes and divergences fire on
// a different schedule, yet the merged report stays client-count
// independent, no outage read goes unserved, and two scrub passes restore
// full replica agreement.
func TestClusterSeedSweep(t *testing.T) {
	for _, seed := range faultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := testConfig(3, 2, 0.004, 0.05)
			cfg.NodeFaults.Seed = seed
			ops := testOps(t, 2000)
			_, _, one := runCluster(t, cfg, ops, 1)
			c, rep, many := runCluster(t, cfg, ops, 8)
			if !bytes.Equal(one, many) {
				t.Fatal("report depends on client count")
			}
			if rep.Faults.ReadsUnserved != 0 {
				t.Fatalf("%d reads unserved under single failure with R=2", rep.Faults.ReadsUnserved)
			}
			if _, err := c.Scrub(); err != nil {
				t.Fatal(err)
			}
			scrub, err := c.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if scrub.Mismatched != 0 {
				t.Fatalf("seed %d: %d divergent copies survive scrub", seed, scrub.Mismatched)
			}
		})
	}
}

// TestClusterSingleNodeMatchesServe: a 1-node, 1-replica cluster is
// bit-identical to a bare serve.Array with the same config — node 0 keeps
// the caller's fault seed and the cluster layer adds no overhead to the
// virtual clock.
func TestClusterSingleNodeMatchesServe(t *testing.T) {
	ops := testOps(t, 1500)
	opt := RunOptions{ContentSeed: 9, CleanEvery: 100}

	c, err := New(Config{Volume: testVolume(), Nodes: 1, Replicas: 1, ShardsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	crep, err := c.Serve(ops, opt)
	if err != nil {
		t.Fatal(err)
	}

	a, err := serve.New(serve.Config{Volume: testVolume(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srep, err := a.Serve(ops, serve.RunOptions{
		Clients: 2, ContentSeed: opt.ContentSeed, CleanEvery: opt.CleanEvery})
	if err != nil {
		t.Fatal(err)
	}

	cjs, err := crep.PerNode[0].JSON()
	if err != nil {
		t.Fatal(err)
	}
	sjs, err := srep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cjs, sjs) {
		t.Fatalf("1-node cluster diverged from bare array:\ncluster: %s\narray: %s", cjs, sjs)
	}
	if crep.Elapsed != srep.Elapsed || crep.Errors != srep.Errors {
		t.Fatalf("summary fields diverged: cluster(%v,%d) array(%v,%d)",
			crep.Elapsed, crep.Errors, srep.Elapsed, srep.Errors)
	}
	if crep.Faults.Total() != 0 {
		t.Fatalf("faultless single-node run recorded degraded work: %+v", crep.Faults)
	}
}

// TestClusterDivergenceReadRepair: with replica divergence armed, reads
// detect stale copies and repair them inline, and a scrub sweep mops up
// whatever reads never touched — a second scrub must find full agreement.
func TestClusterDivergenceReadRepair(t *testing.T) {
	cfg := testConfig(3, 2, 0, 0.2)
	c, rep, _ := runCluster(t, cfg, testOps(t, 2000), 3)

	if rep.Faults.Divergences == 0 {
		t.Fatal("divergence rate never fired")
	}
	if rep.Faults.ReadRepairs == 0 {
		t.Fatal("reads never repaired a stale replica")
	}
	if rep.Faults.NodeCrashes != 0 {
		t.Fatalf("crash fired with rate 0: %+v", rep.Faults)
	}

	first, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if first.Repaired != first.Mismatched {
		t.Fatalf("scrub left mismatches unrepaired: %+v", first)
	}
	second, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if second.Mismatched != 0 {
		t.Fatalf("second scrub still found %d divergent copies", second.Mismatched)
	}
}

// TestAddNodeDuringServe: a batch in flight owns the node arrays it drains,
// so an AddNode issued meanwhile is refused instead of migrating blocks
// underneath queues that were routed against the old directory; once the
// batch has returned the same call rebalances cleanly. Whatever the timing,
// the replicas agree afterwards and every block reads as on a cluster that
// was never disturbed.
func TestAddNodeDuringServe(t *testing.T) {
	cfg := testConfig(3, 2, 0, 0)
	cfg.NodeFaults = fault.Config{}
	ops := testOps(t, 4000)
	opt := RunOptions{Clients: 2, ContentSeed: 9, CleanEvery: 100}
	quiet, _, _ := runCluster(t, cfg, ops, 2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for round := 0; round < 20 && refused == 0; round++ {
		done := make(chan error, 1)
		go func() {
			_, err := c.Serve(ops, opt)
			done <- err
		}()
		for draining := false; !draining && len(done) == 0; {
			c.mu.Lock()
			draining = c.draining > 0
			c.mu.Unlock()
		}
		if _, err := c.AddNode(); err != nil {
			if !strings.Contains(err.Error(), "in flight") {
				t.Fatal(err)
			}
			refused++
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if round > 0 { // the undisturbed cluster serves the same batches
			if _, err := quiet.Serve(ops, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if refused == 0 {
		t.Error("AddNode was never refused in 20 batches it was issued against")
	}
	before := c.Nodes()
	if reb, err := c.AddNode(); err != nil || reb.Node != before || c.Nodes() != before+1 {
		t.Fatalf("AddNode on an idle cluster: %+v, %v (%d nodes before, %d after)", reb, err, before, c.Nodes())
	}
	for lba := int64(0); lba < c.Blocks(); lba += 7 {
		got, _, err := c.Read(lba)
		want, _, werr := quiet.Read(lba)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("lba %d differs from the undisturbed cluster's (%v, %v)", lba, err, werr)
		}
	}
	if scrub, err := c.Scrub(); err != nil || scrub.Mismatched != 0 {
		t.Fatalf("replicas disagree after the rebalance: %+v, %v", scrub, err)
	}
}

// TestClusterRebalance: adding a node moves only the ranges the new node
// wins (rendezvous placement), data survives the migration byte-for-byte,
// and the grown cluster is in full replica agreement.
func TestClusterRebalance(t *testing.T) {
	cfg := testConfig(3, 2, 0, 0)
	cfg.NodeFaults = fault.Config{}
	c, _, _ := runCluster(t, cfg, testOps(t, 1000), 3)

	// Snapshot a spread of blocks before the membership change.
	before := make(map[int64][]byte)
	for lba := int64(0); lba < c.Blocks(); lba += 37 {
		data, _, err := c.Read(lba)
		if err != nil {
			t.Fatal(err)
		}
		before[lba] = bytes.Clone(data)
	}

	reb, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 4 {
		t.Fatalf("nodes = %d after AddNode, want 4", c.Nodes())
	}
	if reb.RangesMoved == 0 || reb.BlocksCopied == 0 {
		t.Fatalf("rebalance moved nothing: %+v", reb)
	}
	if reb.RangesMoved == reb.Ranges {
		t.Fatalf("rebalance moved every range (%d): not minimal", reb.RangesMoved)
	}

	for lba, want := range before {
		got, _, err := c.Read(lba)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lba %d changed across rebalance", lba)
		}
	}
	scrub, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if scrub.Mismatched != 0 {
		t.Fatalf("replica disagreement after rebalance: %+v", scrub)
	}

	// The new directory must still place every range on R distinct nodes.
	for r, owners := range c.dir {
		if len(owners) != c.Replicas() {
			t.Fatalf("range %d has %d owners", r, len(owners))
		}
		seen := map[int]bool{}
		for _, n := range owners {
			if n < 0 || n >= c.Nodes() || seen[n] {
				t.Fatalf("range %d owner set invalid: %v", r, owners)
			}
			seen[n] = true
		}
	}
}

// TestClusterDirectOps: the direct replicated path round-trips data,
// places copies on every owner, and trims all of them.
func TestClusterDirectOps(t *testing.T) {
	cfg := testConfig(3, 2, 0, 0)
	cfg.NodeFaults = fault.Config{}
	cfg.Volume.Faults = fault.Config{}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, int(cfg.Volume.BlockSize))
	const lba = 129
	if _, err := c.Write(lba, payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Read(lba)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("direct read returned different bytes")
	}
	for _, n := range c.owners(lba) {
		copyGot, _, err := c.nodes[n].Read(lba)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(copyGot, payload) {
			t.Fatalf("replica on node %d disagrees after direct write", n)
		}
	}
	if _, err := c.Trim(lba); err != nil {
		t.Fatal(err)
	}
	got, _, err = c.Read(lba)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("read after trim returned nonzero data")
		}
	}
}

// TestClusterValidation: bad configurations and bad ops are rejected.
func TestClusterValidation(t *testing.T) {
	base := func() Config {
		cfg := testConfig(3, 2, 0, 0)
		cfg.NodeFaults = fault.Config{}
		return cfg
	}
	bad := []func(*Config){
		func(c *Config) { c.Nodes = -1 },
		func(c *Config) { c.Replicas = 4 }, // > nodes
		func(c *Config) { c.Replicas = -1 },
		func(c *Config) { c.RangeBlocks = -5 },
		func(c *Config) { c.RejoinMinOps = 10; c.RejoinMaxOps = 5 },
		func(c *Config) { c.Volume.Blocks = 0 },
	}
	for i, mut := range bad {
		cfg := base()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}

	c, err := New(base())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Serve([]workload.Op{{Kind: 'X', LBA: 0}}, RunOptions{}); err == nil {
		t.Error("unknown op kind accepted")
	}
	if _, err := c.Serve([]workload.Op{{Kind: workload.OpRead, LBA: 1 << 40}}, RunOptions{}); err == nil {
		t.Error("out-of-range lba accepted")
	}
	if _, err := c.Write(-1, nil); err == nil {
		t.Error("direct write to negative lba accepted")
	}
	if _, _, err := c.Read(c.Blocks()); err == nil {
		t.Error("direct read past capacity accepted")
	}
	if _, err := c.Trim(c.Blocks()); err == nil {
		t.Error("direct trim past capacity accepted")
	}
}

// TestClusterServesAcrossBatches: dirty/stale bookkeeping carries across
// Serve calls — a second batch on the same cluster stays deterministic and
// scrubs clean.
func TestClusterServesAcrossBatches(t *testing.T) {
	run := func() ([]byte, *ScrubReport) {
		cfg := testConfig(3, 2, 0.004, 0.05)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt := RunOptions{Clients: 4, ContentSeed: 9, CleanEvery: 100}
		if _, err := c.Serve(testOps(t, 1200), opt); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Serve(testOps(t, 1200), opt)
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scrub(); err != nil {
			t.Fatal(err)
		}
		scrub, err := c.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		return js, scrub
	}
	a, scrubA := run()
	b, scrubB := run()
	if !bytes.Equal(a, b) {
		t.Fatal("second-batch reports differ across identical runs")
	}
	if scrubA.Mismatched != 0 || fmt.Sprintf("%+v", scrubA) != fmt.Sprintf("%+v", scrubB) {
		t.Fatalf("post-batch scrub not clean/deterministic: %+v vs %+v", scrubA, scrubB)
	}
}

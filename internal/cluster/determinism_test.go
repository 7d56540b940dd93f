package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"inlinered/internal/serve"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// batchTier is one row of the determinism matrix: a batch entry point, the
// scheduling knobs it is swept over, and what must have happened for the
// sweep to mean anything. run builds a FRESH fixture at the fixed seed,
// drives the tier with the given worker count and decode parallelism, and
// returns the report's JSON; verify (optional) runs once after the sweep.
type batchTier struct {
	name    string
	clients []int
	par     []int
	run     func(t *testing.T, clients, par int) []byte
	verify  func(t *testing.T)
}

// arrayServeTier is Array.Serve at one shard count, device faults armed so
// the injected streams are covered too (only the shard count may change
// results, so each count is its own row).
func arrayServeTier(shards int) batchTier {
	var last *serve.Report
	return batchTier{
		name:    fmt.Sprintf("array-serve/shards=%d", shards),
		clients: []int{1, 2, 3, 8},
		par:     []int{0, 1, 4},
		run: func(t *testing.T, clients, par int) []byte {
			vc := testVolume()
			vc.Blocks = 4096
			a, err := serve.New(serve.Config{Volume: vc, Shards: shards, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			ops, err := workload.ClosedLoop(workload.ClosedLoopSpec{
				Ops: 1200, Blocks: 512, WriteFrac: 0.5, TrimFrac: 0.1, DedupRatio: 2.0, Hotspot: 0.2, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := a.Serve(ops, serve.RunOptions{Clients: clients, ContentSeed: 9, CleanEvery: 100})
			if err != nil {
				t.Fatal(err)
			}
			last = rep
			return mustJSON(t, rep)
		},
		verify: func(t *testing.T) {
			if last.Errors == 0 && last.Merged.SSDWriteRetries == 0 {
				t.Fatal("fault rates never fired; the sweep is vacuous")
			}
		},
	}
}

// arrayReadBatchTier is Array.ReadBatch: a boot storm over 4 shards of
// indexed sub-block containers, swept over workers and decode parallelism.
// The default cache holds the whole image; smallCache gives each shard a
// sixteenth of it, so a shard's batch misses again on fingerprints whose
// slots it already evicted — the repeats it decodes once.
func arrayReadBatchTier(name string, smallCache bool) batchTier {
	var last *serve.ReadBatchReport
	var lastLBAs []int64
	return batchTier{
		name:    name,
		clients: []int{1, 2, 8},
		par:     []int{1, 4},
		run: func(t *testing.T, clients, par int) []byte {
			spec := workload.DefaultBootStormSpec()
			vc := volume.DefaultConfig()
			vc.Blocks = 4096
			vc.SSD.BlocksPerChannel = 128
			vc.SegmentBytes = 1 << 20
			vc.SubBlocks = 4
			if smallCache {
				vc.CacheBytes = int64(spec.ImageBlocks) * int64(vc.BlockSize) / 16
			}
			a, err := serve.New(serve.Config{Volume: vc, Shards: 4, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			fill, err := spec.Fill()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Serve(fill, serve.RunOptions{}); err != nil {
				t.Fatal(err)
			}
			lbas, err := spec.Storm()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := a.ReadBatch(lbas, serve.ReadBatchOptions{Clients: clients})
			if err != nil {
				t.Fatal(err)
			}
			last, lastLBAs = rep, lbas
			return mustJSON(t, rep)
		},
		verify: func(t *testing.T) {
			if last.DecodedBlobs == 0 {
				t.Fatalf("the storm decoded no blob: %+v", last.ReadTotals)
			}
			if !smallCache {
				return
			}
			// A shard's distinct blobs are at most its distinct LBAs.
			distinct := make([]map[int64]bool, last.Shards)
			for _, lba := range lastLBAs {
				s := lba % int64(last.Shards)
				if distinct[s] == nil {
					distinct[s] = map[int64]bool{}
				}
				distinct[s][lba] = true
			}
			for s, sh := range last.PerShard {
				if sh.DecodedBlobs > int64(len(distinct[s])) {
					return
				}
			}
			t.Fatal("no shard charged more decodes than it has distinct blobs; the repeat path went unexercised")
		},
	}
}

// clusterServeTier is Cluster.Serve with NodeCrash faults armed at a fixed
// seed over 3 nodes, R=2 — the crash/rejoin acceptance: beyond
// bit-identical reports, every read during an outage is served from a
// surviving replica (zero unserved at divergence rate 0) and post-rejoin
// repair restores replica agreement, verified by a full-range scrub. With
// one shard per node and two clients, three whole queues meet two workers:
// the shape in which one of them ends up lending itself to the other's node.
func clusterServeTier(name string, shardsPerNode int) batchTier {
	var last *Cluster
	var lastRep *Report
	return batchTier{
		name:    name,
		clients: []int{1, 2, 3, 8},
		par:     []int{0, 1, 4},
		run: func(t *testing.T, clients, par int) []byte {
			cfg := testConfig(3, 2, 0.004, 0)
			cfg.ShardsPerNode, cfg.Parallelism = shardsPerNode, par
			var js []byte
			last, lastRep, js = runCluster(t, cfg, testOps(t, 3000), clients)
			return js
		},
		verify: func(t *testing.T) {
			fc := lastRep.Faults
			if fc.NodeCrashes == 0 {
				t.Fatal("crash rate never fired; the test exercised nothing")
			}
			if fc.NodeRejoins != fc.NodeCrashes {
				t.Fatalf("rejoins %d != crashes %d: a batch must end whole", fc.NodeRejoins, fc.NodeCrashes)
			}
			if fc.ReadsFallback == 0 {
				t.Fatal("no reads served from a fallback replica during outages")
			}
			if fc.ReadsUnserved != 0 {
				t.Fatalf("%d reads unserved: data loss under single failure with R=2", fc.ReadsUnserved)
			}
			if fc.ReadsStale != 0 {
				t.Fatalf("%d reads served a stale copy whose content id was lost", fc.ReadsStale)
			}
			if fc.WritesQueued == 0 || fc.RepairWrites == 0 {
				t.Fatalf("no queued mutations or repairs despite %d crashes: %+v", fc.NodeCrashes, fc)
			}
			// Post-rejoin agreement: every replica copy matches its primary.
			scrub, err := last.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if scrub.Mismatched != 0 {
				t.Fatalf("scrub found %d divergent copies after rejoin repair: %+v", scrub.Mismatched, scrub)
			}
			if scrub.Compared == 0 {
				t.Fatal("scrub compared nothing")
			}
		},
	}
}

// clusterReadBatchTier is Cluster.ReadBatch on the healthy-cluster storm.
func clusterReadBatchTier() batchTier {
	return batchTier{
		name:    "cluster-readbatch",
		clients: []int{1, 3},
		par:     []int{1, 4},
		run: func(t *testing.T, clients, par int) []byte {
			c, lbas := stormCluster(t, par)
			rep, err := c.ReadBatch(lbas, ReadBatchOptions{Clients: clients})
			if err != nil {
				t.Fatal(err)
			}
			return mustJSON(t, rep)
		},
	}
}

func mustJSON(t *testing.T, rep interface{ JSON() ([]byte, error) }) []byte {
	t.Helper()
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestDeterminismMatrix is the backbone invariant for every batch entry
// point of the serving stack, in one table: at a fixed seed, the report's
// bytes are identical for any worker count, decode parallelism, and
// GOMAXPROCS. Scheduling decides only WHEN a shard or node runs, never
// WHAT it runs. CI runs it under -race.
func TestDeterminismMatrix(t *testing.T) {
	tiers := []batchTier{
		arrayServeTier(1), arrayServeTier(2), arrayServeTier(8),
		arrayReadBatchTier("array-readbatch", false), arrayReadBatchTier("array-readbatch-small-cache", true),
		clusterServeTier("cluster-serve", 2), clusterServeTier("cluster-serve-1shard", 1),
		clusterReadBatchTier(),
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			var want []byte
			procsSweep := []int{1, runtime.NumCPU()}
			if testing.Short() {
				procsSweep = procsSweep[1:] // the CI race steps run the whole sweep
			}
			for _, procs := range procsSweep {
				runtime.GOMAXPROCS(procs)
				for _, clients := range tier.clients {
					for _, par := range tier.par {
						got := tier.run(t, clients, par)
						if want == nil {
							want = got
						} else if !bytes.Equal(got, want) {
							t.Fatalf("procs=%d clients=%d parallelism=%d: report diverged:\n%s\nwant:\n%s",
								procs, clients, par, got, want)
						}
					}
				}
			}
			if tier.verify != nil {
				tier.verify(t)
			}
		})
	}
}

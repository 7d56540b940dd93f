package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"inlinered/internal/fault"
	"inlinered/internal/metrics"
	"inlinered/internal/serve"
	"inlinered/internal/workload"
)

// encodeCounts reads the encode-placement counters.
func encodeCounts() (spec, inline, wasted, shared int64) {
	return metrics.WriteEncodesSpeculated.Value(), metrics.WriteEncodesInline.Value(),
		metrics.WriteEncodesWasted.Value(), metrics.WriteEncodesShared.Value()
}

// uniqueContents replays node queues through a model of every volume's
// chunk store — live references per (node, shard, content id) — and returns
// the content ids some write commits as unique. It holds for a batch on a
// fresh cluster whose writes cannot fail.
func uniqueContents(queues [][]workload.Op, shards int64) map[int32]bool {
	type chunk struct {
		node  int
		shard int64
		id    int32
	}
	unique, refs := map[int32]bool{}, map[chunk]int{}
	for n, q := range queues {
		held := map[int64]int32{}
		for _, op := range q {
			old, mapped := held[op.LBA]
			switch op.Kind {
			case workload.OpWrite:
				c := chunk{n, op.LBA % shards, op.Content}
				unique[op.Content] = unique[op.Content] || refs[c] == 0
				refs[c]++
				held[op.LBA] = op.Content
			case workload.OpTrim:
				delete(held, op.LBA)
			default:
				continue
			}
			if mapped {
				refs[chunk{n, op.LBA % shards, old}]--
			}
		}
	}
	for id, u := range unique {
		if !u {
			delete(unique, id)
		}
	}
	return unique
}

// TestClusterReplicasEncodeOnce is TestServeMixedSpeculation's cluster twin,
// on the read-mostly mix over 3 nodes at R=2 with crashes and divergence
// armed: a content id's writes share one prepared half across replicas,
// rejoin replays and read-repairs. With one goroutine nothing races, so the
// encodes actually run (speculated - shared + inline) are exactly one per
// content id some write commits as unique; with workers lending, some
// encodes still come from a slot.
func TestClusterReplicasEncodeOnce(t *testing.T) {
	metrics.Enable()
	defer metrics.Disable()
	for _, tc := range []struct{ par, shards, clients int }{{1, 1, 1}, {2, 2, 0}} {
		t.Run(fmt.Sprintf("par=%d", tc.par), func(t *testing.T) {
			cfg := testConfig(3, 2, 0.004, 0.05)
			cfg.Volume.Faults = fault.Config{}
			cfg.ShardsPerNode, cfg.Parallelism = tc.shards, tc.par
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			opt := RunOptions{Clients: tc.clients, ContentSeed: 9, CleanEvery: 100}
			seq, err := c.sequence(testOps(t, 3000), opt)
			if err != nil {
				t.Fatal(err)
			}
			want := uniqueContents(seq.queues, int64(tc.shards))
			spec0, inline0, wasted0, shared0 := encodeCounts()
			rep, err := c.drain(seq, opt)
			if err != nil {
				t.Fatal(err)
			}
			spec, inline, wasted, shared := encodeCounts()
			spec, inline, wasted, shared = spec-spec0, inline-inline0, wasted-wasted0, shared-shared0
			st := c.Stats()
			t.Logf("%d writes, %d unique, %d distinct: %d speculated, %d shared, %d inline, %d wasted",
				st.Writes, st.Writes-st.DedupHits, len(want), spec, shared, inline, wasted)
			if rep.Errors != 0 || rep.Faults.NodeCrashes == 0 || rep.Faults.Divergences == 0 || rep.Faults.RepairWrites == 0 {
				t.Fatalf("scenario needs crashes, divergence and repairs and no failed op: %d errors, %+v", rep.Errors, rep.Faults)
			}
			if spec-wasted+inline != st.Writes-st.DedupHits {
				t.Fatalf("encodes used (%d speculated - %d wasted + %d inline) != %d unique writes", spec, wasted, inline, st.Writes-st.DedupHits)
			}
			ran := spec - shared + inline
			switch {
			case tc.par == 1 && ran != int64(len(want)):
				t.Fatalf("%d encodes ran (%d speculated - %d shared + %d inline), want one per unique content id: %d",
					ran, spec, shared, inline, len(want))
			case shared == 0:
				t.Fatal("no encode came from a shared slot")
			}
		})
	}
}

// lbaOwnedBy returns the first LBA on the given shard whose owners are
// owners, primary first.
func lbaOwnedBy(t *testing.T, c *Cluster, shard int64, owners ...int) int64 {
	t.Helper()
	for lba := shard; lba < c.blocks; lba += int64(c.cfg.ShardsPerNode) {
		if slices.Equal(c.owners(lba), owners) {
			return lba
		}
	}
	t.Fatalf("no LBA on shard %d owned by %v", shard, owners)
	return 0
}

// disagreements returns two batches. The first stores content X on node 2
// and content Y on node 0, not on the other (each the primary of its LBA,
// which never diverges). The second writes X to an LBA owned by nodes 0 and
// 2 — node 0 predicts it unique, node 2 a duplicate of the chunk it holds
// under another LBA — and Y to another, where it is the other way round.
// Draining in node order, node 0 publishes first: X's slot with an Encoded,
// Y's without one, which node 2 must then run itself.
func disagreements(t *testing.T, c *Cluster) (seed, split []workload.Op) {
	const x, y = 1 << 30, 1<<30 + 1
	onX, onY := lbaOwnedBy(t, c, 0, 2, 1), lbaOwnedBy(t, c, 0, 0, 1)
	both := lbaOwnedBy(t, c, 0, 0, 2)
	seed = []workload.Op{
		{Kind: workload.OpWrite, LBA: onX, Content: x},
		{Kind: workload.OpWrite, LBA: onY, Content: y},
	}
	split = []workload.Op{
		{Kind: workload.OpWrite, LBA: both, Content: x},
		{Kind: workload.OpWrite, LBA: both + int64(c.cfg.ShardsPerNode), Content: y},
	}
	return seed, split
}

// TestClusterSharedPrepareMatchesPerNode is the differential test of the
// shared pure half: every node's sequenced queue, served on a standalone
// array built by newNode with no shared table, reports byte for byte what
// the node reported in the shared run — for the two writes on which
// replicas disagree about uniqueness (both ways), and for the read-mostly
// mix with device faults, crashes, rejoins and divergence, at any client
// count and parallelism.
func TestClusterSharedPrepareMatchesPerNode(t *testing.T) {
	cfg := testConfig(3, 2, 0.004, 0.05)
	opt := RunOptions{ContentSeed: 9, CleanEvery: 100}
	for _, clients := range []int{1, 3} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("clients=%d/par=%d", clients, par), func(t *testing.T) {
				cfg.Parallelism = par
				shared, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				standalone := make([]*serve.Array, ref.Nodes())
				for i := range standalone {
					if standalone[i], err = ref.newNode(i); err != nil {
						t.Fatal(err)
					}
				}
				seedOps, split := disagreements(t, shared)
				for b, batch := range [][]workload.Op{seedOps, split, testOps(t, 2000)} {
					opt.Clients = clients
					rep, err := shared.Serve(batch, opt)
					if err != nil {
						t.Fatal(err)
					}
					seq, err := ref.sequence(batch, opt)
					if err != nil {
						t.Fatal(err)
					}
					nodeOpt := opt
					nodeOpt.Clients = cfg.ShardsPerNode
					for i, a := range standalone {
						want, err := a.Serve(seq.queues[i], nodeOpt)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := mustJSON(t, &rep.PerNode[i]), mustJSON(t, want); !bytes.Equal(got, want) {
							t.Fatalf("batch %d node %d: shared run diverged from the per-node one:\n%s\nwant:\n%s", b, i, got, want)
						}
					}
					if b == 1 {
						// The holders: node 2 of X, node 0 of Y.
						for _, n := range []int{0, 2} {
							if hits := rep.PerNode[n].Merged.DedupHits; hits != 1 {
								t.Fatalf("node %d: %d dedup hits after the split writes, want 1", n, hits)
							}
						}
					}
				}
			})
		}
	}
}

// TestClusterSharedSlotsReleased: once Serve returns, every slot of its
// shared table has seen all its writes commit and let go of its bytes —
// with device faults failing writes at commit, a crash whose writes replay
// at rejoin, and diverged replicas that skip a write (one consumer fewer
// than owners), for every swept node-fault seed.
func TestClusterSharedSlotsReleased(t *testing.T) {
	for _, seed := range faultSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := testConfig(3, 2, 0.004, 0.05)
			cfg.NodeFaults.Seed = seed
			cfg.Volume.Faults.Rates = fault.Rates{fault.SSDWritePermanent: 0.02, fault.SSDWriteTransient: 0.05, fault.JournalTorn: 0.05}
			for _, clients := range []int{1, 3} {
				cfg.Parallelism = clients
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				opt := RunOptions{Clients: clients, ContentSeed: 9}
				seq, err := c.sequence(testOps(t, 2000), opt)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := c.drain(seq, opt)
				if err != nil {
					t.Fatal(err)
				}
				fc := rep.Faults
				if rep.Errors == 0 || fc.WritesQueued == 0 || fc.RepairWrites == 0 || fc.Divergences == 0 || len(seq.shared) == 0 {
					t.Fatalf("scenario needs failed writes, replayed writes, divergence and shared slots: %d errors, %d slots, %+v",
						rep.Errors, len(seq.shared), fc)
				}
				for id, w := range seq.shared {
					if n := w.Outstanding(); n != 0 {
						t.Fatalf("clients=%d: content %d's slot still waits on %d writes after Serve", clients, id, n)
					}
				}
			}
		})
	}
}

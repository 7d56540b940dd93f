package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"inlinered/internal/fault"
	"inlinered/internal/workload"
)

// quietConfig is testConfig with the device streams off, so every read
// returns bytes, and only the given node-level rates armed.
func quietConfig(divergenceRate float64) Config {
	cfg := testConfig(3, 2, 0, divergenceRate)
	cfg.Volume.Faults = fault.Config{}
	return cfg
}

// writeThenRead returns one write per LBA in [0,n) (content id = LBA) and
// reads reads over the first half of them, several times each.
func writeThenRead(n, reads int) (w, r []workload.Op) {
	for i := 0; i < n; i++ {
		w = append(w, workload.Op{Kind: workload.OpWrite, LBA: int64(i), Content: int32(i)})
	}
	for i := 0; i < reads; i++ {
		r = append(r, workload.Op{Kind: workload.OpRead, LBA: int64(i * 7 % (n / 2))})
	}
	return w, r
}

// TestClusterServeRefusesChangedSeed: repairs re-derive payloads from
// remembered content ids, so a batch under another ContentSeed would
// read-repair diverged replicas with bytes no client wrote. Serve refuses it
// before sequencing anything — directory and fault streams stay where they
// were — and the same reads under the cluster's seed repair with the
// clients' bytes, leaving Scrub only the copies no read touched.
func TestClusterServeRefusesChangedSeed(t *testing.T) {
	cfg := quietConfig(0.3)
	writes, reads := writeThenRead(512, 512)
	build := func() *Cluster {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Serve(writes, RunOptions{ContentSeed: 9}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c, control := build(), build()
	_, err := c.Serve(reads, RunOptions{ContentSeed: 10})
	if err == nil || !strings.Contains(err.Error(), "ContentSeed 10 differs from 9 used by earlier batches") {
		t.Fatalf("a batch under a changed seed: %v", err)
	}
	rep, err := c.Serve(reads, RunOptions{ContentSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want, err := control.Serve(reads, RunOptions{ContentSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, rep), mustJSON(t, want)) {
		t.Fatal("the refused batch moved the directory or a fault stream: the next batch reports differently")
	}
	if rep.Faults.ReadRepairs == 0 || len(c.stale) == 0 {
		t.Fatalf("scenario needs repaired and still-stale copies: %d repairs, %d stale", rep.Faults.ReadRepairs, len(c.stale))
	}
	stale := int64(len(c.stale))
	scrub, err := c.Scrub()
	if err != nil || scrub.Mismatched != stale || scrub.Repaired != stale {
		t.Fatalf("scrub found %+v (%v), want exactly the %d copies no read repaired", scrub, err, stale)
	}
	for _, op := range writes {
		stored := workload.UniqueChunk(9, op.Content, cfg.Volume.BlockSize, 0.5)
		for _, n := range c.owners(op.LBA) {
			if got, _, err := c.nodes[n].Read(op.LBA); err != nil || !bytes.Equal(got, stored) {
				t.Fatalf("lba %d on node %d does not hold what the client wrote (%v)", op.LBA, n, err)
			}
		}
	}
}

// served returns which node's read counter moved since before.
func served(t *testing.T, c *Cluster, before []int64) int {
	t.Helper()
	at := -1
	for n, st := range c.NodeStats() {
		if st.Reads != before[n] {
			if at >= 0 || st.Reads != before[n]+1 {
				t.Fatalf("one read moved more than one counter: %v -> node %d at %d", before, n, st.Reads)
			}
			at = n
		}
		before[n] = st.Reads
	}
	return at
}

// TestClusterReadAndReadBatchAgreeOnReplica: the direct Read and the batch
// read route through one replica choice, so whatever is known stale they are
// served by the same node and count the same reads as fallbacks.
func TestClusterReadAndReadBatchAgreeOnReplica(t *testing.T) {
	c, err := New(quietConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	writes, _ := writeThenRead(128, 0)
	if _, err := c.Serve(writes, RunOptions{ContentSeed: 9}); err != nil {
		t.Fatal(err)
	}
	const lba = 77
	owners := c.owners(lba)
	cases := []struct {
		name     string
		stale    []int
		from     int
		fallback int64
	}{
		{"nothing stale", nil, owners[0], 0},
		{"stale primary", owners[:1], owners[1], 1},
		{"stale secondary", owners[1:], owners[0], 0},
		{"every copy stale", owners, owners[0], 0},
	}
	before := make([]int64, c.Nodes())
	served(t, c, before)
	for _, tc := range cases {
		clear(c.stale)
		for _, n := range tc.stale {
			c.stale[stKey{n, lba}] = true
		}
		if _, _, err := c.Read(lba); err != nil {
			t.Fatal(err)
		}
		direct := served(t, c, before)
		rep, err := c.ReadBatch([]int64{lba}, ReadBatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		batch := served(t, c, before)
		if direct != tc.from || batch != tc.from || rep.PerNode[tc.from].Reads != 1 || rep.Fallbacks != tc.fallback {
			t.Errorf("%s: Read served by node %d, ReadBatch by node %d with %d fallbacks; want node %d, %d fallbacks",
				tc.name, direct, batch, rep.Fallbacks, tc.from, tc.fallback)
		}
	}
}

// TestSinkMayReenter: a cluster batch read's Sink runs with no node's shard
// lock held, so it may read the block back through the cluster.
func TestSinkMayReenter(t *testing.T) {
	c, lbas := stormCluster(t, 2)
	lbas = lbas[:256]
	done := make(chan error, 1)
	go func() {
		_, err := c.ReadBatch(lbas, ReadBatchOptions{Clients: 2, Sink: func(i int, block []byte, err error) {
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if again, _, err := c.Read(lbas[i]); err != nil || !bytes.Equal(again, block) {
				t.Errorf("read %d: re-entrant Read disagrees with the batch (%v)", i, err)
			}
		}})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ReadBatch did not return: Sink deadlocked calling back into the cluster")
	}
}

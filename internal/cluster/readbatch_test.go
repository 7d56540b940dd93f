package cluster

import (
	"bytes"
	"testing"

	"inlinered/internal/fault"
	"inlinered/internal/workload"
)

// stormCluster builds a fault-free cluster (device and node streams off,
// so the batch read path sees a clean healthy-cluster boot storm) with the
// golden image installed.
func stormCluster(t *testing.T, parallelism int) (*Cluster, []int64) {
	t.Helper()
	vc := testVolume()
	vc.Faults.Rates[fault.SSDWriteTransient] = 0
	vc.Faults.Rates[fault.SSDReadTransient] = 0
	vc.Faults.Rates[fault.SSDLatencySpike] = 0
	vc.Faults.Rates[fault.JournalTorn] = 0
	vc.CacheBytes = 1 << 20
	vc.SubBlocks = 4
	c, err := New(Config{
		Volume:        vc,
		Nodes:         3,
		Replicas:      2,
		ShardsPerNode: 2,
		Parallelism:   parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	spec := workload.DefaultBootStormSpec()
	fill, err := spec.Fill()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Serve(fill, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	lbas, err := spec.Storm()
	if err != nil {
		t.Fatal(err)
	}
	return c, lbas
}

// TestClusterReadBatchMatchesDirect: batch bytes must equal the direct
// Read path's for every request in the storm.
func TestClusterReadBatchMatchesDirect(t *testing.T) {
	c, lbas := stormCluster(t, 2)
	ref, _ := stormCluster(t, 2)
	want := make([][]byte, len(lbas))
	for i, lba := range lbas {
		data, _, err := ref.Read(lba)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = data
	}
	got := make([][]byte, len(lbas))
	rep, err := c.ReadBatch(lbas, ReadBatchOptions{Sink: func(i int, block []byte, err error) {
		if err != nil {
			t.Errorf("read %d: %v", i, err)
		}
		got[i] = append([]byte(nil), block...)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lbas {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("read %d (lba %d): batch bytes diverge from direct reads", i, lbas[i])
		}
	}
	if rep.Reads != len(lbas) || rep.Errors != 0 || rep.Fallbacks != 0 {
		t.Fatalf("healthy-cluster report: %+v", rep)
	}
}

// TestClusterReadBatchReadMostly: the read-mostly preset's reads replay
// through the cluster batch path without errors after a mixed Serve pass.
func TestClusterReadBatchReadMostly(t *testing.T) {
	c, _ := stormCluster(t, 2)
	ops, err := workload.ClosedLoop(workload.ReadMostlySpec(400, 256, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Serve(ops, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	lbas := make([]int64, 0, len(ops))
	for _, op := range ops {
		if op.Kind == workload.OpRead {
			lbas = append(lbas, op.LBA)
		}
	}
	rep, err := c.ReadBatch(lbas, ReadBatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("read-mostly replay errors: %d", rep.Errors)
	}
	if rep.Reads != len(lbas) {
		t.Fatalf("reads %d, want %d", rep.Reads, len(lbas))
	}
}

// TestClusterReadBatchValidation: an out-of-range LBA fails the whole
// batch.
func TestClusterReadBatchValidation(t *testing.T) {
	c, _ := stormCluster(t, 1)
	if _, err := c.ReadBatch([]int64{0, c.Blocks()}, ReadBatchOptions{}); err == nil {
		t.Fatal("out-of-range lba accepted")
	}
}

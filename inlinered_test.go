package inlinered

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestRunQuickstart(t *testing.T) {
	stream, err := NewStream(StreamSpec{TotalBytes: 8 << 20, DedupRatio: 2, CompressionRatio: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(PaperPlatform(), Options{Mode: GPUCompress, Verify: true}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks == 0 || rep.IOPS <= 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if math.Abs(rep.DedupRatio-2.0) > 0.2 {
		t.Fatalf("dedup ratio %g", rep.DedupRatio)
	}
}

func TestEngineVerify(t *testing.T) {
	stream, _ := NewStream(StreamSpec{TotalBytes: 4 << 20, DedupRatio: 2, CompressionRatio: 2, Seed: 2})
	eng, err := NewEngine(PaperPlatform(), Options{Mode: CPUOnly, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Process(stream); err != nil {
		t.Fatal(err)
	}
	stream.Reset()
	if err := eng.Verify(stream); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsDisableOperations(t *testing.T) {
	stream, _ := NewStream(StreamSpec{TotalBytes: 4 << 20, DedupRatio: 3, CompressionRatio: 2, Seed: 3})
	rep, err := Run(PaperPlatform(), Options{DisableDedup: true}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DupChunks != 0 {
		t.Fatal("dedup disabled but duplicates found")
	}
	if _, err := Run(PaperPlatform(), Options{DisableDedup: true, DisableCompression: true}, stream); err == nil {
		t.Fatal("both operations off should error")
	}
}

func TestCalibrateOnWeakGPU(t *testing.T) {
	res, err := Calibrate(WeakGPUPlatform(), Options{}, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	// A weak GPU must not win the calibration for compression.
	if res.Best == GPUCompress || res.Best == GPUBoth {
		for m, r := range res.Reports {
			t.Logf("%s: %.0f IOPS", m, r.IOPS)
		}
		t.Fatalf("weak GPU platform picked %s", res.Best)
	}
}

func TestStreamSpecDefaults(t *testing.T) {
	s, err := NewStream(StreamSpec{TotalBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s.Spec().ChunkSize != 4096 || s.Spec().DedupRatio != 1.0 || s.Spec().CompRatio != 1.0 {
		t.Fatalf("defaults not applied: %+v", s.Spec())
	}
}

func TestTemporalLocalityOption(t *testing.T) {
	s, err := NewStream(StreamSpec{TotalBytes: 2 << 20, DedupRatio: 3, TemporalLocality: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Chunks() == 0 {
		t.Fatal("no chunks")
	}
}

func TestExtensionOptions(t *testing.T) {
	stream, _ := NewStream(StreamSpec{TotalBytes: 4 << 20, DedupRatio: 2, CompressionRatio: 2, Seed: 5})
	rep, err := Run(PaperPlatform(), Options{QuickLZ: true, EntropyBypass: true, Verify: true}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompRatio < 1.5 {
		t.Fatalf("qlz run ratio %g", rep.CompRatio)
	}
	stream2, _ := NewStream(StreamSpec{TotalBytes: 4 << 20, DedupRatio: 2, CompressionRatio: 2, Seed: 5})
	eng, err := NewEngine(PaperPlatform(), Options{ContentDefined: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := eng.Process(stream2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Chunks == int64(stream2.Chunks()) {
		t.Fatal("CDC should produce a different chunk count than fixed 4K")
	}
	stream2.Reset()
	if err := eng.Verify(stream2); err != nil {
		t.Fatal(err)
	}
}

func TestBlockDevice(t *testing.T) {
	dev, err := NewBlockDevice(BlockDeviceOptions{Blocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i % 7)
	}
	if _, err := dev.Write(3, data); err != nil {
		t.Fatal(err)
	}
	got, lat, err := dev.Read(3)
	if err != nil || lat <= 0 {
		t.Fatalf("read: %v lat=%v", err, lat)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatal("round trip mismatch")
		}
	}
	if _, err := dev.Write(4, data); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().DedupHits != 1 {
		t.Fatalf("dedup hits: %d", dev.Stats().DedupHits)
	}
	if _, err := dev.Trim(3); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Clean(); err != nil {
		t.Fatal(err)
	}
	if dev.Now() <= 0 {
		t.Fatal("clock should advance")
	}
}

// TestRecorderAndJSON smoke-tests the observability surface of the public
// API: a Recorder collects spans from a run, exports valid Chrome
// trace-event JSON, and the report's JSON envelope parses.
func TestRecorderAndJSON(t *testing.T) {
	stream, err := NewStream(StreamSpec{TotalBytes: 4 << 20, DedupRatio: 2, CompressionRatio: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rep, err := Run(PaperPlatform(), Options{Mode: GPUBoth, Recorder: rec}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Spans() == 0 {
		t.Fatal("recorder saw no spans")
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := 0
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if int64(spans) != rec.Spans() {
		t.Errorf("trace has %d complete events, recorder counted %d", spans, rec.Spans())
	}

	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(js, &env); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if env.Schema == "" {
		t.Error("report JSON missing schema tag")
	}
	if rep.Latency.JournalFlush.Count == 0 {
		t.Errorf("recorder-enabled run reported no journal-flush latency: %+v", rep.Latency)
	}

	m, err := ParseMode("gpu-both")
	if err != nil || m != GPUBoth {
		t.Errorf("ParseMode(gpu-both) = %v, %v", m, err)
	}
}

func TestArrayServeDeterminism(t *testing.T) {
	ops, err := NewOps(OpsSpec{
		Ops: 600, Blocks: 256, WriteFrac: 0.5, TrimFrac: 0.1,
		DedupRatio: 2, Hotspot: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(clients int) []byte {
		a, err := NewArray(BlockDeviceOptions{
			Blocks: 4096, Shards: 4, FaultRate: 0.02, FaultSeed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.Serve(ops, ServeOptions{Clients: clients, ContentSeed: 5})
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	base := run(1)
	for _, clients := range []int{4, 16} {
		if !bytes.Equal(run(clients), base) {
			t.Fatalf("serve report diverged at %d clients", clients)
		}
	}
	var env struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(base, &env); err != nil || env.Schema != "inlinered/serve-report/v1" {
		t.Fatalf("serve report envelope: schema=%q err=%v", env.Schema, err)
	}
}

func TestArrayShardedRoundTrip(t *testing.T) {
	a, err := NewArray(BlockDeviceOptions{Blocks: 1024, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", a.Shards())
	}
	data := bytes.Repeat([]byte{7}, 4096)
	for lba := int64(0); lba < 16; lba++ {
		if _, err := a.Write(lba, data); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := a.Read(9)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip through shards failed: %v", err)
	}
	st := a.Stats()
	if st.Writes != 16 || st.Reads != 1 {
		t.Fatalf("merged stats: %+v", st)
	}
	if per := a.ShardStats(); len(per) != 4 {
		t.Fatalf("shard stats entries: %d", len(per))
	}
}

func TestRecorderRequiresSingleShard(t *testing.T) {
	if _, err := NewArray(BlockDeviceOptions{Shards: 2, Recorder: NewRecorder()}); err == nil {
		t.Fatal("Recorder with Shards > 1 must be rejected")
	}
	if _, err := NewBlockDevice(BlockDeviceOptions{Shards: 2, Recorder: NewRecorder()}); err == nil {
		t.Fatal("BlockDevice Recorder with Shards > 1 must be rejected")
	}
	if _, err := NewBlockDevice(BlockDeviceOptions{Shards: 1, Recorder: NewRecorder()}); err != nil {
		t.Fatalf("single-shard recorder rejected: %v", err)
	}
}

func TestClusterQuickstart(t *testing.T) {
	ops, err := NewOps(OpsSpec{
		Ops: 800, Blocks: 512, WriteFrac: 0.09, TrimFrac: 0.01,
		DedupRatio: 2, Hotspot: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(clients int) (*ClusterReport, []byte, *Cluster) {
		c, err := NewCluster(BlockDeviceOptions{
			Blocks: 512, Shards: 2, Nodes: 3, Replicas: 2,
			NodeFaultRate: 0.01, NodeFaultSeed: 1337,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Serve(ops, ClusterServeOptions{Clients: clients, ContentSeed: 5})
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep, js, c
	}
	rep, base, c := run(1)
	for _, clients := range []int{3, 8} {
		if _, js, _ := run(clients); !bytes.Equal(js, base) {
			t.Fatalf("cluster report diverged at %d clients", clients)
		}
	}
	var env struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(base, &env); err != nil || env.Schema != "inlinered/cluster-report/v1" {
		t.Fatalf("cluster report envelope: schema=%q err=%v", env.Schema, err)
	}
	if rep.Nodes != 3 || rep.Replicas != 2 || c.Nodes() != 3 || c.Replicas() != 2 {
		t.Fatalf("cluster shape: report %d/%d cluster %d/%d",
			rep.Nodes, rep.Replicas, c.Nodes(), c.Replicas())
	}
	if rep.Faults.ReadsUnserved != 0 {
		t.Fatalf("reads went unserved: %+v", rep.Faults)
	}
	scrub, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if scrub.Errors != 0 {
		t.Fatalf("scrub errors on a faultless device: %+v", scrub)
	}
	if len(c.NodeStats()) != 3 {
		t.Fatal("node stats entries")
	}
	if reb, err := c.AddNode(); err != nil || reb.RangesMoved == 0 {
		t.Fatalf("AddNode: %+v err=%v", reb, err)
	}
	if c.Nodes() != 4 {
		t.Fatalf("nodes after AddNode = %d", c.Nodes())
	}
	if c.Now() == 0 {
		t.Fatal("virtual clock never advanced")
	}
}

func TestClusterRejectsBadShape(t *testing.T) {
	if _, err := NewCluster(BlockDeviceOptions{Nodes: 2, Replicas: 3}); err == nil {
		t.Fatal("Replicas > Nodes must be rejected")
	}
}

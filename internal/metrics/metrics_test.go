package metrics

import (
	"bytes"
	"math"
	"math/bits"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionRoundTrip drives real values through the handle table,
// renders the exposition, and runs it through the strict parser — the
// output must be valid text format with every registered family present.
func TestExpositionRoundTrip(t *testing.T) {
	Enable()
	defer Disable()

	PoolMapCalls.Add(3)
	PoolItems.AddAt(5, 128)
	PoolBusy.AddAt(1, 2_000_000)
	PoolIdle.AddAt(2, 500_000)
	PoolClaimWait.Observe(12_345)
	PoolBatchSize.Observe(32)
	StageChunk.Observe(1_000)
	StageHash.Observe(2_000)
	ServeDispatch.Observe(777)
	ClusterReplay.Observe(9_999)
	VolumeJournalFlush.Observe(4_321)
	SampleRuntime()

	var buf bytes.Buffer
	if err := WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if err := Validate(buf.Bytes(), Names()...); err != nil {
		t.Fatalf("exposition failed validation: %v\n%s", err, buf.String())
	}

	exp, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if exp.Types["inlinered_stage_wall_seconds"] != "histogram" {
		t.Errorf("stage family type = %q, want histogram", exp.Types["inlinered_stage_wall_seconds"])
	}
	// The GC pause distribution must be present once SampleRuntime ran.
	if err := Validate(buf.Bytes(), "go_gc_pauses_seconds"); err != nil {
		t.Errorf("runtime pause histogram: %v", err)
	}

	// Spot-check a counter's exported (scaled) value: PoolBusy stores ns,
	// exports seconds.
	found := false
	for _, s := range exp.Samples {
		if s.Name == "inlinered_pool_worker_busy_seconds_total" {
			found = true
			if s.Value < 0.002 {
				t.Errorf("busy seconds = %g, want >= 0.002", s.Value)
			}
		}
	}
	if !found {
		t.Error("pool busy counter missing from exposition")
	}
}

func TestSeriesValue(t *testing.T) {
	before, ok := SeriesValue("inlinered_pool_map_calls_total", "subsystem", "parallel")
	if !ok {
		t.Fatal("pool map calls series not found")
	}
	PoolMapCalls.Add(2)
	after, _ := SeriesValue("inlinered_pool_map_calls_total", "subsystem", "parallel")
	if after != before+2 {
		t.Errorf("SeriesValue delta = %d, want 2", after-before)
	}
	if n, ok := SeriesValue("inlinered_stage_wall_seconds", "subsystem", "core", "stage", "chunk"); !ok || n < 0 {
		t.Errorf("stage histogram series lookup: n=%d ok=%v", n, ok)
	}
	if _, ok := SeriesValue("no_such_family"); ok {
		t.Error("unknown family should not resolve")
	}
}

func TestClockDisabledSentinel(t *testing.T) {
	Disable()
	if c := Clock(); c != -1 {
		t.Fatalf("Clock() with metrics off = %d, want -1", c)
	}
	h := &Histogram{}
	h.ObserveSince(-1) // must be a no-op
	h.ObserveSince(Clock())
	if h.N() != 0 {
		t.Fatalf("disabled ObserveSince recorded %d samples", h.N())
	}
	Enable()
	defer Disable()
	start := Clock()
	if start < 0 {
		t.Fatal("Clock() with metrics on returned sentinel")
	}
	h.ObserveSince(start)
	if h.N() != 1 {
		t.Fatalf("enabled ObserveSince recorded %d samples, want 1", h.N())
	}
}

// TestHotPathZeroAlloc pins the acceptance criterion that recording
// allocates nothing in steady state.
func TestHotPathZeroAlloc(t *testing.T) {
	Enable()
	defer Disable()
	h := &Histogram{}
	var c Counter
	if n := testing.AllocsPerRun(200, func() {
		c.AddAt(3, 1)
		h.Observe(42)
		h.ObserveSince(Clock())
	}); n != 0 {
		t.Errorf("hot-path record allocates %.1f objects/op, want 0", n)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddAt(slot, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("Value = %d, want %d", got, workers*per)
	}
}

// TestHistogramMinMax: the extremes survive to bucket resolution — the
// lowest and highest occupied buckets are the smallest and largest sample's
// — and a negative sample clamps to zero.
func TestHistogramMinMax(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{50, 3, 900, -7} { // -7 clamps to 0
		h.Observe(v)
	}
	counts, n, sum := h.snapshot()
	lo, hi := -1, -1
	for b, c := range counts {
		if c > 0 {
			if lo < 0 {
				lo = b
			}
			hi = b
		}
	}
	if n != 4 || sum != 953 || lo != 0 || hi != bits.Len64(900) {
		t.Errorf("snapshot = n=%d sum=%d buckets %d..%d, want 4/953/0..%d", n, sum, lo, hi, bits.Len64(900))
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := t.TempDir() + "/metrics.prom"
	stop, err := StartSnapshotter(path, 0)
	if err != nil {
		t.Fatalf("StartSnapshotter: %v", err)
	}
	defer Disable()
	if !Enabled() {
		t.Error("StartSnapshotter should enable metrics")
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	data := mustRead(t, path)
	if err := Validate(data, "inlinered_pool_map_calls_total", "inlinered_stage_wall_seconds", "go_goroutines"); err != nil {
		t.Fatalf("snapshot file invalid: %v", err)
	}
}

func TestSnapshotterPeriodic(t *testing.T) {
	path := t.TempDir() + "/metrics.prom"
	stop, err := StartSnapshotter(path, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("StartSnapshotter: %v", err)
	}
	defer Disable()
	time.Sleep(25 * time.Millisecond)
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := stop(); err != nil { // idempotent
		t.Fatalf("second stop: %v", err)
	}
	if err := Validate(mustRead(t, path)); err != nil {
		t.Fatalf("periodic snapshot invalid: %v", err)
	}
}

func TestSnapshotterBadPath(t *testing.T) {
	if _, err := StartSnapshotter(t.TempDir()+"/no/such/dir/m.prom", 0); err == nil {
		t.Fatal("want error for unwritable path")
	}
	Disable()
}

func TestSummaryLine(t *testing.T) {
	line := SummaryLine()
	for _, want := range []string{"wall-clock:", "pool busy", "GC pause"} {
		if !strings.Contains(line, want) {
			t.Errorf("SummaryLine %q missing %q", line, want)
		}
	}
}

// TestParserRejectsMalformed exercises the validator's teeth: each input
// here must be refused.
func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing trailing newline": "# TYPE a counter\na 1",
		"sample without TYPE":      "a 1\n",
		"bad metric name":          "# TYPE 9bad counter\n",
		"unknown type":             "# TYPE a widget\n",
		"duplicate TYPE":           "# TYPE a counter\n# TYPE a gauge\na 1\n",
		"bad value":                "# TYPE a counter\na one\n",
		"unterminated label":       "# TYPE a counter\na{x=\"y 1\n",
		"bad escape":               "# TYPE a counter\na{x=\"\\q\"} 1\n",
		"duplicate label":          "# TYPE a counter\na{x=\"1\",x=\"2\"} 1\n",
		"histogram without +Inf":   "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1\n",
		"non-cumulative buckets":   "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1\n",
		"le not increasing":        "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 2\nh_sum 1\n",
		"count bucket mismatch":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 3\nh_sum 1\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition([]byte(in)); err == nil {
			t.Errorf("%s: parser accepted %q", name, in)
		}
	}
}

func TestParserAcceptsValid(t *testing.T) {
	in := "# HELP a A counter.\n# TYPE a counter\n" +
		"a{path=\"with \\\"quotes\\\" and \\\\ and \\n\"} 1 1700000000000\n" +
		"# TYPE h histogram\n" +
		"h_bucket{shard=\"0\",le=\"0.5\"} 2\nh_bucket{shard=\"0\",le=\"+Inf\"} 4\n" +
		"h_sum{shard=\"0\"} 1.5\nh_count{shard=\"0\"} 4\n" +
		"h_bucket{shard=\"1\",le=\"+Inf\"} 0\nh_sum{shard=\"1\"} 0\nh_count{shard=\"1\"} 0\n"
	exp, err := ParseExposition([]byte(in))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if len(exp.Samples) != 8 {
		t.Errorf("samples = %d, want 8", len(exp.Samples))
	}
	if got := exp.Samples[0].Labels["path"]; got != "with \"quotes\" and \\ and \n" {
		t.Errorf("unescaped label = %q", got)
	}
	if err := Validate([]byte(in), "a", "h"); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := Validate([]byte(in), "missing"); err == nil {
		t.Error("Validate should fail on absent required family")
	}
	// A label selector requires one series of the family, not just any.
	if err := Validate([]byte(in), `h{shard="1"}`); err != nil {
		t.Errorf("Validate with a selector: %v", err)
	}
	for _, bad := range []string{`h{shard="2"}`, `a{shard="0"}`, `h{shard=0}`} {
		if err := Validate([]byte(in), bad); err == nil {
			t.Errorf("Validate should fail on %s", bad)
		}
	}
}

func TestBucketUpper(t *testing.T) {
	for _, tc := range []struct {
		b    int
		want int64
	}{
		{0, 0}, {1, 1}, {2, 3}, {10, 1023}, {63, math.MaxInt64}, {70, math.MaxInt64},
	} {
		if got := bucketUpper(tc.b); got != tc.want {
			t.Errorf("bucketUpper(%d) = %d, want %d", tc.b, got, tc.want)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

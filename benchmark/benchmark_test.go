package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallConfig runs every workload at 1/64 of its size with a time box so
// short that only the snapshot rounds run.
func smallConfig(t *testing.T) config {
	return config{seed: 11, seconds: 0.01, scale: 64, workers: workerCount(), outDir: t.TempDir()}
}

func checkMetrics(t *testing.T, res *result, names []string, nonZero bool) {
	t.Helper()
	for _, n := range names {
		m, ok := res.Metrics[n]
		switch {
		case !ok:
			t.Errorf("metric %s missing", n)
		case m.Unit != metricDefs[n].unit:
			t.Errorf("metric %s has unit %q, dictionary says %q", n, m.Unit, metricDefs[n].unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", n, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("metric %s is %v, want > 0", n, m.Value)
		}
	}
}

func TestEndToEndSmall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(w, smallConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, bounded(w.name), true)
			var line result
			if err := json.Unmarshal([]byte(res.line(endToEnd)), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(endToEnd) {
				t.Errorf("result line carries %d metrics, want the %d end-to-end ones", len(line.Metrics), len(endToEnd))
			}
		})
	}
}

func TestExactMetricsRepeat(t *testing.T) {
	for _, name := range []string{"serve-mixed", "blockdev-direct", "cluster-replicated"} {
		w, _ := findWorkload(name)
		a, err := runEndToEnd(w, smallConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runEndToEnd(w, smallConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range endToEnd {
			if metricDefs[n].exact && a.value(n) != b.value(n) {
				t.Errorf("%s: %s differs between two runs of one seed: %v, %v", name, n, a.value(n), b.value(n))
			}
		}
		other := smallConfig(t)
		other.seed = 12
		c, err := runEndToEnd(w, other)
		if err != nil {
			t.Fatal(err)
		}
		if a.value("stored_per_user_byte") == c.value("stored_per_user_byte") {
			t.Errorf("%s: another seed gave the same stored_per_user_byte: the seed does not reach the inputs", name)
		}
	}
}

func TestTracedSmall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smallConfig(t)
			res, err := runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, perLayer(), false)
			if res.value("bench.spans") < 1 {
				t.Error("no spans recorded")
			}
			raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &trace); err != nil {
				t.Fatalf("trace is not valid JSON: %v", err)
			}
			if got := len(trace.TraceEvents) - 1; float64(got) != res.value("bench.spans") {
				t.Errorf("trace holds %d spans, bench.spans says %v", got, res.value("bench.spans"))
			}
		})
	}
}

// TestBypassPredictions checks, at small size, the counts behind the
// workload pairs: what one workload stresses the other must bypass.
func TestBypassPredictions(t *testing.T) {
	traced := map[string]*result{}
	for _, name := range []string{"ingest-fixed", "ingest-cdc", "boot-storm"} {
		w, _ := findWorkload(name)
		res, err := runTraced(w, smallConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		traced[name] = res
	}
	if v := traced["ingest-fixed"].value("lz.encode_busy_s"); v <= 0 {
		t.Errorf("ingest-fixed: lz.encode_busy_s = %v, want the encoder to run", v)
	}
	for _, name := range []string{"ingest-cdc", "boot-storm"} {
		if v := traced[name].value("lz.encode_busy_s"); v != 0 {
			t.Errorf("%s: lz.encode_busy_s = %v, want 0 (the workload bypasses the encoder)", name, v)
		}
	}
	if v := traced["boot-storm"].value("chunk.busy_s"); v != 0 {
		t.Errorf("boot-storm: chunk.busy_s = %v, want 0", v)
	}
	if v := traced["ingest-cdc"].value("lz.bypass_busy_s"); v <= 0 {
		t.Errorf("ingest-cdc: lz.bypass_busy_s = %v, want the entropy bypass to run", v)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {-5, 1}, {150, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{1, 2, 3, 4}); !near(got, 2.5) {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestBestSegment(t *testing.T) {
	// Two samples per segment: the first half of the run disturbed (10s),
	// the rest quiet (1s) but for a spike that recurs in every segment.
	var lane []float64
	for i := 0; i < segments; i++ {
		lane = append(lane, 10)
	}
	for i := 0; i < segments/2; i++ {
		lane = append(lane, 1, 3)
	}
	if got := bestSegment([][]float64{lane}, mean); !near(got, 2) {
		t.Errorf("best segment mean = %v, want 2 (the recurring spike stays in)", got)
	}
	if got := bestSegment([][]float64{lane}, func(xs []float64) float64 { return percentile(xs, 100) }); !near(got, 3) {
		t.Errorf("best segment max = %v, want 3", got)
	}
	// Two lanes are pooled segment by segment.
	quiet := make([]float64, len(lane))
	for i := range quiet {
		quiet[i] = 4
	}
	if got := bestSegment([][]float64{lane, quiet}, mean); !near(got, 3) {
		t.Errorf("two-lane best segment mean = %v, want 3", got)
	}
	// Fewer samples than segments: empty parts are dropped.
	if got := bestSegment([][]float64{{9, 7, 8}}, mean); !near(got, 7) {
		t.Errorf("best of three samples = %v, want 7", got)
	}
	if got := bestSegment(nil, mean); got != 0 {
		t.Errorf("best of nothing = %v, want 0", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; !near(got, want) {
		t.Errorf("quartileSpread of five = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(start, end int64, parent int32) span { return span{start: start, end: end, parent: parent} }
	spans := []span{
		sp(0, 100, noSpan), // 0: root
		sp(10, 40, 0),      // 1: child of the root
		sp(30, 60, 0),      // 2: overlaps 1 by 10
		sp(15, 25, 1),      // 3: nested in 1
		sp(70, 70, 0),      // 4: zero length
		sp(90, 130, 0),     // 5: runs past the root's end, clipped to 10
		sp(20, 20, 3),      // 6: zero length inside 3
		sp(200, 250, noSpan),
	}
	want := []int64{100 - (30 + 20 + 0 + 10), 30 - 10, 30, 10, 0, 40, 0, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerLanes(t *testing.T) {
	tr := newTracer(2)
	root := tr.begin("root", noSpan)
	sum := make([]int, 100)
	wall, busy := tr.fanout("work", root, 2, len(sum), 10, func(i int) { sum[i] = i })
	tr.end(root)
	if wall <= 0 || busy <= 0 {
		t.Errorf("fanout reported wall %v busy %v", wall, busy)
	}
	for i, v := range sum {
		if v != i {
			t.Fatalf("index %d not visited", i)
		}
	}
	spans := tr.spans()
	blocks := 0
	for _, s := range spans {
		if s.name == "work" {
			blocks++
			if s.root != root || spans[s.parent].name != "work@2" {
				t.Errorf("block span has root %d parent %q", s.root, spans[s.parent].name)
			}
		}
	}
	if blocks != 10 {
		t.Errorf("fanout recorded %d block spans, want 10", blocks)
	}
}

func TestCompareRefusesOtherEnvelope(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig(t)
	f := &resultFile{Envelope: hostEnvelope(cfg, false), Workloads: map[string]*result{}}
	for _, w := range workloads {
		r := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
		for _, n := range bounded(w.name) {
			r.set(n, 1)
		}
		f.Workloads[w.name] = r
	}
	a, err := f.write(dir, "a.json")
	if err != nil {
		t.Fatal(err)
	}
	f.Envelope.Commit = "another"
	f.Workloads["serve-mixed"].set("throughput_mbps", 0.5)
	b, err := f.write(dir, "b.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := compareFiles([]string{a, a}); err != nil {
		t.Errorf("a file against itself: %v", err)
	}
	if err := compareFiles([]string{a, b}); err == nil || !strings.Contains(err.Error(), "serve-mixed/throughput_mbps") {
		t.Errorf("halved throughput on another commit: got %v, want it flagged", err)
	}
	f.Envelope.Seed++
	c, err := f.write(dir, "c.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := compareFiles([]string{a, c}); err == nil || !strings.Contains(err.Error(), "envelopes differ") {
		t.Errorf("different seeds: got %v, want a refusal", err)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the root of the repository to
// the dictionary and the workload table in this package.
func TestBenchmarkJSON(t *testing.T) {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var want struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	want.Command = []string{"bash", "benchmark/run.sh"}
	want.Paths = []string{"benchmark"}
	want.RunSeconds = defaultSeconds
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, entry{Name: w.name, Why: w.why})
	}
	for _, n := range endToEnd {
		d := metricDefs[n]
		bound := d.bound
		want.EndToEnd = append(want.EndToEnd, entry{Name: n, Unit: d.unit, Better: d.better, Bound: &bound})
	}
	for _, n := range perLayer() {
		d := metricDefs[n]
		want.PerLayer = append(want.PerLayer, entry{Name: n, Unit: d.unit, Better: d.better})
	}
	expected, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(got)) != string(expected) {
		path := filepath.Join("out", "BENCHMARK.json.expected")
		if err := os.WriteFile(path, append(expected, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("../BENCHMARK.json does not match the dictionary; the expected file was written to benchmark/%s", path)
	}
}

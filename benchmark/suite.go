package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// maxWorkers caps generator threads, Parallelism and Shards, so a result
// from a large host stays comparable in shape with the reference host's.
const maxWorkers = 4

func workerCount() int { return min(runtime.NumCPU(), maxWorkers) }

// envelope records where and on what a result file was measured. Two files
// compare only when their envelopes agree on everything but the commit.
type envelope struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Workers    int     `json:"workers"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Sizes      sizes   `json:"sizes"`
}

func hostEnvelope(cfg config, traced bool) envelope {
	return envelope{
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workers: cfg.workers, Commit: commit(),
		Seed: cfg.seed, Seconds: cfg.seconds, Traced: traced, Sizes: sizesFor(cfg.scale),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checkout when it is a git repository (the driver's is
// not, and git is then not asked: it would search the parent directories).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		if _, err := os.Stat(filepath.Join("..", ".git")); err != nil {
			return "unknown"
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sameHost reports whether two envelopes describe comparable runs.
func (e envelope) sameHost(o envelope) bool {
	e.Commit, o.Commit = "", ""
	return reflect.DeepEqual(e, o)
}

// resultFile is one suite run: the envelope and every workload's metrics.
type resultFile struct {
	Envelope  envelope           `json:"envelope"`
	Workloads map[string]*result `json:"workloads"`
}

func (f *resultFile) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runSuite runs every workload, each in its own child process, and writes
// the result file.
func runSuite(cfg config, traced bool, echo bool) (*resultFile, error) {
	f := &resultFile{Envelope: hostEnvelope(cfg, traced), Workloads: map[string]*result{}}
	for _, w := range workloads {
		res, err := runChild(w.name, cfg, traced, echo)
		if err != nil {
			return nil, err
		}
		f.Workloads[w.name] = res
	}
	name := fmt.Sprintf("result-seed%d.json", cfg.seed)
	if traced {
		name = fmt.Sprintf("result-traced-seed%d.json", cfg.seed)
	}
	path, err := f.write(cfg.outDir, name)
	if err != nil {
		return nil, err
	}
	if echo {
		fmt.Printf("wrote %s\n", path)
	}
	return f, nil
}

// bounded lists the metrics two untraced runs are held to: the end-to-end
// list, the tail, and on blockdev-direct its per-op latencies.
func bounded(workload string) []string {
	names := append(append([]string(nil), endToEnd...), tail...)
	if workload == "blockdev-direct" {
		names = append(names, directLatency...)
	}
	return names
}

// worse returns by what share b is worse than a for a metric whose better
// direction is given (negative: b is better).
func worse(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// compareFiles prints old against new and fails when a bounded metric got
// worse by more than its bound; it refuses files from different hosts,
// seeds or sizes.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files, got %d", len(paths))
	}
	a, err := readResultFile(paths[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(paths[1])
	if err != nil {
		return err
	}
	if !a.Envelope.sameHost(b.Envelope) {
		return fmt.Errorf("envelopes differ, refusing to compare:\n  %+v\n  %+v", a.Envelope, b.Envelope)
	}
	fmt.Printf("old %s  new %s\n", a.Envelope.Commit, b.Envelope.Commit)
	var bad []string
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			return fmt.Errorf("%s: missing from a result file", w.name)
		}
		names := bounded(w.name)
		if a.Envelope.Traced {
			names = perLayer()
		}
		for _, n := range names {
			d := metricDefs[n]
			va, vb := ra.value(n), rb.value(n)
			share := worse(d.better, va, vb)
			flag := ""
			switch {
			case !a.Envelope.Traced && share > d.bound:
				flag = "  WORSE beyond bound"
				bad = append(bad, w.name+"/"+n)
			case d.exact && va != vb:
				flag = "  exact count moved"
			}
			fmt.Printf("  %-20s %-26s %14.6g -> %14.6g %-6s %+7.2f%%%s\n", w.name, n, va, vb, d.unit, -100*share, flag)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d metrics worse beyond their bound: %s", len(bad), strings.Join(bad, ", "))
	}
	return nil
}

// runSelfcheck runs the untraced suite sets times and one traced suite, and
// fails if the benchmark cannot be trusted: a timing that differs between
// sets by more than its bound (the whole range with two or three sets, the
// quartile distance over the median with four or more), an exact metric
// that differs at all, a failed op, or a workload that no longer stresses
// (or bypasses) the layer it exists for.
func runSelfcheck(cfg config, sets int) error {
	if sets < 2 {
		return fmt.Errorf("-selfcheck needs at least 2 sets, got %d", sets)
	}
	var files []*resultFile
	for s := 0; s < sets; s++ {
		fmt.Printf("== untraced set %d of %d\n", s+1, sets)
		f, err := runSuite(cfg, false, false)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	var problems []string
	fmt.Printf("%-20s %-24s %12s %12s %9s %8s\n", "workload", "metric", "min", "max", "spread", "bound")
	for _, w := range workloads {
		for _, n := range bounded(w.name) {
			d := metricDefs[n]
			var vs []float64
			for _, f := range files {
				vs = append(vs, f.Workloads[w.name].value(n))
			}
			sort.Float64s(vs)
			lo, hi := vs[0], vs[len(vs)-1]
			spread := 0.0
			switch {
			case len(vs) >= 4:
				spread = quartileSpread(vs) // the driver's rule: one bad run of many is forgiven
			case lo != 0:
				spread = (hi - lo) / math.Abs(lo)
			}
			bound := d.bound
			if d.exact {
				bound = 0
			}
			// Like the driver, hold only the end-to-end list to its bounds,
			// and setup_s (a median of three short set-ups) to none; the
			// tail and the per-op latencies are printed, not gated.
			gated := slices.Contains(endToEnd, n) && n != "setup_s"
			note := ""
			if !gated {
				note = "  (not gated)"
			}
			fmt.Printf("%-20s %-24s %12.6g %12.6g %8.2f%% %7.0f%%%s\n", w.name, n, lo, hi, 100*spread, 100*bound, note)
			if gated && spread > bound {
				problems = append(problems, fmt.Sprintf("%s/%s spread %.2f%% beyond %.0f%%", w.name, n, 100*spread, 100*bound))
			}
		}
	}
	fmt.Println("== traced suite")
	traced, err := runSuite(cfg, true, false)
	if err != nil {
		return err
	}
	problems = append(problems, checkPredictions(files[0], traced)...)
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck: %d problems", len(problems))
	}
	fmt.Println("selfcheck passed")
	return nil
}

// checkPredictions asserts the bypass predictions the workload pairs exist
// for, from one traced suite, as shares of the CPU time of the replayed
// layers of an ingest workload (every term a one-worker busy time measured
// within a second of the others), and that no op failed anywhere.
func checkPredictions(untraced, traced *resultFile) []string {
	var problems []string
	share := func(workload string, parts ...string) float64 {
		r := traced.Workloads[workload]
		sum := func(names ...string) float64 {
			total := 0.0
			for _, n := range names {
				total += r.value(n)
			}
			return total
		}
		cpu := sum("chunk.busy_s", "dedup.hash_busy_s", "dedup.probe_busy_s", "lz.bypass_busy_s", "lz.encode_busy_s", "ssd.busy_s")
		if cpu <= 0 {
			return 0
		}
		return sum(parts...) / cpu
	}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	fixedEnc, cdcEnc := share("ingest-fixed", "lz.encode_busy_s"), share("ingest-cdc", "lz.encode_busy_s")
	fixedChunk := share("ingest-fixed", "chunk.busy_s")
	cdcFront := share("ingest-cdc", "chunk.busy_s", "dedup.hash_busy_s")
	check(fixedEnc >= 0.40, "ingest-fixed: encoder is %.0f%% of the CPU time, want >= 40%%", 100*fixedEnc)
	check(cdcEnc <= 0.05, "ingest-cdc: encoder is %.0f%% of the CPU time, want <= 5%%", 100*cdcEnc)
	check(fixedChunk <= 0.05, "ingest-fixed: chunker is %.0f%% of the CPU time, want <= 5%%", 100*fixedChunk)
	check(cdcFront >= 0.40, "ingest-cdc: chunker+hash is %.0f%% of the CPU time, want >= 40%%", 100*cdcFront)
	storm := traced.Workloads["boot-storm"].value("lz.encode_busy_s")
	check(storm == 0, "boot-storm: lz.encode_busy_s is %g, want 0", storm)
	cleans := untraced.Workloads["serve-mixed"].value("serve.clean_runs")
	check(cleans >= 50, "serve-mixed: %g cleaner runs in the timed region, want >= 50", cleans)
	for _, f := range []*resultFile{untraced, traced} {
		for _, w := range workloads {
			r := f.Workloads[w.name]
			check(r.Correct && r.Failed == 0, "%s (traced=%v): %d failed ops", w.name, f.Envelope.Traced, r.Failed)
		}
	}
	over := 0.0
	for _, w := range workloads {
		over = math.Max(over, traced.Workloads[w.name].value("bench.trace_overhead_frac"))
	}
	check(over <= 0.10, "traced public-API rounds are %.0f%% slower than untraced ones, want <= 10%%", 100*over)
	return problems
}

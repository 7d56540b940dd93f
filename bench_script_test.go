package inlinered

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// scripts/bench.sh is driven here against stub checkouts whose
// benchmark/run.sh prints canned result lines, so the verdict rule (the
// regression guard) and the point rules are tested without timing anything.

// stubCheckout builds a directory that looks like a checkout to bench.sh:
// the script itself, BENCHMARK.json and the given benchmark/run.sh.
func stubCheckout(t *testing.T, runSh string) string {
	t.Helper()
	dir := t.TempDir()
	for _, d := range []string{"scripts", "benchmark"} {
		if err := os.Mkdir(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"scripts/bench.sh", "BENCHMARK.json"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "benchmark/run.sh"), []byte(runSh), 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

func runIn(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// pairsStub prints, on its k-th run, a result line whose throughput_mbps is
// the k-th line of the file "values" beside it and whose failed count is the
// file "failed"; every other end-to-end metric is constant.
const pairsStub = `#!/usr/bin/env bash
here=$(dirname "$0"); k=$(($(cat "$here/k" 2>/dev/null || echo 0) + 1)); echo $k >"$here/k"
echo "noise before the result line"
echo '{"correct":true,"attempted":1000,"failed":'$(cat "$here/failed")',"metrics":{"live_heap_mb":{"value":28.5,"unit":"MB"},"round_ms_p50":{"value":30.25,"unit":"ms"},"setup_s":{"value":0.15,"unit":"s"},"stored_per_user_byte":{"value":0.2465,"unit":"B/B"},"throughput_mbps":{"value":'$(sed -n "${k}p" "$here/values")',"unit":"MB/s"},"written_per_user_byte":{"value":1.5e-05,"unit":"B/B"}}}'
`

func TestBenchScriptPairsVerdicts(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("no bash")
	}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 70, 130, 100, 65, 135, 75, 125, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		failed         int // of the change's 1000 ops per run
		verdict        string
		fails          bool
	}{
		{"same", tight, tight, 0, "no regression", false},
		{"faster", tight, shift(tight, 1.2), 0, "gain", false},
		{"faster in six pairs of ten", tight, []float64{120, 121, 119, 120, 122, 98, 100, 101, 99, 100}, 0, "no regression", false},
		{"slower beyond the bound", tight, shift(tight, 0.6), 0, "REGRESSION", true},
		{"slower within the bound", tight, shift(tight, 0.9), 0, "no regression", false},
		{"parent spread wider than the bound", noisy, shift(noisy, 0.9), 0, "unresolved", false},
		{"slower beyond the bound, inside the parent's spread", noisy, shift(noisy, 0.7), 0, "unresolved", false},
		{"more failed operations", tight, tight, 3, "no regression", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			change, parent := stubCheckout(t, pairsStub), stubCheckout(t, pairsStub)
			for dir, vals := range map[string][]float64{parent: tc.parent, change: tc.change} {
				var b strings.Builder
				for _, v := range vals {
					fmt.Fprintln(&b, v)
				}
				failed := "0"
				if dir == change {
					failed = fmt.Sprint(tc.failed)
				}
				for name, content := range map[string]string{"values": b.String(), "failed": failed} {
					if err := os.WriteFile(filepath.Join(dir, "benchmark", name), []byte(content), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			out, err := runIn(change, "bash", "scripts/bench.sh", "pairs", parent, "ingest-fixed", "-seconds", "1")
			if (err != nil) != tc.fails {
				t.Fatalf("exit: %v, want failure %v\n%s", err, tc.fails, out)
			}
			if !strings.Contains(out, "== ingest-fixed: 10 pairs") {
				t.Fatalf("no header for ten pairs:\n%s", out)
			}
			for _, name := range []string{"setup_s", "throughput_mbps", "round_ms_p50", "stored_per_user_byte", "written_per_user_byte", "live_heap_mb"} {
				want := "no regression" // the five constant metrics
				if name == "throughput_mbps" {
					want = tc.verdict
				}
				_, row, found := strings.Cut(out, "\n"+name+" ")
				row, _, _ = strings.Cut(row, "\n")
				if !found || !strings.HasSuffix(row, "  "+want) {
					t.Errorf("%s: want verdict %q, row %q", name, want, row)
				}
			}
		})
	}
}

// pointStub writes what the suite writes: a result file, named by -trace,
// into the -out directory, its envelope keyed to HEAD.
const pointStub = `#!/usr/bin/env bash
while [[ $# -gt 0 ]]; do case "$1" in -out) out=$2 ;; -trace) trace=$2 ;; -seed) seed=$2 ;; esac; shift; done
name=result-seed${seed}.json; [[ $trace == 1 ]] && name=result-traced-seed${seed}.json
printf '{\n  "envelope": {\n    "commit": "%s",\n    "traced": %s\n  }\n}\n' "$(git rev-parse --short HEAD)" "$trace" >"$out/$name"
`

func TestBenchScriptPoint(t *testing.T) {
	for _, tool := range []string{"bash", "git", "sha1sum"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skip("no " + tool)
		}
	}
	dir := stubCheckout(t, pointStub)
	git := func(args ...string) string {
		t.Helper()
		out, err := runIn(dir, "git", append([]string{"-c", "user.name=t", "-c", "user.email=t@t", "-c", "core.hooksPath=/dev/null"}, args...)...)
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(out)
	}
	git("init", "-q")
	git("add", "-A")
	git("commit", "-q", "-m", "stub")
	head := git("rev-parse", "--short", "HEAD")
	read := func(name string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// A clean tree: the files are the suite's, byte for byte.
	if out, err := runIn(dir, "bash", "scripts/bench.sh", "point", "1", "-seed", "5"); err != nil {
		t.Fatalf("point 1: %v\n%s", err, out)
	}
	for name, traced := range map[string]string{"BENCH_1.json": "0", "BENCH_1.traced.json": "1"} {
		want := fmt.Sprintf("{\n  \"envelope\": {\n    \"commit\": %q,\n    \"traced\": %s\n  }\n}\n", head, traced)
		if got := read(name); got != want {
			t.Fatalf("%s:\n%s\nwant:\n%s", name, got, want)
		}
	}

	// A dirty tree: only the commit string differs, and it is not HEAD's.
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := runIn(dir, "bash", "scripts/bench.sh", "point", "2", "-seed", "5"); err != nil {
		t.Fatalf("point 2: %v\n%s", err, out)
	}
	got := read("BENCH_2.json")
	_, rest, _ := strings.Cut(got, `"commit": "`)
	commit, _, _ := strings.Cut(rest, `"`)
	if len(commit) != len(head)+8 || !strings.HasPrefix(commit, head+"+") {
		t.Fatalf("dirty commit %q, want %s+<7 hex>", commit, head)
	}
	if strings.Replace(got, commit, head, 1) != read("BENCH_1.json") {
		t.Fatalf("more than the commit was rewritten:\n%s", got)
	}

	// A point is never overwritten, whichever of its two files exists.
	if err := os.Remove(filepath.Join(dir, "BENCH_2.json")); err != nil {
		t.Fatal(err)
	}
	out, err := runIn(dir, "bash", "scripts/bench.sh", "point", "2", "-seed", "5")
	if err == nil || !strings.Contains(out, "never overwritten") {
		t.Fatalf("second point 2: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_2.json")); err == nil {
		t.Fatal("the refused point wrote a file")
	}
}

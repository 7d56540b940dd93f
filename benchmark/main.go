// Command benchmark is the repository's benchmark: six workloads driven
// through the public API with tracing off for the end-to-end metrics, and a
// separate traced run that replays the same inputs through each layer's
// exported functions for the per-layer budget. See README.md.
//
//	bash benchmark/run.sh                                    # the untraced suite
//	bash benchmark/run.sh -trace 1                           # the traced suite
//	bash benchmark/run.sh -selfcheck                         # two sets, compared
//	bash benchmark/run.sh -workload serve-mixed -seed 3 -seconds 10 -trace 0
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// defaultSeconds is the time box of one workload's timed region; it equals
// run_seconds in BENCHMARK.json.
const defaultSeconds = 18

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed      = flag.Int64("seed", 11, "workload seed: the only workload parameter")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of one workload's timed region")
		trace     = flag.Int("trace", 0, "1: traced run, per-layer metrics and benchmark/out/trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite -sets times and one traced suite; fail on spread beyond the bounds or a broken bypass prediction")
		sets      = flag.Int("sets", 2, "suite runs -selfcheck compares")
		compare   = flag.Bool("compare", false, "compare two result files (arguments: old.json new.json)")
		outDir    = flag.String("out", defaultOutDir(), "directory for traces and result files")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, scale: 1, workers: workerCount(), outDir: *outDir}

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *name != "":
		err = runOne(*name, cfg, *trace == 1)
	case *selfcheck:
		err = runSelfcheck(cfg, *sets)
	default:
		_, err = runSuite(cfg, *trace == 1, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultOutDir is benchmark/out from the root of the repository and out
// from inside benchmark/.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// runOne runs one workload in this process and prints its metrics, ending
// with the contract's one-line JSON result.
func runOne(name string, cfg config, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	var res *result
	var err error
	names := endToEnd
	if traced {
		names = perLayer()
		res, err = runTraced(w, cfg)
	} else {
		res, err = runEndToEnd(w, cfg)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s seed=%d workers=%d traced=%v: %d ops attempted, %d failed, %d rounds\n%s",
		w.name, cfg.seed, cfg.workers, traced, res.Attempted, res.Failed, res.Rounds, res.table())
	fmt.Println(allPrefix + res.line(nil))
	fmt.Println(res.line(names))
	if !res.Correct {
		return errors.New("outputs incorrect or operations failed")
	}
	return nil
}

// allPrefix starts the line, just above the contract's, on which a run
// prints every metric it measured; the suite reads its children's.
const allPrefix = "all: "

// runChild runs one workload in a child process (so no workload inherits
// another's heap, pools or GC state) and returns everything it measured.
func runChild(name string, cfg config, traced bool, echo bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", t, "-out", cfg.outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var all string
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, allPrefix):
			all = strings.TrimPrefix(line, allPrefix)
		case echo && !strings.HasPrefix(line, "{"):
			fmt.Println(line)
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", name, runErr)
	}
	return parseResult(all)
}

// Command reducerun runs the inline data reduction pipeline over a workload
// (a file, or a generated stream) on the simulated paper platform and
// prints the run report.
//
// Usage:
//
//	reducerun [-mode cpu-only|gpu-dedup|gpu-compress|gpu-both|auto]
//	          [-in FILE | -mb N -dedup R -comp R] [-chunk N]
//	          [-no-dedup] [-no-compress] [-destage] [-seed N]
//	          [-faults SEED:RATE] [-json] [-trace-out FILE]
//	          [-metrics-out FILE]
//	          [-cpuprofile FILE] [-memprofile FILE]
//	reducerun -shards N | -nodes N [-replicas R] [-node-faults SEED:RATE]
//	          [-ops-in FILE | -serve-ops N -writes F -trims F -hotspot F
//	          -dedup R] [-ops-out FILE] [-blocks N] [-clean-every N]
//	          [-clients C] [-par P] [-no-compress] [-seed N]
//	          [-faults SEED:RATE] [-json] [-trace-out FILE]
//	reducerun -boot-storm [-shards N | -nodes N [-replicas R]
//	          [-node-faults SEED:RATE]] [-storm-clients C]
//	          [-storm-passes N] [-sub-blocks K] [-blocks N] [-par P]
//	          [-clients C] [-no-compress] [-seed N] [-faults SEED:RATE]
//	          [-json] [-trace-out FILE]
//
// With -mode auto, the dummy-I/O calibration pass of §4(3) picks the
// fastest integration option for the platform first.
//
// -json prints the report as stable JSON on stdout (everything else moves
// to stderr); -trace-out writes a Chrome trace-event file of the run's
// virtual-time spans, viewable in Perfetto or chrome://tracing. The trace
// and report are bit-identical for any -par value at a fixed seed.
// -cpuprofile/-memprofile capture host pprof profiles of the run itself.
//
// -metrics-out enables the wall-clock metrics layer and writes a
// Prometheus text-format snapshot of it (pool utilization, per-stage wall
// time, Go runtime telemetry) to FILE — once at startup, which checks the
// path is writable, and once at exit. Metrics are a
// strict side channel: every report and trace is bit-identical with them
// on or off.
//
// -shards switches from the stream pipeline to the sharded serving
// front-end: a block-op list is served across N independent volume shards
// by -clients concurrent workers. The list is an op file (-ops-in; the
// text format of internal/workload: "W lba id", "R lba", "T lba") or the
// deterministic closed-loop generator's: a fill of -blocks, then
// -serve-ops ops in the -writes/-trims/-hotspot/-dedup mix; -ops-out saves
// the list served. -shards 1 is the one-volume replay, the only shape
// -trace-out can record (a recorder serves one volume's lanes). Client
// count, -par and GOMAXPROCS affect only the wall clock — the report is
// bit-identical at a fixed seed and shard count.
//
// -nodes switches further to the replicated cluster tier: the op list
// (read-mostly unless -writes/-trims say otherwise) is served across N
// nodes (each an array of -shards shards) with -replicas-way placement.
// -node-faults arms node crashes and replica divergence, ridden out by
// fallback reads, rejoin replay, and read-repair; the run ends with a
// full-range scrub. The report stays bit-identical for any -clients and
// GOMAXPROCS at fixed seeds.
//
// -boot-storm runs the VDI boot-storm scenario through the parallel batch
// read path instead of a closed-loop mix: -storm-clients desktops install
// one golden image (heavy dedup), then all of them re-read it at once.
// Unique chunks compress as -sub-blocks independent sub-blocks (the
// indexed container the GPU kernel's format writes); the batch decode
// spreads the missed blobs, each decoded whole, one per task, across -par
// workers, and -clients drains shard (or node) queues. Both knobs are wall
// clock only — the batch report is bit-identical for any -par, -clients,
// and GOMAXPROCS. The device flags mean what they mean for -shards and
// -nodes; -storm-clients, -storm-passes and -sub-blocks need -boot-storm.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"inlinered"
	"inlinered/internal/metrics"
	"inlinered/internal/workload"
)

func main() {
	mode := flag.String("mode", "auto", "integration mode: cpu-only, gpu-dedup, gpu-compress, gpu-both, auto")
	in := flag.String("in", "", "input file (default: generated stream)")
	mb := flag.Int64("mb", 256, "generated stream size in MiB")
	dd := flag.Float64("dedup", 2.0, "generated stream (or op list) dedup ratio")
	cr := flag.Float64("comp", 2.0, "generated stream compression ratio")
	chunkSize := flag.Int("chunk", 4096, "chunk size in bytes")
	noDedup := flag.Bool("no-dedup", false, "disable deduplication")
	noCompress := flag.Bool("no-compress", false, "disable compression")
	destage := flag.Bool("destage", false, "include SSD destage completion in the makespan")
	seed := flag.Int64("seed", 1, "workload seed")
	noGPU := flag.Bool("no-gpu", false, "run on a platform without a GPU")
	bypass := flag.Bool("entropy-bypass", false, "store high-entropy chunks raw without compressing")
	cdc := flag.Bool("cdc", false, "content-defined (Gear) chunking instead of fixed-size")
	par := flag.Int("par", 0, "host worker threads for the real computation (stream: 0 = all cores, 1 = serial; block modes: 0 or 1 = clients only; results are identical)")
	faults := flag.String("faults", "", "deterministic fault injection as SEED:RATE (e.g. 7:0.01); empty disables")
	shards := flag.Int("shards", 0, "serve a block-op list across N volume shards instead of running the stream pipeline (1 = one-volume replay)")
	nodes := flag.Int("nodes", 0, "serve across a replicated cluster of N nodes (each an array of -shards shards)")
	replicas := flag.Int("replicas", 1, "cluster replication factor with -nodes (<= nodes)")
	nodeFaults := flag.String("node-faults", "", "node-level fault injection with -nodes as SEED:RATE (crashes + replica divergence); empty disables")
	clients := flag.Int("clients", 0, "concurrent serving workers with -shards (0 = one per shard; report is identical for any value)")
	bootStorm := flag.Bool("boot-storm", false, "run the VDI boot-storm batch-read scenario instead of a closed-loop mix")
	stormClients := flag.Int("storm-clients", 0, "booting desktops with -boot-storm (0 = the default 32)")
	stormPasses := flag.Int("storm-passes", 1, "storm repetitions with -boot-storm; the report covers the last pass, so passes >= 2 shows the warm-cache hit rate")
	subBlocks := flag.Int("sub-blocks", 4, "independent sub-blocks per unique chunk with -boot-storm (the GPU kernel's indexed container; reads decode each blob whole)")
	serveOps := flag.Int("serve-ops", 20000, "generated operations (after the fill pass) with -shards/-nodes")
	blocks := flag.Int64("blocks", 16384, "LBA space in blocks with -shards/-nodes")
	writeFrac := flag.Float64("writes", 0.6, "generated write fraction (0.09 when not given with -nodes)")
	trimFrac := flag.Float64("trims", 0.05, "generated trim fraction (0.01 when not given with -nodes)")
	hotspot := flag.Float64("hotspot", 0.5, "generated fraction of ops on the hot 10% of blocks")
	cleanEvery := flag.Int("clean-every", 4096, "run a shard's segment cleaner every N of its ops with -shards/-nodes (0 = never)")
	opsIn := flag.String("ops-in", "", "serve this op file with -shards/-nodes instead of a generated list")
	opsOut := flag.String("ops-out", "", "also write the op list served to this file")
	jsonOut := flag.Bool("json", false, "print the report as JSON on stdout (status goes to stderr)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file of the run's virtual-time spans (block modes: -shards 1 only)")
	metricsOut := flag.String("metrics-out", "", "write wall-clock metrics (Prometheus text format) to this file; a pure side channel — reports are bit-identical with it on or off")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU pprof profile to this file")
	memProfile := flag.String("memprofile", "", "write a host heap pprof profile to this file")
	flag.Parse()
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })

	// Human-readable chatter goes to stdout normally, but must not corrupt
	// the machine-readable stream under -json.
	info := os.Stdout
	if *jsonOut {
		info = os.Stderr
	}

	if *metricsOut != "" {
		stop, err := metrics.StartSnapshotter(*metricsOut)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(info, "wrote wall-clock metrics to %s\n", *metricsOut)
		}()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProfile)

	f := blockFlags{
		shards: *shards, nodes: *nodes, replicas: *replicas, par: *par, noCompress: *noCompress,
		faults: *faults, nodeFaults: *nodeFaults, traceOut: *traceOut, opsIn: *opsIn, opsOut: *opsOut,
		serveOps: *serveOps, blocks: *blocks, seed: *seed, clients: *clients, cleanEvery: *cleanEvery,
		writes: *writeFrac, trims: *trimFrac, dedup: *dd, hotspot: *hotspot, given: given,
		bootStorm: *bootStorm, stormClients: *stormClients, stormPasses: *stormPasses, subBlocks: *subBlocks,
	}
	blockOpts, spec, err := f.plan() // also rejects flags the mode would ignore
	if err != nil {
		fatal(err)
	}
	if *bootStorm {
		runBootStorm(f, blockOpts, *jsonOut, info)
		return
	}
	if *nodes > 0 || *shards > 0 {
		runBlock(f, blockOpts, spec, *jsonOut, info)
		return
	}

	faultSeed, faultRate, err := parseSeedRate("-faults", *faults)
	if err != nil {
		fatal(err)
	}

	plat := inlinered.PaperPlatform()
	if *noGPU {
		plat = inlinered.CPUOnlyPlatform()
	}
	opts := inlinered.Options{
		DisableDedup:       *noDedup,
		DisableCompression: *noCompress,
		ChunkSize:          *chunkSize,
		IncludeDestage:     *destage,
		EntropyBypass:      *bypass,
		ContentDefined:     *cdc,
		Parallelism:        *par,
		FaultSeed:          faultSeed,
		FaultRate:          faultRate,
	}
	if faultRate > 0 {
		fmt.Fprintf(info, "fault injection: seed %d, rate %g per opportunity\n\n", faultSeed, faultRate)
	}

	if *mode == "auto" {
		res, err := inlinered.Calibrate(plat, opts, 0)
		if err != nil {
			fatal(err)
		}
		opts.Mode = res.Best
		fmt.Fprintf(info, "calibration picked %s:\n", res.Best)
		for _, m := range inlinered.Modes {
			if r, ok := res.Reports[m]; ok {
				fmt.Fprintf(info, "  %-12s %10.0f IOPS\n", m, r.IOPS)
			}
		}
		fmt.Fprintln(info)
	} else {
		m, err := inlinered.ParseMode(*mode)
		if err != nil {
			fatal(err)
		}
		opts.Mode = m
	}

	if *traceOut != "" {
		opts.Recorder = inlinered.NewRecorder()
	}

	var src io.Reader
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	} else {
		stream, err := inlinered.NewStream(inlinered.StreamSpec{
			TotalBytes:       *mb << 20,
			ChunkSize:        *chunkSize,
			DedupRatio:       *dd,
			CompressionRatio: *cr,
			Seed:             *seed,
		})
		if err != nil {
			fatal(err)
		}
		src = stream
		fmt.Fprintf(info, "generated stream: %d MiB, dedup %.1f, compression %.1f, seed %d\n\n", *mb, *dd, *cr, *seed)
	}

	rep, err := inlinered.Run(plat, opts, src)
	if err != nil {
		fatal(err)
	}
	writeTrace(*traceOut, opts.Recorder, info)
	printReport(rep, "", *jsonOut)
}

// report is what every mode prints: stable JSON under -json, a summary
// otherwise.
type report interface {
	JSON() ([]byte, error)
	String() string
}

// printReport writes the report (and a mode's trailing summary lines) to
// stdout.
func printReport(rep report, tail string, jsonOut bool) {
	if !jsonOut {
		fmt.Println(rep.String() + tail)
		return
	}
	out, err := rep.JSON()
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(out)
}

// writeTrace writes the recorder's Chrome trace-event file, if one was asked
// for.
func writeTrace(path string, rec *inlinered.Recorder, info *os.File) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "wrote %d trace events to %s\n", rec.Events(), path)
}

// writeMemProfile writes a host heap profile, if one was asked for.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// blockFlags is the command line as the block modes (-shards, -nodes,
// -boot-storm) read it; given holds the names of the flags that were set
// explicitly.
type blockFlags struct {
	shards, nodes, replicas, par, serveOps, clients, cleanEvery int
	stormClients, stormPasses, subBlocks                        int
	blocks, seed                                                int64
	writes, trims, dedup, hotspot                               float64
	noCompress, bootStorm                                       bool
	faults, nodeFaults, traceOut, opsIn, opsOut                 string
	given                                                       map[string]bool
}

// plan turns the flags into the device to build and the generator spec of
// the op list to serve (unused when -ops-in supplies the list, or under
// -boot-storm), and rejects a flag the chosen mode would ignore. A mix flag
// that was not given keeps the mode's preset: the flag defaults under
// -shards, the read-mostly mix under -nodes.
func (f blockFlags) plan() (opts inlinered.BlockDeviceOptions, spec inlinered.OpsSpec, err error) {
	opList := !f.bootStorm && (f.shards > 0 || f.nodes > 0)
	for _, name := range []string{"ops-in", "ops-out", "writes", "trims", "hotspot", "clean-every"} {
		if f.given[name] && !opList {
			return opts, spec, fmt.Errorf("-%s needs -shards or -nodes, without -boot-storm", name)
		}
	}
	for _, name := range []string{"storm-clients", "storm-passes", "sub-blocks"} {
		if f.given[name] && !f.bootStorm {
			return opts, spec, fmt.Errorf("-%s needs -boot-storm", name)
		}
	}
	opts = inlinered.BlockDeviceOptions{
		Blocks: f.blocks, Shards: f.shards, Nodes: f.nodes, Replicas: f.replicas,
		Parallelism: f.par, DisableCompression: f.noCompress,
	}
	if f.bootStorm {
		opts.SubBlocks = f.subBlocks
	}
	if opts.FaultSeed, opts.FaultRate, err = parseSeedRate("-faults", f.faults); err != nil {
		return opts, spec, err
	}
	if opts.NodeFaultSeed, opts.NodeFaultRate, err = parseSeedRate("-node-faults", f.nodeFaults); err != nil {
		return opts, spec, err
	}
	if f.traceOut != "" {
		if f.nodes > 0 || f.shards > 1 {
			return opts, spec, fmt.Errorf("-trace-out requires -shards 1 and no -nodes (a recorder serves one volume's lanes)")
		}
		opts.Recorder = inlinered.NewRecorder()
	}
	spec = inlinered.OpsSpec{Ops: f.serveOps, Blocks: f.blocks, WriteFrac: f.writes, TrimFrac: f.trims,
		DedupRatio: f.dedup, Hotspot: f.hotspot, Seed: f.seed}
	if f.nodes > 0 { // read-mostly differs from the flag defaults in these two only
		pre := inlinered.ReadMostlyOps(f.serveOps, f.blocks, f.seed)
		if !f.given["writes"] {
			spec.WriteFrac = pre.WriteFrac
		}
		if !f.given["trims"] {
			spec.TrimFrac = pre.TrimFrac
		}
	}
	if f.opsIn != "" {
		for _, name := range []string{"serve-ops", "writes", "trims", "hotspot", "dedup"} {
			if f.given[name] {
				return opts, spec, fmt.Errorf("-ops-in serves the file as it is: it cannot be combined with the generator flag -%s", name)
			}
		}
	}
	return opts, spec, nil
}

// runBootStorm installs the golden image, then replays the interleaved
// per-client read storm through the parallel batch read path — on a
// sharded array by default, or across a replicated cluster with -nodes.
// With passes >= 2 the same storm repeats and the report covers the last
// pass: the warm-cache picture, where the admission policy's retained hot
// set shows up as the report's cache hit rate.
func runBootStorm(f blockFlags, opts inlinered.BlockDeviceOptions, jsonOut bool, info *os.File) {
	spec := inlinered.DefaultBootStormSpec()
	if f.stormClients > 0 {
		spec.Clients = f.stormClients
	}
	spec.Seed = f.seed
	fill, err := spec.Fill()
	if err != nil {
		fatal(err)
	}
	lbas, err := spec.Storm()
	if err != nil {
		fatal(err)
	}
	passes := max(f.stormPasses, 1)
	fmt.Fprintf(info, "boot storm: %d clients x %d reads over a %d-block golden image (sub-blocks %d, decode workers %d, passes %d)\n\n",
		spec.Clients, spec.ReadsPerClient, spec.ImageBlocks, f.subBlocks, f.par, passes)

	var rep report
	if f.nodes > 0 {
		cl, err := inlinered.NewCluster(opts)
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Serve(fill, inlinered.ClusterServeOptions{ContentSeed: f.seed}); err != nil {
			fatal(err)
		}
		for p := 0; p < passes; p++ {
			if rep, err = cl.ReadBatch(lbas, inlinered.ClusterReadBatchOptions{Clients: f.clients}); err != nil {
				fatal(err)
			}
		}
	} else {
		arr, err := inlinered.NewArray(opts)
		if err != nil {
			fatal(err)
		}
		defer arr.Close()
		if _, err := arr.Serve(fill, inlinered.ServeOptions{ContentSeed: f.seed}); err != nil {
			fatal(err)
		}
		for p := 0; p < passes; p++ {
			if rep, err = arr.ReadBatch(lbas, inlinered.ReadBatchOptions{Clients: f.clients}); err != nil {
				fatal(err)
			}
		}
	}
	writeTrace(f.traceOut, opts.Recorder, info)
	printReport(rep, "", jsonOut)
}

// runBlock serves a block-op list — an op file's, or the closed-loop
// generator's — on a sharded array, or with -nodes across a replicated
// cluster that rides out injected node faults and finishes with a scrub.
func runBlock(f blockFlags, opts inlinered.BlockDeviceOptions, spec inlinered.OpsSpec, jsonOut bool, info *os.File) {
	var list []inlinered.Op
	var what string
	if f.opsIn != "" {
		file, err := os.Open(f.opsIn)
		if err != nil {
			fatal(err)
		}
		defer file.Close()
		if list, err = workload.ParseOps(file); err != nil {
			fatal(err)
		}
		what = fmt.Sprintf("%d ops from %s", len(list), f.opsIn)
	} else {
		var err error
		if list, err = inlinered.NewOps(spec); err != nil {
			fatal(err)
		}
		mix := ""
		if spec == inlinered.ReadMostlyOps(spec.Ops, spec.Blocks, spec.Seed) {
			mix = "read-mostly "
		}
		what = fmt.Sprintf("%d %sops (plus %d-block fill)", spec.Ops, mix, spec.Blocks)
	}
	if f.opsOut != "" {
		file, err := os.Create(f.opsOut)
		if err != nil {
			fatal(err)
		}
		if err := workload.FormatOps(file, list); err != nil {
			fatal(err)
		}
		if err := file.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(info, "wrote %d ops to %s\n", len(list), f.opsOut)
	}

	var rep report
	var tail string
	if f.nodes > 0 {
		cl, err := inlinered.NewCluster(opts)
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		fmt.Fprintf(info, "serving %s across %d nodes (R=%d)\n\n", what, f.nodes, f.replicas)
		if rep, err = cl.Serve(list, inlinered.ClusterServeOptions{
			Clients: f.clients, ContentSeed: f.seed, CleanEvery: f.cleanEvery,
		}); err != nil {
			fatal(err)
		}
		scrub, err := cl.Scrub()
		if err != nil {
			fatal(err)
		}
		tail = fmt.Sprintf("\n  scrub: compared=%d mismatched=%d repaired=%d errors=%d",
			scrub.Compared, scrub.Mismatched, scrub.Repaired, scrub.Errors)
	} else {
		arr, err := inlinered.NewArray(opts)
		if err != nil {
			fatal(err)
		}
		defer arr.Close()
		fmt.Fprintf(info, "serving %s across %d shards\n\n", what, f.shards)
		if rep, err = arr.Serve(list, inlinered.ServeOptions{
			Clients: f.clients, ContentSeed: f.seed, CleanEvery: f.cleanEvery,
		}); err != nil {
			fatal(err)
		}
	}
	writeTrace(f.traceOut, opts.Recorder, info)
	printReport(rep, tail, jsonOut)
}

// parseSeedRate parses a SEED:RATE fault knob and rejects a RATE outside
// [0,1] under the flag's name, before any work starts.
func parseSeedRate(flagName, s string) (seed int64, rate float64, err error) {
	if s == "" {
		return 0, 0, nil
	}
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return 0, 0, fmt.Errorf("%s wants SEED:RATE, got %q", flagName, s)
	}
	seed, err = strconv.ParseInt(s[:colon], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("%s seed: %w", flagName, err)
	}
	rate, err = strconv.ParseFloat(s[colon+1:], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("%s rate: %w", flagName, err)
	}
	if !(rate >= 0 && rate <= 1) {
		return 0, 0, fmt.Errorf("%s rate must be in [0,1], got %g", flagName, rate)
	}
	return seed, rate, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reducerun:", err)
	os.Exit(1)
}

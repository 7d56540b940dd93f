package experiments

import (
	"strings"
	"testing"
)

// testConfig keeps experiment tests fast; shape assertions here use the
// loose bounds that hold at small scale, while EXPERIMENTS.md records the
// paper-scale numbers.
func testConfig() Config {
	return Config{
		StreamBytes:  96 << 20,
		IndexEntries: 1 << 20,
		Seed:         42,
	}
}

func TestAllRunnersListed(t *testing.T) {
	rs := All()
	if len(rs) < 16 {
		t.Fatalf("expected at least 16 experiments, got %d", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
		if _, ok := Lookup(r.ID); !ok {
			t.Fatalf("Lookup(%s) failed", r.ID)
		}
	}
	if _, ok := Lookup("e99"); ok {
		t.Fatal("Lookup should reject unknown ids")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "test", PaperClaim: "claim",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"note"},
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"EX", "claim", "333", "note"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendered table:\n%s", want, out)
		}
	}
}

func TestE1ShapeCPUFasterWithLaunchFloor(t *testing.T) {
	cfg := testConfig()
	cfg.IndexEntries = 1 << 20
	res, err := E1PrelimIndexing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// CPU must beat the GPU at every batch size.
	if res.Metrics["min_ratio"] <= 1.0 {
		t.Fatalf("GPU should never win indexing: min ratio %g", res.Metrics["min_ratio"])
	}
	// At paper scale the compute-bound ratio sits in/near the 4.16–5.45
	// band.
	r := res.Metrics["ratio_batch_4096"]
	if r < 3.5 || r > 7 {
		t.Fatalf("large-batch ratio %g outside plausible band", r)
	}
	// The launch-overhead floor: small batches are *relatively* far worse.
	if res.Metrics["ratio_batch_256"] <= res.Metrics["ratio_batch_4096"] {
		t.Fatal("small batches should suffer the launch floor hardest")
	}
}

func TestE2ShapeDedupBeatsSSD(t *testing.T) {
	res, err := E2Dedup(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Both schemes must beat the SSD line by a wide margin (~3x claim).
	if res.Metrics["cpu_x_ssd"] < 2.0 {
		t.Fatalf("CPU dedup only %.2fx SSD", res.Metrics["cpu_x_ssd"])
	}
	if res.Metrics["gpu_x_ssd"] < 2.0 {
		t.Fatalf("GPU dedup only %.2fx SSD", res.Metrics["gpu_x_ssd"])
	}
}

func TestE3ShapeCompression(t *testing.T) {
	res, err := E3Compression(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's low-ratio ordering: CPU < SSD < GPU.
	cpu, gpu, ssd := res.Metrics["cpu_iops_r1.0"], res.Metrics["gpu_iops_r1.0"], res.Metrics["ssd_iops"]
	if !(cpu < ssd && ssd < gpu) {
		t.Fatalf("low-ratio ordering broken: cpu=%.0f ssd=%.0f gpu=%.0f", cpu, ssd, gpu)
	}
	// GPU gain near the published +88.3% (generous band).
	if g := res.Metrics["gain_pct_r1.0"]; g < 60 || g > 130 {
		t.Fatalf("low-ratio GPU gain %.1f%% far from +88.3%%", g)
	}
	// Throughput rises with the compression ratio for both schemes.
	if res.Metrics["cpu_iops_r4.0"] <= res.Metrics["cpu_iops_r1.0"] {
		t.Fatal("CPU throughput should rise with compressibility")
	}
	if res.Metrics["gpu_iops_r4.0"] <= res.Metrics["gpu_iops_r1.0"] {
		t.Fatal("GPU throughput should rise with compressibility")
	}
}

func TestE4ShapeIntegration(t *testing.T) {
	res, err := E4Integration(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	iops := func(m string) float64 { return res.Metrics["iops_"+m] }
	// GPU-for-compression must beat CPU-only by a wide margin, and the two
	// compression-offload options must beat the two CPU-compression ones.
	if iops("gpu-compress") <= iops("cpu-only")*1.3 {
		t.Fatalf("gpu-compress should clearly win: %.0f vs %.0f", iops("gpu-compress"), iops("cpu-only"))
	}
	if iops("gpu-both") <= iops("cpu-only") {
		t.Fatal("gpu-both should beat cpu-only")
	}
	// The winner is one of the compression-offload modes (the paper's
	// Figure 2 winner is gpu-compress).
	best := "cpu-only"
	for _, m := range []string{"gpu-dedup", "gpu-compress", "gpu-both"} {
		if iops(m) > iops(best) {
			best = m
		}
	}
	if best != "gpu-compress" && best != "gpu-both" {
		t.Fatalf("winner %s is not a compression-offload mode", best)
	}
}

func TestE5ShapeCalibration(t *testing.T) {
	res, err := E5Calibration(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Paper platform: a GPU-compression option wins; weak/no GPU: cpu-only.
	if best := int(res.Metrics["best_platform_0"]); best != 2 && best != 3 {
		t.Fatalf("paper platform picked mode %d, want a compression-offload mode", best)
	}
	if best := int(res.Metrics["best_platform_1"]); best != 0 {
		t.Fatalf("weak-GPU platform picked mode %d, want cpu-only", best)
	}
	if best := int(res.Metrics["best_platform_2"]); best != 0 {
		t.Fatalf("GPU-less platform picked mode %d, want cpu-only", best)
	}
}

func TestE6ShapeIndexMemory(t *testing.T) {
	res, err := E6IndexMemory(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["index_gib_prefix_0"]; got != 16.0 {
		t.Fatalf("full index %g GiB, want 16", got)
	}
	if got := res.Metrics["index_gib_prefix_0"] - res.Metrics["index_gib_prefix_2"]; got != 1.0 {
		t.Fatalf("2-byte prefix saving %g GiB, want 1", got)
	}
	if got := res.Metrics["measured_entry_bytes_prefix_2"]; got != 30 {
		t.Fatalf("live index entry bytes %g, want 30", got)
	}
}

func TestE7ShapeEndurance(t *testing.T) {
	res, err := E7Endurance(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["host_ratio"] <= 1.5 {
		t.Fatalf("background should write much more than inline: %.2fx", res.Metrics["host_ratio"])
	}
	if res.Metrics["nand_ratio"] <= 1.5 {
		t.Fatalf("background NAND ratio %.2fx", res.Metrics["nand_ratio"])
	}
}

func TestE8ShapeScaling(t *testing.T) {
	res, err := E8BinScaling(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Bins scale near-linearly; the locked table does not scale at all.
	if s := res.Metrics["bins_mops_t8"] / res.Metrics["bins_mops_t1"]; s < 6 {
		t.Fatalf("bins speedup at 8 threads only %.2fx", s)
	}
	if s := res.Metrics["locked_mops_t8"] / res.Metrics["locked_mops_t1"]; s > 1.2 {
		t.Fatalf("locked table should not scale: %.2fx", s)
	}
	// At high thread counts the lock-free design wins decisively.
	if res.Metrics["bins_mops_t16"] <= res.Metrics["locked_mops_t16"] {
		t.Fatal("bins should beat the locked table at 16 threads")
	}
}

func TestE9ShapeBinBuffer(t *testing.T) {
	res, err := E9BinBuffer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Buffer-hit share must grow with capacity (temporal locality claim).
	if !(res.Metrics["bufshare_buf4"] > res.Metrics["bufshare_buf1"]) {
		t.Fatal("buffer-hit share should grow from capacity 1 to 4")
	}
	if res.Metrics["bufshare_buf64"] < 0.8 {
		t.Fatalf("a 64-entry buffer should catch most recency hits: %.2f", res.Metrics["bufshare_buf64"])
	}
}

func TestE10ShapeSubBlocks(t *testing.T) {
	res, err := E10SubBlockOverlap(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// More lanes per chunk raise throughput (up to saturation)...
	if res.Metrics["iops_s4_o512"] <= res.Metrics["iops_s1_o0"] {
		t.Fatal("4 lanes/chunk should beat 1 lane/chunk")
	}
	// ...but cost compression ratio, which overlap partially recovers.
	if res.Metrics["ratio_s4_o0"] > res.Metrics["ratio_s1_o0"] {
		t.Fatal("splitting lanes should not improve the ratio")
	}
	if res.Metrics["ratio_s4_o1024"] < res.Metrics["ratio_s4_o0"] {
		t.Fatal("overlap should recover compression ratio")
	}
}

func TestE11ShapeShiftedCDC(t *testing.T) {
	cfg := testConfig()
	res, err := E11ShiftedCDC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed chunking finds essentially nothing on shifted duplicates; CDC
	// recovers most of the 4x duplication.
	if res.Metrics["dedup_fixed-4K"] > 1.2 {
		t.Fatalf("fixed chunking should miss shifted dups: %.2f", res.Metrics["dedup_fixed-4K"])
	}
	if res.Metrics["dedup_gear-cdc"] < 2.5 {
		t.Fatalf("CDC should recover shifted dups: %.2f", res.Metrics["dedup_gear-cdc"])
	}
}

func TestE12ShapeVolume(t *testing.T) {
	res, err := E12VolumeLifecycle(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["fill_mean_us"] <= 0 || res.Metrics["read_mean_us"] <= 0 {
		t.Fatal("latencies must be positive")
	}
	if res.Metrics["segments_cleaned"] == 0 {
		t.Fatal("churn should produce cleanable segments")
	}
	if res.Metrics["garbage_after_clean_mib"] >= res.Metrics["garbage_after_churn_mib"] {
		t.Fatal("cleaning should reduce garbage")
	}
}

func TestE13ShapeCodecs(t *testing.T) {
	res, err := E13CodecAblation(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	// Where matches exist, the single probe outruns the deepest search...
	for _, r := range []string{"r2.0", "r4.0"} {
		if m["iops_d1_"+r] <= m["iops_d64_"+r] {
			t.Fatalf("%s: depth 1 should beat depth 64 on throughput: %.0f vs %.0f", r, m["iops_d1_"+r], m["iops_d64_"+r])
		}
	}
	// ...and a deeper search never finds a worse ratio.
	for _, r := range []string{"r1.0", "r2.0", "r4.0"} {
		for _, d := range [][2]string{{"d1", "d4"}, {"d4", "d16"}, {"d16", "d64"}} {
			if lo, hi := m["ratio_"+d[0]+"_"+r], m["ratio_"+d[1]+"_"+r]; hi < lo {
				t.Fatalf("%s: ratio falls from %s to %s: %.4f -> %.4f", r, d[0], d[1], lo, hi)
			}
		}
	}
}

func TestE14ShapeEntropyBypass(t *testing.T) {
	res, err := E14EntropyBypass(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// On the all-incompressible stream the bypass is a big win...
	if res.Metrics["iops_on_f1.0"] <= res.Metrics["iops_off_f1.0"]*1.5 {
		t.Fatalf("bypass should be much faster at 100%% incompressible: %.0f vs %.0f",
			res.Metrics["iops_on_f1.0"], res.Metrics["iops_off_f1.0"])
	}
	// ...on the fully compressible stream it must not hurt the ratio.
	if res.Metrics["ratio_on_f0.0"] < res.Metrics["ratio_off_f0.0"]*0.99 {
		t.Fatal("bypass should not degrade the compressible stream's ratio")
	}
	if res.Metrics["skipped_off_f1.0"] != 0 {
		t.Fatal("bypass off must skip nothing")
	}
	if res.Metrics["skipped_on_f0.5"] == 0 {
		t.Fatal("bypass should fire on the mixed stream")
	}
}

func TestE15ShapeGPUHashing(t *testing.T) {
	res, err := E15GPUHashing(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Small batches lose to the launch floor; large batches amortize it.
	if res.Metrics["ratio_batch_4096"] >= res.Metrics["ratio_batch_256"] {
		t.Fatal("bigger batches should amortize the GPU overheads")
	}
	// The PCIe story: hashing offload moves two orders of magnitude more
	// bytes per chunk than indexing offload.
	if res.Metrics["pcie_amplification"] < 100 {
		t.Fatalf("PCIe amplification %.0f, want > 100", res.Metrics["pcie_amplification"])
	}
}

func TestE16ShapeWriteAmplification(t *testing.T) {
	res, err := E16WriteAmplification(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Random overwrites amplify; sequential stay near 1.
	if res.Metrics["wa_random_op7"] <= 1.2 {
		t.Fatalf("random WA at 7%% OP should be well above 1: %.2f", res.Metrics["wa_random_op7"])
	}
	if res.Metrics["wa_seq_op7"] >= res.Metrics["wa_random_op7"] {
		t.Fatal("sequential WA should beat random at equal OP")
	}
	if res.Metrics["wa_seq_op15"] > 1.1 {
		t.Fatalf("sequential WA should stay near 1 at 15%% OP: %.2f", res.Metrics["wa_seq_op15"])
	}
	// More over-provisioning lowers random WA.
	if res.Metrics["wa_random_op28"] >= res.Metrics["wa_random_op7"] {
		t.Fatalf("WA should fall with OP: %.2f vs %.2f",
			res.Metrics["wa_random_op28"], res.Metrics["wa_random_op7"])
	}
}

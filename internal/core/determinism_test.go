package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"inlinered/internal/obs"
	"inlinered/internal/workload"
)

// TestParallelismDeterminism is the wall-clock parallelism contract: the
// host worker count changes only how fast the simulation runs, never what
// it computes. A serial run (Parallelism=1) and a fanned-out run
// (Parallelism=4) must produce bit-identical Reports, identical journal
// images, and both must verify against the source stream, across every
// integration mode and the extension paths (CDC chunking, entropy bypass).
func TestParallelismDeterminism(t *testing.T) {
	type variant struct {
		name string
		plat Platform
		dd   float64 // workload dedup ratio
		cr   float64 // workload compression ratio
		mut  func(*Config)
	}
	variants := []variant{
		{"cpu-only", PaperPlatform(), 2.0, 2.0, func(c *Config) { c.Mode = CPUOnly }},
		{"gpu-dedup", PaperPlatform(), 2.0, 2.0, func(c *Config) { c.Mode = GPUDedup }},
		{"gpu-compress", PaperPlatform(), 2.0, 2.0, func(c *Config) { c.Mode = GPUCompress }},
		{"gpu-both", PaperPlatform(), 2.0, 2.0, func(c *Config) { c.Mode = GPUBoth }},
		{"cdc", PaperPlatform(), 2.0, 2.0, func(c *Config) {
			c.Mode = CPUOnly
			c.Chunker = CDCChunking
		}},
		{"entropy-bypass", PaperPlatform(), 1.5, 1.0, func(c *Config) {
			c.Mode = CPUOnly
			c.SkipIncompressible = true
		}},
		{"entropy-bypass-gpu", PaperPlatform(), 1.5, 1.0, func(c *Config) {
			c.Mode = GPUCompress
			c.SkipIncompressible = true
		}},
		{"no-dedup", PaperPlatform(), 1.0, 2.0, func(c *Config) {
			c.Mode = CPUOnly
			c.Dedup = false
		}},
	}
	run := func(t *testing.T, v variant, par int) (*Engine, *Report) {
		t.Helper()
		cfg := testConfig(CPUOnly)
		v.mut(&cfg)
		cfg.Parallelism = par
		s := testStream(t, 6<<20, v.dd, v.cr, workload.RefUniform)
		eng, rep := runPipeline(t, v.plat, cfg, s)
		s.Reset()
		if err := eng.VerifyAgainst(s); err != nil {
			t.Fatalf("parallelism=%d: verify: %v", par, err)
		}
		return eng, rep
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			engSerial, repSerial := run(t, v, 1)
			engPar, repPar := run(t, v, 4)
			if !reflect.DeepEqual(repSerial, repPar) {
				t.Errorf("reports differ between serial and parallel runs:\nserial:   %+v\nparallel: %+v", repSerial, repPar)
			}
			if !bytes.Equal(engSerial.JournalImage(), engPar.JournalImage()) {
				t.Error("journal images differ between serial and parallel runs")
			}
		})
	}
}

// TestObservabilityDeterminism is the tracing contract: all recording runs
// on the sequential virtual-time commit path, so at a fixed seed the trace
// bytes and every histogram are bit-identical for any Parallelism, and a
// nil Recorder leaves the Report bit-identical to a run without
// observability (latency summaries aside, which only a recorder enables).
func TestObservabilityDeterminism(t *testing.T) {
	type variant struct {
		name string
		dd   float64
		cr   float64
		mut  func(*Config)
	}
	variants := []variant{
		{"cpu-only", 2.0, 2.0, func(c *Config) { c.Mode = CPUOnly }},
		{"gpu-both", 2.0, 2.0, func(c *Config) { c.Mode = GPUBoth }},
		{"entropy-bypass", 1.5, 1.0, func(c *Config) {
			c.Mode = GPUCompress
			c.SkipIncompressible = true
		}},
	}
	run := func(t *testing.T, v variant, par int, rec *obs.Recorder) *Report {
		t.Helper()
		cfg := testConfig(CPUOnly)
		v.mut(&cfg)
		cfg.Parallelism = par
		cfg.Obs = rec
		s := testStream(t, 4<<20, v.dd, v.cr, workload.RefUniform)
		_, rep := runPipeline(t, PaperPlatform(), cfg, s)
		return rep
	}
	traceBytes := func(t *testing.T, rec *obs.Recorder) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := rec.WriteTrace(&buf); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		return buf.Bytes()
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			recBase := obs.NewRecorder()
			repBase := run(t, v, 1, recBase)
			baseTrace := traceBytes(t, recBase)
			if recBase.Spans() == 0 {
				t.Fatal("recorder saw no spans")
			}
			for _, par := range []int{4, 16} {
				rec := obs.NewRecorder()
				rep := run(t, v, par, rec)
				if !reflect.DeepEqual(repBase, rep) {
					t.Errorf("parallelism=%d: reports differ:\nbase: %+v\ngot:  %+v", par, repBase, rep)
				}
				if !bytes.Equal(baseTrace, traceBytes(t, rec)) {
					t.Errorf("parallelism=%d: trace bytes differ from serial run", par)
				}
			}

			// A nil recorder must leave everything but the recorder-gated
			// latency summaries bit-identical, and must not leak a latency
			// line into the human-readable report.
			repOff := run(t, v, 4, nil)
			if repOff.Latency.Any() {
				t.Error("latency summaries populated without a recorder")
			}
			if strings.Contains(repOff.String(), "latency") {
				t.Errorf("obs-off String leaks latency line:\n%s", repOff)
			}
			repScrubbed := *repBase
			repScrubbed.Latency = PipelineLatency{}
			if !reflect.DeepEqual(&repScrubbed, repOff) {
				t.Errorf("obs-on report (latency aside) differs from obs-off report:\non:  %+v\noff: %+v", &repScrubbed, repOff)
			}
		})
	}
}

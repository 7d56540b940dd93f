package trace

import (
	"fmt"
	"time"

	"inlinered/internal/sim"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// Report summarizes a replay: per-op-type counts and virtual latency
// percentiles, the volume's space accounting, and cleaning activity.
type Report struct {
	Ops     int           `json:"ops"`
	Writes  int64         `json:"writes"`
	Reads   int64         `json:"reads"`
	Trims   int64         `json:"trims"`
	Elapsed time.Duration `json:"elapsed_ns"`

	WriteLat Latency `json:"write_lat"`
	ReadLat  Latency `json:"read_lat"`
	TrimLat  Latency `json:"trim_lat"`

	Volume volume.Stats `json:"volume"`
	Cleans int          `json:"cleans"`
}

// Latency holds latency percentiles in microseconds (exact quantiles over
// every sample, unlike the volume's log-bucketed histograms).
type Latency struct {
	P50  float64 `json:"p50_us"`
	P90  float64 `json:"p90_us"`
	P99  float64 `json:"p99_us"`
	Mean float64 `json:"mean_us"`
}

// ReportSchema versions the replay report envelope.
const ReportSchema = "inlinered/trace-report/v1"

// JSON encodes the report as stable, indented JSON with a schema envelope.
func (r *Report) JSON() ([]byte, error) { return sim.EncodeReport(ReportSchema, r) }

func latencyOf(q *sim.Quantiles, s *sim.Stats) Latency {
	return Latency{
		P50:  q.At(0.50) * 1e6,
		P90:  q.At(0.90) * 1e6,
		P99:  q.At(0.99) * 1e6,
		Mean: s.Mean() * 1e6,
	}
}

// ReplayOptions tune a replay.
type ReplayOptions struct {
	// CleanEvery runs the volume's segment cleaner every N operations
	// (0 disables periodic cleaning).
	CleanEvery int
	// Seed derives block contents from trace content ids.
	Seed int64
}

// Replay drives a volume with a trace and reports virtual-time behaviour.
// Block contents derive deterministically from each write's content id, so
// replays are reproducible and dedup behaviour follows the trace.
func Replay(vol *volume.Volume, recs []Record, cfg volume.Config, opts ReplayOptions) (*Report, error) {
	rep := &Report{Ops: len(recs)}
	var wq, rq, tq sim.Quantiles
	var ws, rs, ts sim.Stats
	start := vol.Now()
	for i, rec := range recs {
		switch rec.Op {
		case OpWrite:
			data := workload.UniqueChunk(opts.Seed, rec.Content, cfg.BlockSize, 0.5)
			lat, err := vol.Write(rec.LBA, data)
			if err != nil {
				return nil, fmt.Errorf("trace: op %d: %w", i, err)
			}
			rep.Writes++
			wq.Add(lat.Seconds())
			ws.Add(lat.Seconds())
		case OpRead:
			_, lat, err := vol.Read(rec.LBA)
			if err != nil {
				return nil, fmt.Errorf("trace: op %d: %w", i, err)
			}
			rep.Reads++
			rq.Add(lat.Seconds())
			rs.Add(lat.Seconds())
		case OpTrim:
			lat, err := vol.Trim(rec.LBA)
			if err != nil {
				return nil, fmt.Errorf("trace: op %d: %w", i, err)
			}
			rep.Trims++
			tq.Add(lat.Seconds())
			ts.Add(lat.Seconds())
		default:
			return nil, fmt.Errorf("trace: op %d: unknown op %q", i, rec.Op)
		}
		if opts.CleanEvery > 0 && (i+1)%opts.CleanEvery == 0 {
			n, err := vol.Clean()
			if err != nil {
				return nil, fmt.Errorf("trace: cleaning at op %d: %w", i, err)
			}
			rep.Cleans += n
		}
	}
	rep.Elapsed = vol.Now() - start
	rep.WriteLat = latencyOf(&wq, &ws)
	rep.ReadLat = latencyOf(&rq, &rs)
	rep.TrimLat = latencyOf(&tq, &ts)
	rep.Volume = vol.Stats()
	return rep, nil
}

// String renders a replay report.
func (r *Report) String() string {
	return fmt.Sprintf(
		"ops=%d (w=%d r=%d t=%d) elapsed=%v cleans=%d\n"+
			"  write latency µs: p50=%.0f p90=%.0f p99=%.0f mean=%.0f\n"+
			"  read  latency µs: p50=%.0f p90=%.0f p99=%.0f mean=%.0f\n"+
			"  trim  latency µs: p50=%.0f p90=%.0f p99=%.0f mean=%.0f\n"+
			"  space: logical=%d stored=%d garbage=%d reduction=%.2fx dedup hits=%d",
		r.Ops, r.Writes, r.Reads, r.Trims, r.Elapsed.Round(time.Millisecond), r.Cleans,
		r.WriteLat.P50, r.WriteLat.P90, r.WriteLat.P99, r.WriteLat.Mean,
		r.ReadLat.P50, r.ReadLat.P90, r.ReadLat.P99, r.ReadLat.Mean,
		r.TrimLat.P50, r.TrimLat.P90, r.TrimLat.P99, r.TrimLat.Mean,
		r.Volume.LogicalBytes, r.Volume.StoredBytes, r.Volume.GarbageBytes,
		r.Volume.ReductionRatio(), r.Volume.DedupHits)
}

// Package gpu simulates a discrete GPU accelerator of the class the paper
// evaluates on (an AMD Radeon HD 7970 driven through OpenCL).
//
// The simulator reproduces the three architectural properties §3.1(2) of the
// paper builds its design around:
//
//  1. The GPU hangs off PCIe: every batch pays a DMA setup latency plus
//     bytes/bandwidth to move between system and device memory (sim.Link).
//  2. Execution is SIMT: threads run in wavefronts that execute in lockstep,
//     so a wavefront costs as many cycles as its *slowest* lane — branch
//     divergence is charged for real, computed by each kernel from the
//     actual per-item work it performed.
//  3. Kernel dispatch has a fixed launch overhead (tens of microseconds on
//     the OpenCL stacks of the era), which puts a floor under small-batch
//     kernels. This is precisely why the paper finds CPU indexing 4.16–5.45×
//     faster than GPU indexing and decides to use the GPU for indexing only
//     when the CPU is saturated.
//
// Kernels are real Go code operating on real device-buffer bytes; they
// return a Profile describing the work they did, and the device converts
// that profile into virtual time. Only time is simulated — results are real.
package gpu

import (
	"fmt"
	"time"

	"inlinered/internal/fault"
	"inlinered/internal/obs"
	"inlinered/internal/sim"
)

// Config describes a simulated GPU.
type Config struct {
	Name            string
	ComputeUnits    int           // concurrent wavefront slots (32 on HD 7970)
	WavefrontSize   int           // lanes per wavefront (64 on GCN)
	ClockHz         float64       // shader clock (925 MHz on HD 7970)
	DeviceMemBytes  int64         // device memory capacity (3 GiB on HD 7970)
	LaunchOverhead  time.Duration // fixed per-kernel dispatch cost
	PCIeSetup       time.Duration // per-DMA setup latency
	PCIeBytesPerSec float64       // host<->device bandwidth
	Cost            CostModel     // per-operation device cycle costs
}

// DefaultConfig returns the paper-testbed GPU: a Radeon HD 7970-class part
// on PCIe with OpenCL-era launch overhead.
func DefaultConfig() Config {
	return Config{
		Name:            "Radeon HD 7970-class (32 CU x 64 @ 925 MHz)",
		ComputeUnits:    32,
		WavefrontSize:   64,
		ClockHz:         925e6,
		DeviceMemBytes:  3 << 30,
		LaunchOverhead:  90 * time.Microsecond,
		PCIeSetup:       15 * time.Microsecond,
		PCIeBytesPerSec: 8e9, // PCIe 3.0 x8 effective
		Cost:            DefaultCostModel(),
	}
}

// CostModel holds per-operation device cycle costs. GPU lanes are scalar,
// in-order and clocked low, so per-step costs are higher than host cycles
// for branchy work (index probes) and lower in aggregate for regular
// streaming work (LZ scanning) because thousands of lanes run at once.
type CostModel struct {
	// ProbeEntryCycles is the per-entry cost of scanning a linear bin table
	// (coalesced loads through local memory, one compare per entry).
	ProbeEntryCycles float64
	// ProbeBaseCycles is the fixed per-item cost of a probe (bin selection,
	// result write).
	ProbeBaseCycles float64

	// Compression: per-lane cost = CompressBaseCycles
	//                            + positions*CompressCyclesPerPosition
	//                            + searchSteps*MatchStepCycles
	//                            + dstBytes*EmitCyclesPerByte,
	// evaluated on the sub-block each lane owns (positions/steps/bytes come
	// from the real encoder run for that lane).
	CompressBaseCycles        float64
	CompressCyclesPerPosition float64
	MatchStepCycles           float64
	EmitCyclesPerByte         float64

	// HashCyclesPerByte is the per-lane cost of fingerprinting a chunk
	// (SHA-1 is a serial dependency chain per chunk: one lane per chunk,
	// ALU-bound rounds plus global-memory loads of the chunk words).
	HashCyclesPerByte float64

	// LocalCopyCyclesPerByte is the cost of staging data from global to
	// local memory (charged when a kernel declares local traffic).
	LocalCopyCyclesPerByte float64
}

// DefaultCostModel returns the calibrated device cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		// A linear-bin scan is one dependent global-memory load per entry
		// per lane; lanes in a wavefront scan *different* bins, so loads
		// never coalesce and each costs full memory latency.
		ProbeEntryCycles: 230,
		ProbeBaseCycles:  2000,

		// Effective per-position cost of the sub-block LZ kernel at
		// single-wavefront occupancy: each position chases ~10 dependent
		// global/local accesses (hash lookup, chain candidates, match
		// extension) at ~350-400 cycles each, with no other wavefront
		// resident to hide the latency.
		CompressBaseCycles:        3000,
		CompressCyclesPerPosition: 4300,
		MatchStepCycles:           25,
		EmitCyclesPerByte:         10,

		HashCyclesPerByte: 55,

		LocalCopyCyclesPerByte: 0.25,
	}
}

// Profile is a kernel's self-reported work profile. Kernels compute
// SumWaveCycles from the real per-item work: items are grouped into
// wavefronts of Config.WavefrontSize, each wavefront costs the maximum of
// its lanes' cycle counts (lockstep execution), and SumWaveCycles is the sum
// over all wavefronts. See Wavefronts for the standard aggregation helper.
type Profile struct {
	Items         int     // global work size (threads launched)
	Waves         int     // wavefronts executed
	SumWaveCycles float64 // Σ over wavefronts of max lane cycles
	MaxWaveCycles float64 // most expensive single wavefront (makespan floor)
	LaneCycles    float64 // Σ over lanes of their individual cycles (for divergence accounting)
	LocalBytes    int64   // bytes staged through local memory
}

// DivergenceFactor reports SIMT efficiency loss: executed wave cycles times
// wavefront width divided by useful lane cycles. 1.0 means no divergence;
// 2.0 means half the lanes idled on average. Returns 1 for empty profiles.
func (p Profile) DivergenceFactor(wavefrontSize int) float64 {
	if p.LaneCycles <= 0 {
		return 1
	}
	return p.SumWaveCycles * float64(wavefrontSize) / p.LaneCycles
}

// Wavefronts folds a slice of per-item cycle counts into a Profile using the
// lockstep rule: the kernel's items are packed into wavefronts of size w in
// order, and each wavefront costs its maximum lane.
func Wavefronts(perItemCycles []float64, w int) Profile {
	if w < 1 {
		panic("gpu: wavefront size must be >= 1")
	}
	p := Profile{Items: len(perItemCycles)}
	for i := 0; i < len(perItemCycles); i += w {
		end := i + w
		if end > len(perItemCycles) {
			end = len(perItemCycles)
		}
		var max float64
		for _, c := range perItemCycles[i:end] {
			p.LaneCycles += c
			if c > max {
				max = c
			}
		}
		p.SumWaveCycles += max
		if max > p.MaxWaveCycles {
			p.MaxWaveCycles = max
		}
		p.Waves++
	}
	return p
}

// Device is a simulated GPU. The command queue is in-order (one kernel at a
// time), matching the single OpenCL queue the paper's design uses; the PCIe
// link is shared by both transfer directions. Device is not safe for
// concurrent use.
type Device struct {
	Config
	queue      *sim.Pool
	link       *sim.Link
	memUsed    int64
	kernels    int64
	profiles   Profiles
	faults     *fault.Injector
	lost       bool
	rec        *obs.Recorder
	laneKernel obs.Lane // command-queue timeline
	lanePCIe   obs.Lane // DMA timeline
}

// Profiles accumulates device-wide kernel statistics.
type Profiles struct {
	Items         int64
	Waves         int64
	SumWaveCycles float64
	LaneCycles    float64
}

// New returns a Device for cfg. It panics on nonsensical configurations.
func New(cfg Config) *Device {
	switch {
	case cfg.ComputeUnits < 1:
		panic(fmt.Sprintf("gpu: need >=1 compute unit, got %d", cfg.ComputeUnits))
	case cfg.WavefrontSize < 1:
		panic(fmt.Sprintf("gpu: need >=1 lane per wavefront, got %d", cfg.WavefrontSize))
	case cfg.ClockHz <= 0:
		panic(fmt.Sprintf("gpu: need a positive clock, got %g", cfg.ClockHz))
	case cfg.PCIeBytesPerSec <= 0:
		panic(fmt.Sprintf("gpu: need positive PCIe bandwidth, got %g", cfg.PCIeBytesPerSec))
	}
	return &Device{
		Config: cfg,
		queue:  sim.NewPool("gpu:"+cfg.Name, 1),
		link:   sim.NewLink("pcie:"+cfg.Name, cfg.PCIeSetup, cfg.PCIeBytesPerSec),
	}
}

// Lanes returns the number of concurrently executing lanes
// (ComputeUnits × WavefrontSize).
func (d *Device) Lanes() int { return d.ComputeUnits * d.WavefrontSize }

// ComputeTime converts a kernel profile into pure compute time: wavefronts
// are distributed across compute units, so the makespan is
// SumWaveCycles/ComputeUnits — but never less than the most expensive
// single wavefront, which floors small launches that cannot fill the
// device (this is what makes assigning several lanes per chunk worthwhile,
// §3.2(2)). Local-memory staging is amortized across compute units.
func (d *Device) ComputeTime(p Profile) time.Duration {
	cycles := p.SumWaveCycles / float64(d.ComputeUnits)
	if p.MaxWaveCycles > cycles {
		cycles = p.MaxWaveCycles
	}
	cycles += float64(p.LocalBytes) * d.Cost.LocalCopyCyclesPerByte / float64(d.ComputeUnits)
	return sim.Cycles(cycles, d.ClockHz)
}

// SetFaultInjector threads a deterministic fault injector through kernel
// launches: a roll of the device-lost stream kills the device mid-dispatch,
// and every launch after that fails immediately. A nil injector disables
// injection.
func (d *Device) SetFaultInjector(fi *fault.Injector) { d.faults = fi }

// SetRecorder attaches an observability recorder with two trace lanes: one
// for the in-order command queue (kernel spans named after the kernel, with
// the item count as an argument) and one for the PCIe link ("h2d"/"d2h"
// spans carrying byte counts), so host-compute/DMA overlap is visible the
// way arXiv:1202.3669 renders it. A nil recorder disables recording.
func (d *Device) SetRecorder(r *obs.Recorder) {
	d.rec = r
	d.laneKernel = r.Lane("gpu", "kernels")
	d.lanePCIe = r.Lane("gpu", "pcie")
}

// Lost reports whether an injected device loss has killed the GPU. Once
// lost, the device stays lost; results of kernels that completed before the
// loss remain valid (they were already copied back or retired).
func (d *Device) Lost() bool { return d.lost }

// Launch runs the kernel called name, enqueued at virtual time at: run
// executes it functionally (producing real results in device buffers or host
// memory) and returns the work profile the device charges for. Launch
// returns the kernel completion time together with that profile. The launch
// pays the fixed dispatch overhead and then the profile's compute time;
// kernels on the queue serialize.
//
// A launch on a lost device fails with fault.ErrDeviceLost without running
// the kernel. An injected device loss fires during dispatch: the launch
// overhead is charged (the host only learns of the loss from the failed
// dispatch), the kernel does not run, and the device is dead from then on.
func (d *Device) Launch(at time.Duration, name string, run func() Profile) (end time.Duration, p Profile, err error) {
	if d.lost {
		return at, Profile{}, fmt.Errorf("gpu: launch %s: %w", name, fault.ErrDeviceLost)
	}
	if d.faults.DeviceLost() {
		d.lost = true
		_, end = d.queue.Acquire(at, d.LaunchOverhead)
		d.rec.Instant(d.laneKernel, "device-lost", end)
		return end, Profile{}, fmt.Errorf("gpu: launch %s: %w", name, fault.ErrDeviceLost)
	}
	p = run()
	dur := d.LaunchOverhead + d.ComputeTime(p)
	var start time.Duration
	start, end = d.queue.Acquire(at, dur)
	d.rec.SpanN(d.laneKernel, name, start, end, "items", int64(p.Items))
	d.kernels++
	d.profiles.Items += int64(p.Items)
	d.profiles.Waves += int64(p.Waves)
	d.profiles.SumWaveCycles += p.SumWaveCycles
	d.profiles.LaneCycles += p.LaneCycles
	return end, p, nil
}

// TransferToDevice charges an n-byte host-to-device DMA arriving at virtual
// time at and returns its completion time.
func (d *Device) TransferToDevice(at time.Duration, n int) time.Duration {
	start, end := d.link.Transfer(at, n)
	d.rec.SpanN(d.lanePCIe, "h2d", start, end, "bytes", int64(n))
	return end
}

// TransferFromDevice charges an n-byte device-to-host DMA.
func (d *Device) TransferFromDevice(at time.Duration, n int) time.Duration {
	start, end := d.link.Transfer(at, n)
	d.rec.SpanN(d.lanePCIe, "d2h", start, end, "bytes", int64(n))
	return end
}

// TransferTime returns the unqueued time for an n-byte DMA.
func (d *Device) TransferTime(n int) time.Duration { return d.link.TransferTime(n) }

// Busy reports whether the command queue is occupied at virtual time at.
func (d *Device) Busy(at time.Duration) bool { return d.queue.Saturated(at) }

// NextFree reports when the command queue frees up.
func (d *Device) NextFree() time.Duration { return d.queue.NextFree() }

// Horizon reports the device's latest scheduled completion (kernels and
// transfers).
func (d *Device) Horizon() time.Duration {
	return max(d.queue.Horizon(), d.link.Horizon())
}

// Kernels reports the number of kernels launched so far.
func (d *Device) Kernels() int64 { return d.kernels }

// Stats returns accumulated kernel statistics.
func (d *Device) Stats() Profiles { return d.profiles }

// Utilization reports command-queue occupancy over [0, until].
func (d *Device) Utilization(until time.Duration) float64 { return d.queue.Utilization(until) }

// LinkUtilization reports PCIe occupancy over [0, until].
func (d *Device) LinkUtilization(until time.Duration) float64 { return d.link.Utilization(until) }

// Reset clears the device timeline, statistics, and nothing else: allocated
// buffers and their contents survive, matching a persistent device-resident
// index across runs. Use FreeAll to drop buffers too.
func (d *Device) Reset() {
	d.queue.Reset()
	d.link.Reset()
	d.kernels = 0
	d.profiles = Profiles{}
}

// Package reduce is the one reduction substrate under both front-ends of
// the paper's Figure 1 pipeline: internal/core's open-loop stream engine
// and internal/volume's closed-loop block device. It owns every decision
// the two must agree on — how the simulated CPU, SSD and bin index are
// wired together (fault fan-out, trace lanes), how a unique chunk becomes
// a stored blob and what that costs (Encoder), what an index insert costs,
// and how bin-buffer flushes are journaled (Journal) — so a change to any
// of them is one edit that every workload exercises. What differs between
// the front-ends (batching and GPU arbitration in the engine; the LBA map,
// log and cache in the volume; the order each commits its steps in) stays
// with them.
package reduce

import (
	"fmt"
	"time"

	"inlinered/internal/cpusim"
	"inlinered/internal/dedup"
	"inlinered/internal/fault"
	"inlinered/internal/obs"
	"inlinered/internal/ssd"
)

// Substrate is the simulated hardware and durable index state one
// front-end instance runs on. Like its front-ends it is driven from one
// goroutine, on the sequential virtual-time commit path.
type Substrate struct {
	CPU     *cpusim.CPU
	Drive   *ssd.Drive
	Index   *dedup.BinIndex // nil when deduplication is off
	Journal Journal
	Faults  *fault.Injector // nil when injection is off

	// WriteRetries counts transient drive-write errors cleared by the
	// bounded-retry policy, data and journal writes alike.
	WriteRetries int64

	rec      *obs.Recorder
	cpuLanes []obs.Lane // one trace lane per virtual hardware thread
}

// New builds the devices, the bin index (index == nil turns deduplication
// off) and the journal region, and threads one fault injector through all
// of them. A zero faults config injects nothing.
func New(cpu cpusim.Config, drive ssd.Config, index *dedup.IndexConfig, faults fault.Config) (*Substrate, error) {
	s := &Substrate{CPU: cpusim.New(cpu), Drive: ssd.New(drive)}
	prefixBytes := 0
	if index != nil {
		idx, err := dedup.NewBinIndex(*index)
		if err != nil {
			return nil, err
		}
		s.Index = idx
		prefixBytes = index.PrefixBytes
	}
	s.Journal.init(s, prefixBytes)
	if faults.Enabled() {
		s.SetFaultInjector(fault.New(faults))
	}
	return s, nil
}

// SetFaultInjector fans one injector out to the drive, the index and the
// journal region. A nil injector disables injection.
func (s *Substrate) SetFaultInjector(fi *fault.Injector) {
	s.Faults = fi
	s.Drive.SetFaultInjector(fi)
	if s.Index != nil {
		s.Index.SetFaultInjector(fi)
	}
}

// Trace attaches an observability recorder: one lane per CPU hardware
// thread, then the drive's channel lanes, with journal-region programs
// named apart from data programs. Lane registration order fixes the trace's
// pid/tid assignment, so a front-end registers its own lanes before or
// after this call and keeps that order. A nil recorder is a no-op.
func (s *Substrate) Trace(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	s.rec = rec
	s.cpuLanes = make([]obs.Lane, s.CPU.Pool.Servers())
	for i := range s.cpuLanes {
		s.cpuLanes[i] = rec.Lane("cpu", fmt.Sprintf("t%d", i))
	}
	s.Drive.SetRecorder(rec)
	s.Drive.MarkJournalRegion(s.Journal.base)
}

// Run schedules one CPU job of the given cycles arriving at virtual time at
// on the earliest-free hardware thread, records it on that thread's trace
// lane, and returns its completion time.
func (s *Substrate) Run(name string, at time.Duration, cycles float64) time.Duration {
	start, end := s.CPU.Run(at, cycles)
	if s.rec != nil {
		s.rec.Span(s.cpuLanes[s.CPU.Pool.LastServer()], name, start, end)
	}
	return end
}

// WriteDrive issues one drive write under the shared bounded-retry policy
// (fault.Retry). On error it returns the failed attempt's completion time,
// backoff included, so callers can commit the time the request consumed.
func (s *Substrate) WriteDrive(at time.Duration, lpn int64, pages int) (time.Duration, error) {
	return fault.Retry(s.Drive.Write, &s.WriteRetries, at, lpn, pages)
}

// Insert files one stored chunk in the bin index and returns the flush the
// insert triggered (nil when the bin buffer had room) with the CPU cycles
// the insert cost, for the caller to schedule in its own job order.
func (s *Substrate) Insert(fp dedup.Fingerprint, e dedup.Entry) (*dedup.Flush, float64) {
	ir := s.Index.Insert(fp, e)
	treeSteps := 0
	if ir.Flush != nil {
		treeSteps = ir.Flush.TreeSteps
	}
	return ir.Flush, s.CPU.Cost.IndexInsertCycles(ir.BufferScanned, treeSteps)
}

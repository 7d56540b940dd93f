// Package fault is a deterministic, seedable fault injector for the
// reduction pipeline's durability-adjacent layers: the SSD drive, the
// volume log, the dedup journal, and the GPU device.
//
// A fault Kind indexes a rate (Rates) and a PRNG stream derived from the
// run seed and the kind, so two runs with the same seed and the same
// workload make identical fault decisions, and consulting one site more or
// less often never perturbs another site's stream. All consults happen on
// the single-threaded virtual-time control path, so a fixed seed yields
// bit-identical Reports regardless of host parallelism. Adding a kind is
// one constant plus the method that consults it; NodeRejoinDelay alone is
// drawn without a rate.
//
// The injector is nil-safe: every method on a nil *Injector reports "no
// fault", so the data plane threads it through unconditionally and pays
// one nil check when injection is disabled.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Sentinel errors injected faults wrap. Callers classify with errors.Is
// (or the IsTransient helper) to pick between retry and degradation.
var (
	// ErrTransient marks a device error that a bounded retry may clear.
	ErrTransient = errors.New("transient device fault (injected)")
	// ErrPermanent marks a device error that retries will never clear.
	ErrPermanent = errors.New("permanent device fault (injected)")
	// ErrDeviceLost marks a GPU that died mid-run; the host must finish
	// the workload on the CPU path.
	ErrDeviceLost = errors.New("gpu device lost (injected)")
)

// IsTransient reports whether err is (or wraps) a transient fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Kind enumerates the injectable fault classes. A kind's stream is seeded
// from its position, so new kinds go last.
type Kind int

const (
	SSDWriteTransient Kind = iota
	SSDWritePermanent
	SSDReadTransient
	SSDLatencySpike
	JournalTorn
	GPUDeviceLost
	IndexEvict
	// Node-level kinds, consulted by the cluster tier's single-threaded
	// sequencing phase (never by a volume or drive): NodeCrash fail-stops a
	// whole node, NodeRejoinDelay draws how long it stays down, and
	// ReplicaDivergence silently drops one replica write so replicas
	// disagree until read-repair or a scrub reconciles them.
	NodeCrash
	// NodeRejoinDelay has a stream but no rate: its Rates entry is never
	// read, because every crash draws exactly one rejoin delay.
	NodeRejoinDelay
	ReplicaDivergence
	numKinds
)

// Rates holds the per-opportunity injection probability of each fault
// kind, in [0,1]. The zero value injects nothing.
type Rates [numKinds]float64

// Uniform sets every survivable fault kind to rate. Permanent SSD write
// errors stay at zero: they are data loss, not degradation, and belong to
// targeted tests rather than the one-knob CLI mode. Node-level kinds also
// stay at zero: they only have meaning on the cluster tier, which arms
// them through its own NodeFaults config (see NodeUniform).
func Uniform(rate float64) Rates {
	return Rates{
		SSDWriteTransient: rate,
		SSDReadTransient:  rate,
		SSDLatencySpike:   rate,
		JournalTorn:       rate,
		GPUDeviceLost:     rate,
		IndexEvict:        rate,
	}
}

// NodeUniform sets the node-level kinds the cluster tier injects: crashes
// at rate, replica divergence at divergence. Device-level kinds stay zero
// (arm those per node through the volume's own fault config).
func NodeUniform(rate, divergence float64) Rates {
	return Rates{NodeCrash: rate, ReplicaDivergence: divergence}
}

// Config describes one run's fault schedule.
type Config struct {
	// Seed drives every injection decision; two runs with the same seed,
	// rates, and workload inject identical faults.
	Seed int64
	// Rates are the per-kind injection probabilities.
	Rates Rates
}

// Enabled reports whether any fault kind has a nonzero rate.
func (c Config) Enabled() bool { return c.Rates != (Rates{}) }

// Validate rejects a rate outside [0,1].
func (c Config) Validate() error {
	for k, r := range c.Rates {
		if !(r >= 0 && r <= 1) {
			return fmt.Errorf("fault: rate of kind %d must be in [0,1], got %g", k, r)
		}
	}
	return nil
}

// spikeBase is the base of an injected latency spike, which is 1–4× it.
const spikeBase = 2 * time.Millisecond

// Injector makes deterministic fault decisions. It is not safe for
// concurrent use; all consults happen on the simulation control path.
type Injector struct {
	rates Rates
	rng   [numKinds]*rand.Rand
}

// New builds an injector for cfg. A nil *Injector is also valid and
// injects nothing.
func New(cfg Config) *Injector {
	inj := &Injector{rates: cfg.Rates}
	for k := range inj.rng {
		// SplitMix64-style seed mixing gives each kind an independent
		// stream even for adjacent seeds.
		s := uint64(cfg.Seed) + uint64(k+1)*0x9E3779B97F4A7C15
		s ^= s >> 30
		s *= 0xBF58476D1CE4E5B9
		s ^= s >> 27
		inj.rng[k] = rand.New(rand.NewSource(int64(s)))
	}
	return inj
}

// roll consults kind's stream and reports a hit; a kind at rate zero
// draws nothing.
func (i *Injector) roll(k Kind) bool {
	if i == nil || i.rates[k] <= 0 {
		return false
	}
	return i.rng[k].Float64() < i.rates[k]
}

// WriteError rolls the SSD write-error streams: permanent first (it
// dominates), then transient. Returns nil, ErrTransient, or ErrPermanent
// (wrapped).
func (i *Injector) WriteError() error {
	if i == nil {
		return nil
	}
	if i.roll(SSDWritePermanent) {
		return fmt.Errorf("injected ssd write error: %w", ErrPermanent)
	}
	if i.roll(SSDWriteTransient) {
		return fmt.Errorf("injected ssd write error: %w", ErrTransient)
	}
	return nil
}

// ReadError rolls the SSD read-error stream (transient only; permanent
// read failure of the simulated media is modeled as exhausted retries).
func (i *Injector) ReadError() error {
	if i == nil {
		return nil
	}
	if i.roll(SSDReadTransient) {
		return fmt.Errorf("injected ssd read error: %w", ErrTransient)
	}
	return nil
}

// Latency rolls the spike stream and returns the extra virtual time an
// I/O request is delayed (0 when no spike fires).
func (i *Injector) Latency() time.Duration {
	if i == nil || !i.roll(SSDLatencySpike) {
		return 0
	}
	return spikeBase * time.Duration(1+i.rng[SSDLatencySpike].Intn(4))
}

// TornFraction rolls the torn-journal stream. When it fires, it returns
// the fraction of the flush record that was durably persisted before the
// simulated crash cut it (in (0,1)) and true.
func (i *Injector) TornFraction() (float64, bool) {
	if i == nil || !i.roll(JournalTorn) {
		return 0, false
	}
	return i.rng[JournalTorn].Float64(), true
}

// DeviceLost rolls the GPU loss stream (consulted per kernel launch).
func (i *Injector) DeviceLost() bool { return i.roll(GPUDeviceLost) }

// EvictIndex rolls the memory-pressure stream (consulted per index
// insert); a hit evicts one resident entry.
func (i *Injector) EvictIndex() bool { return i.roll(IndexEvict) }

// Rank returns a deterministic victim rank in [0,n) for an injected
// eviction, drawn from the eviction stream.
func (i *Injector) Rank(n int) int {
	if i == nil || n <= 1 {
		return 0
	}
	return i.rng[IndexEvict].Intn(n)
}

// NodeCrashes rolls the node-crash stream (consulted once per cluster
// operation while every node is healthy); a hit fail-stops one node.
func (i *Injector) NodeCrashes() bool { return i.roll(NodeCrash) }

// CrashVictim returns a deterministic victim node in [0,n) for an injected
// crash, drawn from the crash stream.
func (i *Injector) CrashVictim(n int) int {
	if i == nil || n <= 1 {
		return 0
	}
	return i.rng[NodeCrash].Intn(n)
}

// RejoinDelayOps draws how many operations a crashed node stays down
// before it rejoins, in [min, max], from the rejoin-delay stream. The draw
// is unconditional (no rate): every crash schedules exactly one rejoin.
func (i *Injector) RejoinDelayOps(min, max int) int {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if i == nil {
		return min
	}
	return min + i.rng[NodeRejoinDelay].Intn(max-min+1)
}

// ReplicaDiverges rolls the divergence stream (consulted per non-primary
// replica write); a hit silently drops that replica's copy of the write.
func (i *Injector) ReplicaDiverges() bool { return i.roll(ReplicaDivergence) }

// Retry policy shared by every consumer of transient device errors: a
// bounded number of attempts with exponential backoff charged to the
// virtual clock.
const (
	// MaxRetries is how many times a transient error is retried before it
	// is surfaced as permanent.
	MaxRetries = 6
	// RetryBackoffBase is the virtual-time delay before the first retry;
	// each subsequent retry doubles it.
	RetryBackoffBase = 200 * time.Microsecond
)

// Backoff returns the virtual-time delay charged before retry `attempt`
// (0-based).
func Backoff(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	if attempt > 16 {
		attempt = 16
	}
	return RetryBackoffBase << uint(attempt)
}

// Retry issues one drive operation under the shared bounded-retry policy:
// a transient error is retried up to MaxRetries times, each retry counted
// in *retries and charged Backoff on the virtual clock; a permanent error
// (or an exhausted retry budget) surfaces to the caller with the failed
// attempt's completion time.
func Retry(op func(at time.Duration, lpn int64, pages int) (time.Duration, error),
	retries *int64, at time.Duration, lpn int64, pages int) (time.Duration, error) {
	for attempt := 0; ; attempt++ {
		end, err := op(at, lpn, pages)
		if err == nil || !IsTransient(err) || attempt >= MaxRetries {
			return end, err
		}
		*retries++
		at += Backoff(attempt)
	}
}

package workload

import (
	"fmt"
	"math/rand"
)

// OpKind is a closed-loop block operation kind.
type OpKind byte

const (
	// OpWrite stores a block whose content derives from Op.Content.
	OpWrite OpKind = 'W'
	// OpRead fetches a block.
	OpRead OpKind = 'R'
	// OpTrim unmaps a block.
	OpTrim OpKind = 'T'
)

// Op is one closed-loop block operation. Content ids stand in for payloads
// (two writes with the same id carry identical bytes), so op lists stay
// compact and dedup behaviour is encoded in the list itself; FormatOps and
// ParseOps carry a list as text.
type Op struct {
	Kind    OpKind
	LBA     int64
	Content int32 // write content id; ignored for reads and trims
}

// OpCounts tallies an op list by kind.
type OpCounts struct {
	Writes, Reads, Trims int64
}

// CheckOps is a batch path's validation step: every op must have a known
// kind and an LBA inside [0, blocks). It returns the per-kind tally, or the
// first offending op's error.
func CheckOps(ops []Op, blocks int64) (OpCounts, error) {
	var n OpCounts
	for i, op := range ops {
		switch op.Kind {
		case OpWrite:
			n.Writes++
		case OpRead:
			n.Reads++
		case OpTrim:
			n.Trims++
		default:
			return n, fmt.Errorf("op %d: unknown kind %q", i, op.Kind)
		}
		if op.LBA < 0 || op.LBA >= blocks {
			return n, fmt.Errorf("op %d: lba %d outside [0,%d)", i, op.LBA, blocks)
		}
	}
	return n, nil
}

// ClosedLoopSpec parameterizes the closed-loop op-mix generator that feeds
// the multi-client serving front-end.
type ClosedLoopSpec struct {
	Ops        int     // operations to generate after the fill pass
	Blocks     int64   // LBA space
	WriteFrac  float64 // fraction of ops that are writes
	TrimFrac   float64 // fraction of ops that are trims (rest are reads)
	DedupRatio float64 // writes per distinct content id, >= 1
	Hotspot    float64 // fraction of ops hitting the hot 10% of the LBA space
	Seed       int64
}

// Validate reports whether the spec is usable.
func (s ClosedLoopSpec) Validate() error {
	if s.Ops < 1 || s.Blocks < 1 {
		return fmt.Errorf("workload: need ops >= 1 and blocks >= 1: %+v", s)
	}
	if s.WriteFrac < 0 || s.TrimFrac < 0 || s.WriteFrac+s.TrimFrac > 1 {
		return fmt.Errorf("workload: fractions must be non-negative and sum <= 1: %+v", s)
	}
	if s.DedupRatio < 1 {
		return fmt.Errorf("workload: dedup ratio must be >= 1: %+v", s)
	}
	if s.Hotspot < 0 || s.Hotspot > 1 {
		return fmt.Errorf("workload: hotspot must be in [0,1]: %+v", s)
	}
	return nil
}

// ReadMostlySpec returns the read-mostly closed-loop preset: a 90/9/1
// read/write/trim mix with the generator's usual dedup and hotspot
// defaults. Recovery scenarios lean on it — a cluster riding out a node
// crash is dominated by reads that must be served from a fallback
// replica, so the cluster tests drive this preset through the outage.
func ReadMostlySpec(ops int, blocks, seed int64) ClosedLoopSpec {
	return ClosedLoopSpec{
		Ops:        ops,
		Blocks:     blocks,
		WriteFrac:  0.09,
		TrimFrac:   0.01,
		DedupRatio: 2.0,
		Hotspot:    0.5,
		Seed:       seed,
	}
}

// ClosedLoop generates a deterministic closed-loop op list: a sequential
// fill of the LBA space (so reads and trims have something to hit) followed
// by the requested mix, with an optional hotspot. The list is a pure
// function of the spec — the serving front-end relies on that to promise
// bit-identical reports for any client count.
func ClosedLoop(spec ClosedLoopSpec) ([]Op, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	contents := int32(float64(spec.Ops)/spec.DedupRatio + 1)
	ops := make([]Op, 0, spec.Ops+int(spec.Blocks))
	for lba := int64(0); lba < spec.Blocks; lba++ {
		ops = append(ops, Op{Kind: OpWrite, LBA: lba, Content: rng.Int31n(contents)})
	}
	hot := spec.Blocks / 10
	if hot < 1 {
		hot = 1
	}
	pick := func() int64 {
		if spec.Hotspot > 0 && rng.Float64() < spec.Hotspot {
			return rng.Int63n(hot)
		}
		return rng.Int63n(spec.Blocks)
	}
	for i := 0; i < spec.Ops; i++ {
		p := rng.Float64()
		switch {
		case p < spec.WriteFrac:
			ops = append(ops, Op{Kind: OpWrite, LBA: pick(), Content: rng.Int31n(contents)})
		case p < spec.WriteFrac+spec.TrimFrac:
			ops = append(ops, Op{Kind: OpTrim, LBA: pick()})
		default:
			ops = append(ops, Op{Kind: OpRead, LBA: pick()})
		}
	}
	return ops, nil
}

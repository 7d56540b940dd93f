package reduce

import (
	"inlinered/internal/cpusim"
	"inlinered/internal/lz"
)

// Kind names the Encode branch that produced a blob.
type Kind uint8

const (
	// KindRaw: compression is off; the chunk is stored raw.
	KindRaw Kind = iota
	// KindBypass: the entropy pre-check found the chunk incompressible; it
	// is stored raw without running the encoder.
	KindBypass
	// KindCodec: one token stream from the CPU codec (LZSS or QuickLZ).
	KindCodec
	// KindSub: independent sub-block lanes stitched into an indexed
	// container (or its raw fallback when the container would not pay).
	KindSub
)

// Encoder is how a front-end turns a unique chunk into its stored blob: the
// fields of the front-end's configuration that decide it, nothing else.
type Encoder struct {
	Compress bool
	Codec    lz.Codec
	// Sub.SubBlocks >= 1 selects the sub-block container — the GPU kernel's
	// algorithm in the engine, the parallel-decode format in the volume; the
	// zero value keeps the single-stream codec.
	Sub lz.SubBlockParams
	// SkipIncompressible enables the entropy bypass.
	SkipIncompressible bool
}

// entropyThreshold is the bypass cutoff in bits/byte: ordinary text, code
// and zero-padded data stay below it, already-compressed or encrypted
// content does not.
const entropyThreshold = 7.2

// Encoded is one unique chunk's stored form and the work producing it took.
type Encoded struct {
	Blob  []byte
	Stats lz.Stats // of the final blob; SrcBytes is always the chunk length
	Kind  Kind
	// Sub holds the raw per-lane outputs of a KindSub encode: what a GPU
	// compression kernel is priced on and what its device-to-host transfer
	// carries.
	Sub lz.SubBlockResult
}

// Encode appends chunk's stored form to dst. It is a pure function of the
// chunk and the encoder's fields — no clock, no shared state — so pool
// workers may run it concurrently on distinct dst buffers; Cycles prices
// the result later, on the sequential commit path.
func (e *Encoder) Encode(dst, chunk []byte) Encoded {
	if !e.Compress {
		return storeRaw(dst, chunk, KindRaw)
	}
	if e.SkipIncompressible && lz.LikelyIncompressible(chunk, entropyThreshold) {
		return storeRaw(dst, chunk, KindBypass)
	}
	if e.Sub.SubBlocks >= 1 {
		lanes := lz.CompressSubBlocks(chunk, e.Sub)
		// The error reports a source/lane length mismatch, which lanes
		// computed from this very chunk cannot have.
		blob, st, _ := lz.PostProcessOrRaw(dst, chunk, lanes)
		return Encoded{Blob: blob, Stats: st, Kind: KindSub, Sub: lanes}
	}
	blob, st := lz.CompressCodec(e.Codec, dst, chunk, lz.DefaultParams())
	return Encoded{Blob: blob, Stats: st, Kind: KindCodec}
}

func storeRaw(dst, chunk []byte, kind Kind) Encoded {
	blob := lz.StoreRaw(dst, chunk)
	return Encoded{Blob: blob, Kind: kind, Stats: lz.Stats{SrcBytes: len(chunk), DstBytes: len(blob) - len(dst)}}
}

// Cycles prices one Encode result as a CPU job: the entropy pre-check when
// this encoder runs one, then the staging copy of a raw store or the
// codec's real work (positions, match-search steps, emitted bytes), plus
// the per-stage overhead.
func (e *Encoder) Cycles(cost cpusim.CostModel, enc Encoded) float64 {
	cycles := 0.0
	if e.Compress && e.SkipIncompressible {
		cycles = cost.EntropyCycles(enc.Stats.SrcBytes)
	}
	if enc.Kind == KindRaw || enc.Kind == KindBypass {
		cycles += cost.MemcpyCycles(enc.Stats.DstBytes)
	} else {
		cycles += cost.CompressCycles(enc.Stats.Positions, enc.Stats.SearchSteps, enc.Stats.DstBytes)
	}
	return cycles + cost.StageOverheadCycles
}

package lz

import (
	"encoding/binary"
	"fmt"
)

// SubBlockParams tune the GPU-shaped encoder of §3.2(2).
type SubBlockParams struct {
	Params
	// SubBlocks is the number of lanes assigned to one chunk; each lane
	// compresses its own contiguous sub-block.
	SubBlocks int
	// Overlap is how many bytes of the preceding sub-block each lane
	// preloads as history ("adjacent threads inspect overlapping regions
	// by the size of the history buffer"). Clamped to the format window.
	Overlap int
}

// DefaultSubBlockParams matches the paper's setting for 4 KB chunks:
// four lanes per chunk, each seeing half a window of its neighbour.
func DefaultSubBlockParams() SubBlockParams {
	return SubBlockParams{Params: DefaultParams(), SubBlocks: 4, Overlap: Window / 8}
}

// LaneResult is the raw output of one GPU lane: an unrefined token stream
// plus the work it took. This is what travels back over PCIe for the CPU to
// post-process.
type LaneResult struct {
	Tokens []byte
	Stats  Stats
}

// SubBlockResult is one chunk's worth of raw lane outputs.
type SubBlockResult struct {
	SrcLen int
	Lanes  []LaneResult
}

// RawBytes returns the total un-refined payload the lanes produced (what
// the device-to-host transfer carries).
func (r SubBlockResult) RawBytes() int {
	n := 0
	for _, l := range r.Lanes {
		n += len(l.Tokens)
	}
	return n
}

// CompressSubBlocks runs the GPU compression kernel's algorithm: the chunk
// is split into p.SubBlocks contiguous sub-blocks, each compressed
// independently by "its own LZ compression algorithm with its own history
// buffer and look-ahead buffer", with each lane preloading p.Overlap bytes
// of its left neighbour as history. The per-lane Stats feed the GPU cost
// model (each lane is one SIMT work item).
//
// The result is intentionally unrefined — assembling a decodable container
// is the CPU's post-processing job (PostProcess), as in the paper.
func CompressSubBlocks(src []byte, p SubBlockParams) SubBlockResult {
	p.Overlap = min(max(p.Overlap, 0), Window)
	res := SubBlockResult{SrcLen: len(src)}
	if len(src) == 0 {
		return res
	}
	n := min(max(p.SubBlocks, 1), len(src))
	// One chain build serves every lane: chains are strictly decreasing, so
	// the part of the chunk's chain at or above a lane's history start is
	// exactly the chain the lane would have built over its own buffer.
	m := buildChains(src)
	defer m.release()
	res.Lanes = make([]LaneResult, n)
	for i := range res.Lanes {
		start := i * len(src) / n
		end := (i + 1) * len(src) / n
		histStart := max(start-p.Overlap, 0)
		// Lane token streams are retained in the result (they travel back
		// over the simulated PCIe link), so they are not scratch-pooled.
		res.Lanes[i].Tokens, res.Lanes[i].Stats = m.parse(nil, histStart, start, end, p.Params)
	}
	return res
}

// PostProcess is the CPU refinement step: it stitches the raw lane streams
// into the final mode-4 indexed container, or falls back to a raw store
// when the lanes' combined output does not beat the source ("the CPU must
// refine the results", §3.2(2)). The boundary table it writes — per part,
// the token-stream length AND the exact output length (each lane's
// Stats.SrcBytes, the span it encoded) — is what lets a decoder resolve
// every part's output range in one cheap pass and decode the parts
// independently (ResolveSubBlocks/DecodeSubPart). The returned Stats
// describe the final blob; its SearchSteps are zero because the search
// already happened on the device.
func PostProcess(dst []byte, res SubBlockResult) ([]byte, Stats) {
	var st Stats
	st.SrcBytes = res.SrcLen

	var table []byte
	payload := 0
	for _, l := range res.Lanes {
		var tmp [2 * binary.MaxVarintLen64]byte
		k := binary.PutUvarint(tmp[:], uint64(len(l.Tokens)))
		k += binary.PutUvarint(tmp[k:], uint64(l.Stats.SrcBytes))
		table = append(table, tmp[:k]...)
		payload += len(l.Tokens)
		st.Literals += l.Stats.Literals
		st.Matches += l.Stats.Matches
		st.Positions += l.Stats.Positions
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(res.SrcLen))
	var pc [binary.MaxVarintLen64]byte
	pn := binary.PutUvarint(pc[:], uint64(len(res.Lanes)))

	total := 1 + hn + pn + len(table) + payload
	dst = append(dst, ModeSubIdx)
	dst = append(dst, hdr[:hn]...)
	dst = append(dst, pc[:pn]...)
	dst = append(dst, table...)
	for _, l := range res.Lanes {
		dst = append(dst, l.Tokens...)
	}
	st.DstBytes = total
	return dst, st
}

// PostProcessOrRaw refines the lane results like PostProcess but falls back
// to a mode-0 raw store of src when the container would not be smaller.
// src must be the exact chunk that produced res.
func PostProcessOrRaw(dst, src []byte, res SubBlockResult) ([]byte, Stats, error) {
	if len(src) != res.SrcLen {
		return dst, Stats{}, fmt.Errorf("lz: source (%d bytes) does not match lane result (%d bytes)", len(src), res.SrcLen)
	}
	blob, st := PostProcess(nil, res)
	if raw := headerLen(len(src)) + len(src); len(blob) >= raw {
		return StoreRaw(dst, src), Stats{SrcBytes: len(src), DstBytes: raw}, nil
	}
	return append(dst, blob...), st, nil
}

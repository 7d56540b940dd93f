package dedup

import (
	"time"

	"inlinered/internal/gpu"
)

// GPUBatchHash fingerprints a batch of chunks on the GPU: the chunk
// payloads are DMAed to the device, one lane hashes each chunk (SHA-1 is a
// serial dependency chain, so a chunk cannot be split across lanes), and
// the 20-byte digests come back.
//
// The paper keeps hashing on the CPU; related work (GHOST, Kim et al.)
// offloads it. This kernel exists for the E15 analysis: raw hashing
// throughput on the device is competitive, but the offload must move the
// *entire chunk* across PCIe (4 KB per chunk, 200× the 20 bytes an
// index-probe offload moves), which is exactly the bandwidth the
// integrated design would rather spend on compression offload.
// A lost device fails the batch with fault.ErrDeviceLost; the caller
// re-hashes the same chunks on the CPU.
func GPUBatchHash(dev *gpu.Device, at time.Duration, chunks [][]byte) (time.Duration, []Fingerprint, gpu.Profile, error) {
	if len(chunks) == 0 {
		return at, nil, gpu.Profile{}, nil
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	t := dev.TransferToDevice(at, total)

	fps := make([]Fingerprint, len(chunks))
	cost := dev.Cost
	perLane := make([]float64, len(chunks))
	t, prof, err := dev.Launch(t, "batch-sha1", func() gpu.Profile {
		for i, c := range chunks {
			fps[i] = Sum(c) // the real digest
			perLane[i] = float64(len(c)) * cost.HashCyclesPerByte
		}
		p := gpu.Wavefronts(perLane, dev.WavefrontSize)
		p.LocalBytes = int64(total)
		return p
	})
	if err != nil {
		return t, nil, gpu.Profile{}, err
	}
	t = dev.TransferFromDevice(t, len(chunks)*FingerprintSize)
	return t, fps, prof, nil
}

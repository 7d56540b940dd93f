package lz

import "math"

// Entropy returns the Shannon entropy of src's byte histogram in bits per
// byte (0 for empty or constant input, up to 8 for uniform random bytes).
// Inline reduction pipelines use it as a cheap pre-check: chunks whose
// entropy is already near 8 bits/byte will not compress, so the encoder
// (and, on the GPU path, the PCIe round trip) can be skipped entirely.
func Entropy(src []byte) float64 {
	if len(src) == 0 {
		return 0
	}
	var hist [256]int
	for _, b := range src {
		hist[b]++
	}
	n := float64(len(src))
	h := 0.0
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// xlogx[c] is c·log2 c for the byte counts of chunks up to 4 KiB.
var xlogx [4097]float64

func init() {
	for c := 1; c < len(xlogx); c++ {
		xlogx[c] = float64(c) * math.Log2(float64(c))
	}
}

// LikelyIncompressible reports whether a chunk's entropy exceeds the given
// threshold in bits/byte. A threshold around 7.2 keeps ordinary text,
// code, and zero-padded data compressible while skipping already-compressed
// or encrypted content.
//
// It computes H = log2 n − Σ c·log2 c / n, c·log2 c from a table. That
// differs from Entropy by rounding alone, far below 1e-9, so within 1e-9 of
// the threshold it asks Entropy: every decision is Entropy(src) > threshold.
func LikelyIncompressible(src []byte, thresholdBits float64) bool {
	var hist [256]int
	for _, b := range src {
		hist[b]++
	}
	s := 0.0
	for _, c := range hist {
		if c < len(xlogx) {
			s += xlogx[c]
		} else {
			s += float64(c) * math.Log2(float64(c))
		}
	}
	n := float64(len(src))
	h := math.Log2(n) - s/n
	if len(src) == 0 || math.Abs(h-thresholdBits) <= 1e-9 {
		return Entropy(src) > thresholdBits
	}
	return h > thresholdBits
}

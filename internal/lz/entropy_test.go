package lz

import (
	"math"
	"math/rand"
	"testing"
)

// TestLikelyIncompressibleMatchesEntropy: the table-driven check decides
// exactly as Entropy(src) > thr, including at thresholds within rounding of
// the entropy itself, where the two formulas may disagree in the last bits.
func TestLikelyIncompressibleMatchesEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	inputs := [][]byte{nil, {7}, make([]byte, 16<<10)}
	for i := 0; i < 2000; i++ {
		alphabet := 1 + rng.Intn(256)
		src := make([]byte, 1+rng.Intn(16<<10))
		for j := range src {
			src[j] = byte(rng.Intn(alphabet))
		}
		inputs = append(inputs, src)
	}
	for _, src := range inputs {
		e := Entropy(src)
		thrs := []float64{e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)), 7.2}
		for _, d := range []float64{1e-12, 1e-9, 1e-6} {
			thrs = append(thrs, e-d, e+d)
		}
		for _, thr := range thrs {
			if got, want := LikelyIncompressible(src, thr), e > thr; got != want {
				t.Fatalf("len %d, entropy %.17g, threshold %.17g: LikelyIncompressible = %v, want %v",
					len(src), e, thr, got, want)
			}
		}
	}
}

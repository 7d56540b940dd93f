package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks, 0 for an empty slice. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// segments is how many equal consecutive parts a timed region is cut into:
// parts of well under a second on the reference host, because that is how
// short its quiet spells get.
const segments = 20

// bestSegment is the rule every wall-clock timing here follows. Each lane
// holds one closed-loop caller's samples in time order. Every lane is cut
// into segments equal consecutive parts, the k-th parts of all lanes are
// pooled, stat is applied to each pool, and the smallest result is
// returned.
//
// The reason is the hosts this runs on: shared two-thread VMs where a
// neighbour slows the guest by 30-60 % for seconds at a time and nothing
// ever speeds it up. A statistic over the whole run mixes quiet and
// disturbed time in proportions that change from run to run (a mean or a
// median swung by 15 % between identical runs); the best part is quiet
// time in most runs. A cost the program itself pays — a collection, a
// cleaner pass — recurs in every part, so it stays in the result. Parts
// that would be empty are dropped.
func bestSegment(lanes [][]float64, stat func(pooled []float64) float64) float64 {
	best, found := 0.0, false
	for k := 0; k < segments; k++ {
		var pooled []float64
		for _, xs := range lanes {
			pooled = append(pooled, xs[k*len(xs)/segments:(k+1)*len(xs)/segments]...)
		}
		if len(pooled) == 0 {
			continue
		}
		if v := stat(pooled); !found || v < best {
			best, found = v, true
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method): the rule
// the driver applies to ten runs of one metric. xs must be sorted.
func quartileSpread(xs []float64) float64 {
	q := func(k int) float64 {
		pos := float64(k) * float64(len(xs)+1) / 4 // 1-based rank
		lo := min(max(int(math.Floor(pos)), 1), len(xs)-1)
		return xs[lo-1] + (pos-float64(lo))*(xs[lo]-xs[lo-1])
	}
	if len(xs) < 2 || q(2) == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(q(2))
}

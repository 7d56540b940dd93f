package sim

import (
	"math"
	"sort"
)

// Stats accumulates a stream of float64 samples and reports summary
// statistics. The zero value is ready to use.
type Stats struct {
	n        int64
	sum      float64
	sumSq    float64
	min, max float64
}

// Add records one sample.
func (s *Stats) Add(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the sample count.
func (s *Stats) N() int64 { return s.n }

// Sum returns the sum of all samples.
func (s *Stats) Sum() float64 { return s.sum }

// Mean returns the sample mean, or 0 with no samples.
func (s *Stats) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (s *Stats) Min() float64 { return s.min }

// Max returns the largest sample, or 0 with no samples.
func (s *Stats) Max() float64 { return s.max }

// StdDev returns the population standard deviation, or 0 with < 2 samples.
func (s *Stats) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		v = 0 // guard tiny negative from float error
	}
	return math.Sqrt(v)
}

// Quantiles accumulates samples and reports exact quantiles. Unlike Stats it
// retains every sample, so use it only for per-batch (not per-byte) metrics.
// The zero value is ready to use.
type Quantiles struct {
	samples []float64
	sorted  bool
}

// Add records one sample.
func (q *Quantiles) Add(v float64) {
	q.samples = append(q.samples, v)
	q.sorted = false
}

// N returns the sample count.
func (q *Quantiles) N() int { return len(q.samples) }

// At returns the p-quantile (p in [0,1]) using nearest-rank, or 0 with no
// samples.
func (q *Quantiles) At(p float64) float64 {
	if len(q.samples) == 0 {
		return 0
	}
	if !q.sorted {
		sort.Float64s(q.samples)
		q.sorted = true
	}
	if p <= 0 {
		return q.samples[0]
	}
	if p >= 1 {
		return q.samples[len(q.samples)-1]
	}
	i := int(math.Ceil(p*float64(len(q.samples)))) - 1
	if i < 0 {
		i = 0
	}
	return q.samples[i]
}

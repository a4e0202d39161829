// Package stats provides the statistical utilities used throughout pfsim:
// online summary statistics, Student-t 95% confidence intervals (the paper
// reports 95% CIs for every measured bandwidth), integer histograms for
// OST-collision counts, and a deterministic, seedable random number
// generator so that every simulated experiment is reproducible.
package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Sample accumulates observations and answers summary queries. The zero
// value is an empty sample ready for use.
type Sample struct {
	xs []float64
}

// NewSample returns a sample pre-populated with xs.
func NewSample(xs ...float64) *Sample {
	s := &Sample{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// Add appends one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations in insertion order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Var returns the unbiased sample variance (n-1 denominator).
func (s *Sample) Var() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += float64(d * d)
	}
	return sum / float64(n-1)
}

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or +Inf for an empty sample.
func (s *Sample) Min() float64 {
	min := math.Inf(1)
	for _, x := range s.xs {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest observation, or -Inf for an empty sample.
func (s *Sample) Max() float64 {
	max := math.Inf(-1)
	for _, x := range s.xs {
		if x > max {
			max = x
		}
	}
	return max
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) using linear interpolation
// between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	sorted := s.Values()
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := float64(p * float64(n-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// CI95 returns the 95% confidence interval for the mean using the Student-t
// distribution, matching the intervals reported in Table VII of the paper.
// For n < 2 the interval collapses to (mean, mean).
func (s *Sample) CI95() (lo, hi float64) {
	n := s.N()
	m := s.Mean()
	if n < 2 {
		return m, m
	}
	half := TCritical95(n-1) * s.Std() / math.Sqrt(float64(n))
	return m - half, m + half
}

// String formats the sample as "mean ± half-width (n=N)".
func (s *Sample) String() string {
	lo, hi := s.CI95()
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", s.Mean(), (hi-lo)/2, s.N())
}

// tTable95 holds two-sided 95% critical values of the Student-t
// distribution for 1..30 degrees of freedom.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom. Beyond df=30 it decays toward the normal z=1.960.
func TCritical95(df int) float64 {
	if df < 1 {
		return math.NaN()
	}
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	if df >= 1000 {
		return 1.960
	}
	// Smooth interpolation between t(30)=2.042 and z=1.960 using 1/df,
	// accurate to ~0.005 over the range.
	f := (1.0/30.0 - 1.0/float64(df)) / (1.0 / 30.0)
	return 2.042 - float64(f*(2.042-1.960))
}

// Online tracks count/mean/variance incrementally (Welford's algorithm)
// without retaining observations; used for high-volume simulator telemetry.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	if o.n == 0 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += float64(d * (x - o.mean))
}

// N reports the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean.
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased running variance.
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the running standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest observation seen (0 if none).
func (o *Online) Min() float64 {
	if o.n == 0 {
		return 0
	}
	return o.min
}

// Max returns the largest observation seen (0 if none).
func (o *Online) Max() float64 {
	if o.n == 0 {
		return 0
	}
	return o.max
}

// IntHistogram counts occurrences of small non-negative integers; it backs
// the OST collision tables (Tables V, VIII and IX in the paper).
type IntHistogram struct {
	counts []int
	total  int
}

// Add increments the bucket for value v (v < 0 is ignored).
func (h *IntHistogram) Add(v int) { h.AddN(v, 1) }

// AddN increments the bucket for v by n in O(1): the bucket slice grows
// once and the count bumps directly (an earlier revision looped n times
// over Add). Non-positive n and negative v are ignored.
func (h *IntHistogram) AddN(v, n int) {
	if v < 0 || n <= 0 {
		return
	}
	if len(h.counts) <= v {
		h.counts = append(h.counts, make([]int, v+1-len(h.counts))...)
	}
	h.counts[v] += n
	h.total += n
}

// Count returns the number of observations equal to v.
func (h *IntHistogram) Count(v int) int {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// MaxValue returns the largest value with a non-zero count (-1 if empty).
func (h *IntHistogram) MaxValue() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return -1
}

// Total returns the number of observations.
func (h *IntHistogram) Total() int { return h.total }

// Counts returns a copy of the bucket counts indexed by value.
func (h *IntHistogram) Counts() []int {
	out := make([]int, len(h.counts))
	copy(out, h.counts)
	return out
}

// Mean returns the mean observed value.
func (h *IntHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	sum := 0.0
	for v, c := range h.counts {
		sum += float64(float64(v) * float64(c))
	}
	return sum / float64(h.total)
}

// RNG is a deterministic random source. Two RNGs built from the same seed
// produce identical streams on every platform, which keeps all simulated
// experiments reproducible.
type RNG struct {
	*rand.Rand

	// perm is SampleWithoutReplacement's index table: perm[i] == i for
	// every i between calls, grown on demand.
	perm []int
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{Rand: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Fork derives an independent deterministic stream from this generator,
// labelled by id so that forks are order-independent.
func (r *RNG) Fork(id uint64) *RNG {
	return &RNG{Rand: rand.New(rand.NewPCG(r.Uint64()^id, id*0xbf58476d1ce4e5b9+1))}
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + float64(std*r.NormFloat64())
}

// Jitter returns a multiplicative noise factor with unit mean and the given
// coefficient of variation, clamped to stay positive.
func (r *RNG) Jitter(cv float64) float64 {
	f := r.Normal(1, cv)
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// SampleWithoutReplacement returns k distinct integers drawn uniformly from
// [0, n). It panics if k > n. The result is in random order.
//
// It runs a partial Fisher-Yates shuffle over the RNG's identity table and
// then puts the table back, so once the table has grown to n a call costs
// O(k) and allocates only its result.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("stats: cannot sample %d from %d", k, n))
	}
	for i := len(r.perm); i < n; i++ {
		r.perm = append(r.perm, i)
	}
	idx := r.perm[:n]
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = idx[i]
	}
	// Only positions below k and the positions of drawn values moved: a
	// value v >= k leaves its slot only when drawn.
	for i := 0; i < k; i++ {
		idx[i] = i
	}
	for _, v := range out {
		idx[v] = v
	}
	return out
}

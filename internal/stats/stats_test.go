package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSampleBasics(t *testing.T) {
	s := NewSample(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Std(); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("Std = %v, want %v", got, math.Sqrt(32.0/7.0))
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min = %v, want 2", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
	if got := s.N(); got != 8 {
		t.Errorf("N = %v, want 8", got)
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Errorf("empty sample should be all-zero: mean=%v var=%v n=%v", s.Mean(), s.Var(), s.N())
	}
	lo, hi := s.CI95()
	if lo != 0 || hi != 0 {
		t.Errorf("empty CI = (%v,%v), want (0,0)", lo, hi)
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Errorf("empty Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestPercentile(t *testing.T) {
	s := NewSample(1, 2, 3, 4, 5)
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCI95KnownValue(t *testing.T) {
	// n=5, mean=10, std=1 -> half width = 2.776/sqrt(5).
	s := NewSample(9, 9.5, 10, 10.5, 11)
	lo, hi := s.CI95()
	wantHalf := 2.776 * s.Std() / math.Sqrt(5)
	if !almostEqual(hi-lo, 2*wantHalf, 1e-9) {
		t.Errorf("CI width = %v, want %v", hi-lo, 2*wantHalf)
	}
	if !almostEqual((hi+lo)/2, 10, 1e-9) {
		t.Errorf("CI centre = %v, want 10", (hi+lo)/2)
	}
}

func TestTCritical95(t *testing.T) {
	if got := TCritical95(1); got != 12.706 {
		t.Errorf("t(1) = %v", got)
	}
	if got := TCritical95(30); got != 2.042 {
		t.Errorf("t(30) = %v", got)
	}
	if got := TCritical95(2000); got != 1.960 {
		t.Errorf("t(2000) = %v", got)
	}
	// Monotone non-increasing between table end and asymptote.
	prev := TCritical95(30)
	for df := 31; df < 200; df += 7 {
		cur := TCritical95(df)
		if cur > prev+1e-9 {
			t.Errorf("t(%d)=%v > t(prev)=%v; should decay", df, cur, prev)
		}
		prev = cur
	}
	if !math.IsNaN(TCritical95(0)) {
		t.Errorf("t(0) should be NaN")
	}
}

func TestOnlineMatchesSample(t *testing.T) {
	rng := NewRNG(7)
	var o Online
	var s Sample
	for i := 0; i < 1000; i++ {
		x := rng.Normal(42, 13)
		o.Add(x)
		s.Add(x)
	}
	if !almostEqual(o.Mean(), s.Mean(), 1e-9) {
		t.Errorf("online mean %v != sample mean %v", o.Mean(), s.Mean())
	}
	if !almostEqual(o.Var(), s.Var(), 1e-6) {
		t.Errorf("online var %v != sample var %v", o.Var(), s.Var())
	}
	if o.Min() != s.Min() || o.Max() != s.Max() {
		t.Errorf("online min/max %v/%v != %v/%v", o.Min(), o.Max(), s.Min(), s.Max())
	}
}

func TestIntHistogram(t *testing.T) {
	var h IntHistogram
	h.Add(0)
	h.Add(2)
	h.Add(2)
	h.AddN(5, 3)
	h.Add(-1) // ignored
	if h.Total() != 6 {
		t.Errorf("Total = %d, want 6", h.Total())
	}
	if h.Count(2) != 2 || h.Count(5) != 3 || h.Count(1) != 0 || h.Count(99) != 0 {
		t.Errorf("unexpected counts: %v", h.Counts())
	}
	if h.MaxValue() != 5 {
		t.Errorf("MaxValue = %d, want 5", h.MaxValue())
	}
	want := (0.0 + 2 + 2 + 15) / 6
	if !almostEqual(h.Mean(), want, 1e-12) {
		t.Errorf("Mean = %v, want %v", h.Mean(), want)
	}
}

func TestIntHistogramEmpty(t *testing.T) {
	var h IntHistogram
	if h.MaxValue() != -1 || h.Mean() != 0 || h.Total() != 0 {
		t.Errorf("empty histogram misbehaves: %d %v %d", h.MaxValue(), h.Mean(), h.Total())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
	c := NewRNG(124)
	same := 0
	a2 := NewRNG(123)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal values", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(9)
	f1 := r.Fork(1)
	r2 := NewRNG(9)
	f2 := r2.Fork(1)
	for i := 0; i < 50; i++ {
		if f1.Uint64() != f2.Uint64() {
			t.Fatalf("forks with same lineage diverged at %d", i)
		}
	}
}

func TestJitterPositiveAndCentred(t *testing.T) {
	r := NewRNG(5)
	var o Online
	for i := 0; i < 20000; i++ {
		j := r.Jitter(0.05)
		if j <= 0 {
			t.Fatalf("jitter produced non-positive factor %v", j)
		}
		o.Add(j)
	}
	if !almostEqual(o.Mean(), 1, 0.01) {
		t.Errorf("jitter mean = %v, want ~1", o.Mean())
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(11)
	got := r.SampleWithoutReplacement(480, 160)
	if len(got) != 160 {
		t.Fatalf("len = %d, want 160", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 480 {
			t.Fatalf("value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	r := NewRNG(3)
	got := r.SampleWithoutReplacement(10, 10)
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("full sample not a permutation: %v", got)
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for k > n")
		}
	}()
	NewRNG(1).SampleWithoutReplacement(3, 4)
}

// sampleReference is the allocate-per-call partial Fisher-Yates shuffle
// SampleWithoutReplacement must reproduce draw for draw.
func sampleReference(r *RNG, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = idx[i]
	}
	return out
}

func TestSampleWithoutReplacementMatchesReference(t *testing.T) {
	ns := []int{480, 7, 1, 160, 1000, 0, 32, 2048, 3}
	for seed := uint64(0); seed < 64; seed++ {
		got, want := NewRNG(seed), NewRNG(seed)
		for call := 0; call < 40; call++ {
			n := ns[(call+int(seed))%len(ns)]
			var k int
			switch call % 4 {
			case 0:
				k = 0
			case 1:
				k = min(1, n)
			case 2:
				k = n
			default:
				k = want.IntN(n + 1)
				got.IntN(n + 1)
			}
			a, b := got.SampleWithoutReplacement(n, k), sampleReference(want, n, k)
			if !slices.Equal(a, b) {
				t.Fatalf("seed %d call %d: sample(%d, %d) = %v, want %v", seed, call, n, k, a, b)
			}
			for i, v := range got.perm {
				if v != i {
					t.Fatalf("seed %d call %d: table not restored at %d (holds %d)", seed, call, i, v)
				}
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("seed %d: streams diverged", seed)
		}
	}
}

func TestSampleWithoutReplacementAllocs(t *testing.T) {
	r := NewRNG(5)
	if a := testing.AllocsPerRun(100, func() { r.SampleWithoutReplacement(480, 160) }); a != 1 {
		t.Errorf("SampleWithoutReplacement allocates %v times per call, want 1 (the result)", a)
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each of n items should appear with probability k/n.
	r := NewRNG(17)
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleWithoutReplacement(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.06*want {
			t.Errorf("item %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestPercentileQuickProperties(t *testing.T) {
	// Percentile must be within [min,max] and monotone in p.
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := &Sample{}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		p1 = math.Mod(math.Abs(p1), 1)
		p2 = math.Mod(math.Abs(p2), 1)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		q1, q2 := s.Percentile(p1), s.Percentile(p2)
		return q1 <= q2+1e-9 && q1 >= s.Min()-1e-9 && q2 <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCIContainsMeanProperty(t *testing.T) {
	f := func(raw []float64) bool {
		s := &Sample{}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
			s.Add(x)
		}
		lo, hi := s.CI95()
		m := s.Mean()
		return lo <= m+1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntHistogramAddNConstantTime(t *testing.T) {
	var h IntHistogram
	h.AddN(3, 1_000_000) // O(1): grows the slice once, bumps the bucket
	h.AddN(0, 2)
	h.AddN(-4, 7) // ignored: negative value
	h.AddN(9, 0)  // ignored: non-positive count
	h.AddN(9, -1) // ignored: non-positive count
	if h.Total() != 1_000_002 {
		t.Errorf("Total = %d, want 1000002", h.Total())
	}
	if h.Count(3) != 1_000_000 || h.Count(0) != 2 || h.Count(9) != 0 {
		t.Errorf("unexpected counts: 3->%d 0->%d 9->%d", h.Count(3), h.Count(0), h.Count(9))
	}
	if h.MaxValue() != 3 {
		t.Errorf("MaxValue = %d, want 3", h.MaxValue())
	}
}

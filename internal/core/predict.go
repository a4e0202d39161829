package core

import "math"

// This file extends the paper's metrics from load prediction (Equations
// 1-6) to bandwidth bounds. The paper stops at "load 3 begins to produce
// a noticeable overhead"; given a service curve for how an OST's
// aggregate capacity degrades with sharers, the same occupancy statistics
// yield upper and lower bounds on each job's achievable bandwidth. The
// simulator's measured values should fall between them — and the bounds
// themselves are useful standalone, e.g. for scheduler admission checks.

// ServiceCurve returns an OST's aggregate service capacity in MB/s when
// shared by k independent jobs.
type ServiceCurve func(k int) float64

// LinearThrashCurve builds the service curve used by pfsim's collective
// write class: base/(1+gamma*(k-1)).
func LinearThrashCurve(baseMBs, gamma float64) ServiceCurve {
	return func(k int) float64 {
		if k <= 1 {
			return baseMBs
		}
		return baseMBs / (1 + float64(gamma*float64(k-1)))
	}
}

// OnsetThrashCurve builds the superlinear curve of the log-append class:
// base/(1+gamma*max(0,k-onset)^exponent).
func OnsetThrashCurve(baseMBs, gamma, onset, exponent float64) ServiceCurve {
	return func(k int) float64 {
		x := float64(k) - onset
		if x <= 0 {
			return baseMBs
		}
		return baseMBs / (1 + float64(gamma*math.Pow(x, exponent)))
	}
}

// BandwidthBounds brackets a contended job's achievable bandwidth.
type BandwidthBounds struct {
	// UpperMBs assumes perfect overlap-tolerance: every one of the job's
	// OSTs delivers its expected fair share simultaneously and the job
	// pipelines across them (sum-of-shares), capped by the job's own
	// dispatch limit.
	UpperMBs float64
	// LowerMBs assumes strict convoy behaviour: the job drains at the
	// rate its most-contended OST sustains, scaled to the full stripe
	// width (tail-bound).
	LowerMBs float64
}

// PredictBandwidth bounds the bandwidth of one job striping over r of
// dtotal OSTs while n-1 identical jobs contend, given the OST service
// curve and the job's dispatch cap (<=0 for uncapped). The expectation
// over sharers uses the binomial occupancy of Equations 2-4.
func PredictBandwidth(dtotal, r, n int, curve ServiceCurve, jobCapMBs float64) BandwidthBounds {
	if r <= 0 || n <= 0 {
		return BandwidthBounds{}
	}
	p := float64(r) / float64(dtotal)
	// Sharer distribution of one of the job's OSTs: 1 + Binomial(n-1, p).
	expShare := 0.0
	for extra := 0; extra < n; extra++ {
		k := extra + 1
		prob := binomialPMF(n-1, extra, p)
		expShare += prob * curve(k) / float64(k)
	}
	upper := float64(r) * expShare
	// Tail: the worst OST among the job's r draws.
	kMax := expectedMaxSharersAmong(dtotal, r, n)
	lower := float64(r) * curve(kMax) / float64(kMax)
	if jobCapMBs > 0 {
		upper = math.Min(upper, jobCapMBs)
		lower = math.Min(lower, jobCapMBs)
	}
	if lower > upper {
		lower = upper
	}
	return BandwidthBounds{UpperMBs: upper, LowerMBs: lower}
}

// expectedMaxSharersAmong estimates the largest sharer count among the r
// OSTs of one job: the smallest k where the expected number of the job's
// OSTs with >= k sharers falls below one half.
func expectedMaxSharersAmong(dtotal, r, n int) int {
	p := float64(r) / float64(dtotal)
	for k := n; k >= 2; k-- {
		// P(one of the job's OSTs has >= k sharers) = P(Binomial(n-1,p) >= k-1).
		tail := 0.0
		for extra := k - 1; extra < n; extra++ {
			tail += binomialPMF(n-1, extra, p)
		}
		if float64(r)*tail >= 0.5 {
			return k
		}
	}
	return 1
}

// PredictPLFSBandwidth bounds an n-rank PLFS application's aggregate
// bandwidth: each rank is a 2-stripe job with a per-rank dispatch cap,
// and the application completes with its slowest rank (tail behaviour is
// not a bound but the expectation, per Section VI).
func PredictPLFSBandwidth(dtotal, ranks int, curve ServiceCurve, rankCapMBs float64) BandwidthBounds {
	if ranks <= 0 {
		return BandwidthBounds{}
	}
	perStreamCap := rankCapMBs / 2
	// Mean sharers per OST: Equation 6. Tail sharers: max over ~dtotal
	// Poisson-ish draws, approximated by mean + 3.2 sigma.
	mean := PLFSLoad(dtotal, ranks)
	sigma := math.Sqrt(mean)
	kTail := int(math.Ceil(mean + float64(3.2*sigma)))
	if kTail < 1 {
		kTail = 1
	}
	kMean := int(math.Round(mean))
	if kMean < 1 {
		kMean = 1
	}
	streamAt := func(k int) float64 {
		s := curve(k) / float64(k)
		if perStreamCap > 0 && s > perStreamCap {
			s = perStreamCap
		}
		return s
	}
	// Aggregate = ranks × 2 streams × per-stream rate, evaluated at the
	// mean (upper) and tail (lower) sharer counts.
	upper := float64(ranks) * 2 * streamAt(kMean)
	lower := float64(ranks) * 2 * streamAt(kTail)
	return BandwidthBounds{UpperMBs: upper, LowerMBs: lower}
}

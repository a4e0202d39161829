// Package core implements the contention metrics that are the primary
// contribution of Wright & Jarvis, "Quantifying the Effects of Contention on
// Parallel File Systems" (IPDPSW 2015).
//
// A Lustre file system exposes Dtotal object storage targets (OSTs). When a
// job creates a striped file the metadata server assigns it R OSTs chosen
// effectively at random, so concurrent jobs collide on a predictable number
// of targets. The package provides:
//
//   - Equations 1-4: expected number of OSTs in use (Dinuse), total demand
//     (Dreq) and average OST load (Dload) for n concurrent jobs;
//   - Equations 5-6: the same metrics specialised to PLFS, which writes one
//     2-stripe file per rank and therefore behaves like n contending jobs;
//   - exact occupancy distributions and Monte-Carlo assignment simulation
//     for collision histograms (Tables V, VIII and IX of the paper);
//   - quality-of-service helpers that quantify the availability /
//     performance trade-off studied in Section V.
package core

import (
	"fmt"
	"math"

	"pfsim/internal/stats"
)

// FileSystem describes the OST population of a parallel file system for the
// purposes of the contention metrics.
type FileSystem struct {
	// Name identifies the system in reports (e.g. "lscratchc").
	Name string
	// TotalOSTs is Dtotal: the number of object storage targets exposed.
	TotalOSTs int
	// MaxStripeCount is the largest stripe count a single file may use
	// (160 under Lustre 2.4.2, the version limit discussed in the paper).
	MaxStripeCount int
}

// Lscratchc returns the lscratchc file system studied in the paper:
// 480 OSTs behind 32 I/O servers, 160-OST stripe limit.
func Lscratchc() FileSystem {
	return FileSystem{Name: "lscratchc", TotalOSTs: 480, MaxStripeCount: 160}
}

// Stampede returns the Stampede I/O configuration from Behzad et al. [5]
// used for Table VI: 160 OSTs across 58 OSSs.
func Stampede() FileSystem {
	return FileSystem{Name: "stampede", TotalOSTs: 160, MaxStripeCount: 160}
}

// DinuseRecurrence evaluates Equation 1: given the per-job OST request sizes
// requests[0..n-1], it returns the expected number of distinct OSTs in use
// after each job has started. Element i of the result corresponds to
// Dinuse(i+1). Each new job adds its request minus the expected collisions
// with OSTs already in use.
func DinuseRecurrence(dtotal int, requests []int) []float64 {
	out := make([]float64, len(requests))
	inUse := 0.0
	for i, r := range requests {
		rj := float64(r)
		inUse = inUse + (rj - float64(inUse/float64(dtotal)*rj))
		out[i] = inUse
	}
	return out
}

// Dinuse evaluates Equation 2, the closed form of Equation 1 when every job
// requests the same number of OSTs R:
//
//	Dinuse = Dtotal - Dtotal*(1 - R/Dtotal)^n
func Dinuse(dtotal, r, n int) float64 {
	dt := float64(dtotal)
	return dt - float64(dt*math.Pow(1-float64(r)/dt, float64(n)))
}

// Dreq evaluates Equation 3: the total number of stripes requested by n jobs
// of R stripes each.
func Dreq(r, n int) int { return r * n }

// Dload evaluates Equation 4: the average load of each in-use OST — total
// requested stripes divided by the expected number of OSTs in use. A load of
// 1 means every in-use OST serves a single job; higher values quantify
// collisions.
func Dload(dtotal, r, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(Dreq(r, n)) / Dinuse(dtotal, r, n)
}

// PLFSDinuse evaluates Equation 5: PLFS creates one data file per rank, each
// striped over the Lustre default of 2 OSTs, so a single n-rank application
// behaves like n jobs with R = 2.
func PLFSDinuse(dtotal, ranks int) float64 { return Dinuse(dtotal, 2, ranks) }

// PLFSLoad evaluates Equation 6: the average OST load induced by an n-rank
// PLFS application.
func PLFSLoad(dtotal, ranks int) float64 {
	if ranks == 0 {
		return 0
	}
	return float64(2*ranks) / PLFSDinuse(dtotal, ranks)
}

// LoadRow is one line of the paper's load tables (Tables III, IV and VI):
// the metrics after n concurrent jobs have started.
type LoadRow struct {
	Jobs   int     // n
	Dinuse float64 // expected OSTs in use
	Dreq   int     // total stripes requested
	Dload  float64 // average load per in-use OST
}

// LoadTable computes rows for 1..maxJobs concurrent jobs each requesting r
// OSTs from fs, reproducing Tables III (R=160), IV (R=64) and VI (Stampede,
// R=128).
func LoadTable(fs FileSystem, r, maxJobs int) []LoadRow {
	rows := make([]LoadRow, 0, maxJobs)
	for n := 1; n <= maxJobs; n++ {
		rows = append(rows, LoadRow{
			Jobs:   n,
			Dinuse: Dinuse(fs.TotalOSTs, r, n),
			Dreq:   Dreq(r, n),
			Dload:  Dload(fs.TotalOSTs, r, n),
		})
	}
	return rows
}

// ExpectedUsageDistribution returns the expected number of OSTs used by
// exactly m of n jobs (m = 0..n) when each job independently receives r
// distinct OSTs out of dtotal. For a single OST the number of jobs using it
// is Binomial(n, r/dtotal); the result is that PMF scaled by dtotal. This is
// the analytic counterpart of the "OST Usage" columns of Table V.
func ExpectedUsageDistribution(dtotal, r, n int) []float64 {
	p := float64(r) / float64(dtotal)
	out := make([]float64, n+1)
	for m := 0; m <= n; m++ {
		out[m] = float64(dtotal) * binomialPMF(n, m, p)
	}
	return out
}

func binomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	// Use logarithms for numeric stability with large n (PLFS cases).
	lg := lnChoose(n, k) + float64(float64(k)*math.Log(p)) + float64(float64(n-k)*math.Log1p(-p))
	return math.Exp(lg)
}

func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	lgK, _ := math.Lgamma(float64(k + 1))
	lgNK, _ := math.Lgamma(float64(n - k + 1))
	return lgN - lgK - lgNK
}

// Assignment is one concrete random layout: for each job, the set of OSTs
// the metadata server granted it.
type Assignment struct {
	Dtotal int
	// JobOSTs[j] lists the OSTs assigned to job j (distinct within a job).
	JobOSTs [][]int
}

// Assign simulates the MDS assignment policy: each of n jobs receives r
// distinct OSTs drawn uniformly at random, independently of other jobs
// (matching lscratchc's create-time random placement). It panics if
// r > dtotal.
func Assign(rng *stats.RNG, dtotal, r, n int) Assignment {
	a := Assignment{Dtotal: dtotal, JobOSTs: make([][]int, n)}
	for j := 0; j < n; j++ {
		a.JobOSTs[j] = rng.SampleWithoutReplacement(dtotal, r)
	}
	return a
}

// AssignUneven is Assign for heterogeneous requests, one entry per job.
func AssignUneven(rng *stats.RNG, dtotal int, requests []int) Assignment {
	a := Assignment{Dtotal: dtotal, JobOSTs: make([][]int, len(requests))}
	for j, r := range requests {
		a.JobOSTs[j] = rng.SampleWithoutReplacement(dtotal, r)
	}
	return a
}

// SharersPerOST returns, for every OST, how many jobs include it in their
// layout.
func (a Assignment) SharersPerOST() []int {
	sharers := make([]int, a.Dtotal)
	for _, osts := range a.JobOSTs {
		for _, o := range osts {
			sharers[o]++
		}
	}
	return sharers
}

// InUse returns the number of distinct OSTs used by at least one job.
func (a Assignment) InUse() int {
	n := 0
	for _, s := range a.SharersPerOST() {
		if s > 0 {
			n++
		}
	}
	return n
}

// Load returns the realised average load: total stripes over OSTs in use.
func (a Assignment) Load() float64 {
	inUse := a.InUse()
	if inUse == 0 {
		return 0
	}
	total := 0
	for _, osts := range a.JobOSTs {
		total += len(osts)
	}
	return float64(total) / float64(inUse)
}

// UsageHistogram returns an IntHistogram over the number of sharers per OST
// counting only in-use OSTs, i.e. bucket m holds the number of OSTs used by
// exactly m jobs (m >= 1).
func (a Assignment) UsageHistogram() *stats.IntHistogram {
	h := &stats.IntHistogram{}
	for _, s := range a.SharersPerOST() {
		if s > 0 {
			h.Add(s)
		}
	}
	return h
}

// CollisionHistogram returns the paper's "collision" histogram used in
// Tables VIII and IX: bucket c holds the number of in-use OSTs that
// experience c collisions, where an OST holding s stripes experiences s-1
// collisions.
func (a Assignment) CollisionHistogram() *stats.IntHistogram {
	h := &stats.IntHistogram{}
	for _, s := range a.SharersPerOST() {
		if s > 0 {
			h.Add(s - 1)
		}
	}
	return h
}

// MonteCarloUsage repeats Assign trials times and returns the mean realised
// Dinuse, mean realised Dload, and mean per-sharers OST counts (index m =
// number of jobs sharing, starting at 0). It reproduces the "Actual" columns
// of Table V.
func MonteCarloUsage(rng *stats.RNG, dtotal, r, n, trials int) (meanInUse, meanLoad float64, meanBySharers []float64) {
	if trials <= 0 {
		return 0, 0, nil
	}
	sums := make([]float64, n+1)
	for t := 0; t < trials; t++ {
		a := Assign(rng.Fork(uint64(t)), dtotal, r, n)
		inUse := a.InUse()
		meanInUse += float64(inUse)
		meanLoad += a.Load()
		counts := make([]int, n+1)
		for _, s := range a.SharersPerOST() {
			if s <= n {
				counts[s]++
			} else {
				counts[n]++
			}
		}
		for m := 0; m <= n; m++ {
			sums[m] += float64(counts[m])
		}
	}
	f := float64(trials)
	for m := range sums {
		sums[m] /= f
	}
	return meanInUse / f, meanLoad / f, sums
}

// PLFSAssignment simulates the backend layout of an n-rank PLFS run: each
// rank's data file receives 2 distinct OSTs at random (the system default
// layout observed in the paper).
func PLFSAssignment(rng *stats.RNG, dtotal, ranks int) Assignment {
	return Assign(rng, dtotal, 2, ranks)
}

// Validate reports an error if the file system description or request is
// inconsistent (non-positive sizes, request exceeding the stripe limit or
// the OST population).
func (fs FileSystem) Validate(r int) error {
	if fs.TotalOSTs <= 0 {
		return fmt.Errorf("core: %s has no OSTs", fs.Name)
	}
	if r <= 0 {
		return fmt.Errorf("core: request of %d OSTs is not positive", r)
	}
	if r > fs.TotalOSTs {
		return fmt.Errorf("core: request of %d OSTs exceeds population %d", r, fs.TotalOSTs)
	}
	if fs.MaxStripeCount > 0 && r > fs.MaxStripeCount {
		return fmt.Errorf("core: request of %d OSTs exceeds stripe limit %d", r, fs.MaxStripeCount)
	}
	return nil
}

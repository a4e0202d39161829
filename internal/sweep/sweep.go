// Package sweep searches the Lustre configuration space for optimal IOR
// bandwidth: the exhaustive grid search used in Section IV of the paper
// (stripe count × stripe size, Figure 1) and, as an extension, the
// genetic-algorithm tuner of Behzad et al. [5] that the paper cites as
// its inspiration.
package sweep

import (
	"context"
	"fmt"
	"sort"

	"pfsim/internal/cluster"
	"pfsim/internal/ior"
	"pfsim/internal/pool"
	"pfsim/internal/stats"
	"pfsim/internal/workload"
)

// Point is one sampled configuration with its measured bandwidth.
type Point struct {
	StripeCount  int
	StripeSizeMB float64
	MBs          float64
}

// Grid is the result of an exhaustive sweep.
type Grid struct {
	Counts  []int
	SizesMB []float64
	// MBs[i][j] is the bandwidth at Counts[i] × SizesMB[j].
	MBs [][]float64
	// Work sums the simulations the sweep ran, one per point.
	Work workload.Work

	setup setup // what every point was measured under
}

// Best returns the best-performing grid point.
func (g *Grid) Best() Point {
	best := Point{MBs: -1}
	for i, c := range g.Counts {
		for j, s := range g.SizesMB {
			if g.MBs[i][j] > best.MBs {
				best = Point{StripeCount: c, StripeSizeMB: s, MBs: g.MBs[i][j]}
			}
		}
	}
	return best
}

// At returns the bandwidth at a grid coordinate.
func (g *Grid) At(count int, sizeMB float64) (float64, bool) {
	for i, c := range g.Counts {
		if c != count {
			continue
		}
		for j, s := range g.SizesMB {
			if s == sizeMB {
				return g.MBs[i][j], true
			}
		}
	}
	return 0, false
}

// Options configures a sweep run.
type Options struct {
	// Tasks is the IOR process count (the paper uses 1,024).
	Tasks int
	// Reps per configuration (the sweep uses fewer than headline runs).
	Reps int
	// Base overrides the IOR workload (zero value: Table II settings).
	Base *ior.Config

	// Parallelism fans independent grid points across this many workers
	// (1 = serial; values below one select GOMAXPROCS). Every point is an
	// isolated deterministic simulation, so results are byte-identical at
	// any parallelism.
	Parallelism int
	// Ctx aborts the sweep between points when cancelled (nil = never).
	Ctx context.Context
	// Progress, when set, is called after each completed point with the
	// running and total point counts. Calls are serialised.
	Progress func(done, total int)
	// Seed overrides the platform RNG seed for every measurement (0 keeps
	// the platform seed).
	Seed uint64
}

// setup is what a measured bandwidth depends on besides its grid point:
// the platform, reseeded as Options.Seed asks, and the IOR configuration
// that measure names and stripes per point.
type setup struct {
	plat cluster.Platform
	cfg  ior.Config
}

func (o Options) setup(plat *cluster.Platform) setup {
	su := setup{plat: *plat}
	if o.Seed != 0 {
		su.plat.Seed = o.Seed
	}
	if o.Base != nil {
		su.cfg = *o.Base
	} else {
		su.cfg = ior.PaperConfig(o.Tasks)
	}
	su.cfg.Reps = o.Reps
	su.cfg.Label = ""
	su.cfg.Hints.StripingFactor, su.cfg.Hints.StripingUnitMB = 0, 0
	return su
}

// Exhaustive measures every (count, size) combination — the search of
// Section IV. Each grid point is an independent deterministic simulation;
// with opt.Parallelism != 1 the points fan across a worker pool and the
// resulting grid is byte-identical to a serial sweep.
func Exhaustive(plat *cluster.Platform, counts []int, sizesMB []float64, opt Options) (*Grid, error) {
	if opt.Tasks <= 0 {
		return nil, fmt.Errorf("sweep: Tasks must be positive")
	}
	if opt.Reps <= 0 {
		opt.Reps = 1
	}
	g := &Grid{Counts: counts, SizesMB: sizesMB, MBs: make([][]float64, len(counts)), setup: opt.setup(plat)}
	for i := range counts {
		g.MBs[i] = make([]float64, len(sizesMB))
	}
	total := len(counts) * len(sizesMB)
	if total == 0 {
		return g, nil
	}
	works := make([]workload.Work, total)
	tick := pool.Progress(total, opt.Progress)
	err := pool.Run(opt.Ctx, opt.Parallelism, total, func(k int) error {
		i, j := k/len(sizesMB), k%len(sizesMB)
		bw, w, err := g.setup.measure(counts[i], sizesMB[j])
		if err != nil {
			return err
		}
		g.MBs[i][j], works[k] = bw, w
		tick()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, w := range works {
		g.Work.Add(w)
	}
	return g, nil
}

// measure simulates one grid point and returns its mean write bandwidth
// and the simulation's work.
func (su *setup) measure(count int, sizeMB float64) (float64, workload.Work, error) {
	cfg := su.cfg
	cfg.Label = fmt.Sprintf("sweep-c%d-s%g", count, sizeMB)
	cfg.Hints.StripingFactor = count
	cfg.Hints.StripingUnitMB = sizeMB
	res, err := workload.RunScenario(&su.plat, workload.Solo(cfg), 0)
	if err != nil {
		return 0, workload.Work{}, fmt.Errorf("sweep: %d×%gMB: %w", count, sizeMB, err)
	}
	return res.Jobs[0].IOR.Write.Mean(), res.Work, nil
}

// GAOptions tunes the genetic search.
type GAOptions struct {
	Options
	// Population size per generation (Behzad et al. use small populations
	// of tens of individuals).
	Population int
	// Generations to evolve.
	Generations int
	// MutationRate is the per-gene mutation probability.
	MutationRate float64
	// Seed makes the search deterministic.
	Seed uint64
	// Counts/SizesMB are the gene alphabets (defaults: powers of two up
	// to the platform limits).
	Counts  []int
	SizesMB []float64
	// Grid optionally holds points already measured by Exhaustive under
	// the same Options (platform, seed, tasks, repetitions and base
	// configuration; Genetic returns an error for a grid measured under
	// others). A genome on the grid takes its bandwidth from it instead
	// of being simulated again, and still counts in Evaluations.
	Grid *Grid
}

func (o *GAOptions) defaults(plat *cluster.Platform) {
	if o.Population <= 0 {
		o.Population = 8
	}
	if o.Generations <= 0 {
		o.Generations = 5
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.2
	}
	if len(o.Counts) == 0 {
		for c := 1; c <= plat.MaxStripeCount; c *= 2 {
			o.Counts = append(o.Counts, c)
		}
		if last := o.Counts[len(o.Counts)-1]; last != plat.MaxStripeCount {
			o.Counts = append(o.Counts, plat.MaxStripeCount)
		}
	}
	if len(o.SizesMB) == 0 {
		for s := 1.0; s <= 256; s *= 2 {
			o.SizesMB = append(o.SizesMB, s)
		}
	}
	if o.Reps <= 0 {
		o.Reps = 1
	}
}

// GAResult reports the evolved best point and the evaluation count, for
// comparing search cost against the exhaustive sweep.
type GAResult struct {
	Best        Point
	Evaluations int
	// History holds the best bandwidth after each generation.
	History []float64
	// Work sums the simulations the search ran: one per evaluated
	// genome that GAOptions.Grid did not hold.
	Work workload.Work
}

// Genetic runs a small genetic algorithm over the configuration space, in
// the spirit of Behzad et al. [5]: tournament selection, single-point
// crossover on the (count, size) genome, per-gene mutation. Fitness
// evaluations are memoised, so Evaluations counts distinct evaluated
// configurations, taken from GAOptions.Grid where it holds them and
// simulated otherwise.
func Genetic(plat *cluster.Platform, opt GAOptions) (*GAResult, error) {
	if opt.Tasks <= 0 {
		return nil, fmt.Errorf("sweep: Tasks must be positive")
	}
	opt.defaults(plat)
	su := opt.setup(plat)
	if opt.Grid != nil && opt.Grid.setup != su {
		return nil, fmt.Errorf("sweep: the GA's grid was measured under other options")
	}
	rng := stats.NewRNG(opt.Seed + 0x6a)
	type genome struct{ ci, si int }
	cache := map[genome]float64{}
	res := &GAResult{Best: Point{MBs: -1}}

	// evaluate fills the memo cache for every distinct unseen genome in
	// pop: from the grid where it holds the point, otherwise by fanning
	// the independent simulations across the worker pool. Cache contents
	// (and so Evaluations) do not depend on ordering.
	evaluate := func(pop []genome) error {
		var fresh []genome
		for _, g := range pop {
			if _, ok := cache[g]; ok {
				continue
			}
			res.Evaluations++
			if opt.Grid != nil {
				if bw, ok := opt.Grid.At(opt.Counts[g.ci], opt.SizesMB[g.si]); ok {
					cache[g] = bw
					continue
				}
			}
			cache[g] = 0 // claimed; the simulation below fills it in
			fresh = append(fresh, g)
		}
		bws := make([]float64, len(fresh))
		works := make([]workload.Work, len(fresh))
		err := pool.Run(opt.Ctx, opt.Parallelism, len(fresh), func(i int) error {
			bw, w, err := su.measure(opt.Counts[fresh[i].ci], opt.SizesMB[fresh[i].si])
			bws[i], works[i] = bw, w
			return err
		})
		if err != nil {
			return err
		}
		for i, g := range fresh {
			cache[g] = bws[i]
			res.Work.Add(works[i])
		}
		return nil
	}

	pop := make([]genome, opt.Population)
	for i := range pop {
		pop[i] = genome{rng.IntN(len(opt.Counts)), rng.IntN(len(opt.SizesMB))}
	}
	for gen := 0; gen < opt.Generations; gen++ {
		if err := evaluate(pop); err != nil {
			return nil, err
		}
		scores := make([]float64, len(pop))
		for i, g := range pop {
			bw := cache[g]
			scores[i] = bw
			if bw > res.Best.MBs {
				res.Best = Point{
					StripeCount:  opt.Counts[g.ci],
					StripeSizeMB: opt.SizesMB[g.si],
					MBs:          bw,
				}
			}
		}
		res.History = append(res.History, res.Best.MBs)
		// Tournament selection + crossover + mutation.
		next := make([]genome, 0, len(pop))
		// Elitism: keep the best individual.
		bestIdx := 0
		for i, s := range scores {
			if s > scores[bestIdx] {
				bestIdx = i
			}
		}
		next = append(next, pop[bestIdx])
		tournament := func() genome {
			a, b := rng.IntN(len(pop)), rng.IntN(len(pop))
			if scores[a] >= scores[b] {
				return pop[a]
			}
			return pop[b]
		}
		for len(next) < len(pop) {
			pa, pb := tournament(), tournament()
			child := genome{pa.ci, pb.si} // single-point crossover
			if rng.Float64() < opt.MutationRate {
				child.ci = rng.IntN(len(opt.Counts))
			}
			if rng.Float64() < opt.MutationRate {
				child.si = rng.IntN(len(opt.SizesMB))
			}
			next = append(next, child)
		}
		pop = next
	}
	return res, nil
}

// CountsUpTo returns the paper's Figure 1 stripe-count axis for a
// platform: powers of two from 8, capped and terminated at the stripe
// limit.
func CountsUpTo(plat *cluster.Platform) []int {
	var out []int
	for c := 8; c < plat.MaxStripeCount; c *= 2 {
		out = append(out, c)
	}
	out = append(out, plat.MaxStripeCount)
	sort.Ints(out)
	return out
}

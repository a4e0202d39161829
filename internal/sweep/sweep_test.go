package sweep

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/ior"
)

func quietCab() *cluster.Platform {
	p := cluster.Cab()
	p.JitterCV = 0
	return p
}

// smallBase keeps sweep tests fast: fewer segments, fewer tasks.
func smallBase(tasks int) *ior.Config {
	cfg := ior.PaperConfig(tasks)
	cfg.SegmentCount = 10
	cfg.Reps = 1
	return &cfg
}

func TestExhaustiveFindsPaperOptimum(t *testing.T) {
	plat := quietCab()
	counts := []int{8, 32, 64, 128, 160}
	sizes := []float64{1, 32, 64, 128, 256}
	g, err := Exhaustive(plat, counts, sizes, Options{
		Tasks: 1024, Reps: 1, Base: smallBase(1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	best := g.Best()
	if best.StripeCount != 160 || best.StripeSizeMB != 128 {
		t.Errorf("best = %d × %v MB, paper found 160 × 128 MB (%.0f MB/s grid)",
			best.StripeCount, best.StripeSizeMB, best.MBs)
	}
	// The 1 MB column must be far below the optimum at max stripe count.
	oneMB, ok := g.At(160, 1)
	if !ok {
		t.Fatal("grid missing 160×1")
	}
	if oneMB > best.MBs/2 {
		t.Errorf("160×1MB (%.0f) should trail the optimum (%.0f) badly", oneMB, best.MBs)
	}
}

func TestExhaustiveMonotoneInCount(t *testing.T) {
	plat := quietCab()
	g, err := Exhaustive(plat, []int{8, 16, 32, 64}, []float64{128}, Options{
		Tasks: 1024, Reps: 1, Base: smallBase(1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, c := range g.Counts {
		if g.MBs[i][0] <= prev {
			t.Errorf("count %d: %.0f MB/s not above previous %.0f", c, g.MBs[i][0], prev)
		}
		prev = g.MBs[i][0]
	}
}

func TestGridAt(t *testing.T) {
	g := &Grid{Counts: []int{2, 4}, SizesMB: []float64{1, 2},
		MBs: [][]float64{{10, 20}, {30, 40}}}
	if v, ok := g.At(4, 2); !ok || v != 40 {
		t.Errorf("At(4,2) = %v,%v", v, ok)
	}
	if _, ok := g.At(3, 1); ok {
		t.Error("At(3,1) should miss")
	}
	if _, ok := g.At(2, 7); ok {
		t.Error("At(2,7) should miss")
	}
	best := g.Best()
	if best.StripeCount != 4 || best.StripeSizeMB != 2 || best.MBs != 40 {
		t.Errorf("Best = %+v", best)
	}
}

func TestExhaustiveValidation(t *testing.T) {
	if _, err := Exhaustive(quietCab(), []int{2}, []float64{1}, Options{}); err == nil {
		t.Error("zero tasks accepted")
	}
}

func TestExhaustiveParallelMatchesSerial(t *testing.T) {
	plat := cluster.Cab() // jitter on: identity must survive randomness
	counts := []int{8, 32, 64, 160}
	sizes := []float64{1, 64, 128}
	run := func(par int) *Grid {
		var mu sync.Mutex
		calls := 0
		g, err := Exhaustive(plat, counts, sizes, Options{
			Tasks: 256, Reps: 1, Base: smallBase(256), Parallelism: par,
			Progress: func(done, total int) {
				mu.Lock()
				calls++
				mu.Unlock()
				if total != len(counts)*len(sizes) {
					t.Errorf("progress total = %d", total)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(counts)*len(sizes) {
			t.Errorf("progress calls = %d", calls)
		}
		return g
	}
	serial, parallel := run(1), run(8)
	for i := range counts {
		for j := range sizes {
			if serial.MBs[i][j] != parallel.MBs[i][j] {
				t.Fatalf("grid[%d][%d]: %v != %v", i, j, serial.MBs[i][j], parallel.MBs[i][j])
			}
		}
	}
}

func TestExhaustiveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := Exhaustive(quietCab(), []int{8, 16, 32, 64}, []float64{1, 64}, Options{
		Tasks: 64, Reps: 1, Base: smallBase(64), Parallelism: 1, Ctx: ctx,
		Progress: func(done, total int) {
			ran = done
			if done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran > 2 {
		t.Errorf("%d points ran after cancellation", ran)
	}
}

func TestGeneticParallelMatchesSerial(t *testing.T) {
	plat := quietCab()
	run := func(par int) *GAResult {
		res, err := Genetic(plat, GAOptions{
			Options:     Options{Tasks: 64, Reps: 1, Base: smallBase(64), Parallelism: par},
			Population:  4,
			Generations: 3,
			Seed:        7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if serial.Best != parallel.Best || serial.Evaluations != parallel.Evaluations {
		t.Errorf("GA diverges under parallelism: %+v vs %+v", serial, parallel)
	}
}

func TestGeneticFindsGoodConfig(t *testing.T) {
	plat := quietCab()
	res, err := Genetic(plat, GAOptions{
		Options:     Options{Tasks: 256, Reps: 1, Base: smallBase(256)},
		Population:  6,
		Generations: 4,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The GA should find a configuration well above the default (~313) and
	// use fewer evaluations than the 13×9 full grid.
	if res.Best.MBs < 2000 {
		t.Errorf("GA best = %.0f MB/s, should comfortably beat the default", res.Best.MBs)
	}
	if res.Evaluations >= 13*9 {
		t.Errorf("GA used %d evaluations, should be below the full grid", res.Evaluations)
	}
	if len(res.History) != 4 {
		t.Errorf("history length = %d", len(res.History))
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1] {
			t.Error("GA best-so-far must be non-decreasing (elitism)")
		}
	}
}

func TestGeneticDeterministic(t *testing.T) {
	plat := quietCab()
	run := func() Point {
		res, err := Genetic(plat, GAOptions{
			Options:     Options{Tasks: 64, Reps: 1, Base: smallBase(64)},
			Population:  4,
			Generations: 2,
			Seed:        7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Best
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("GA not deterministic: %+v vs %+v", a, b)
	}
}

func TestGeneticValidation(t *testing.T) {
	if _, err := Genetic(quietCab(), GAOptions{}); err == nil {
		t.Error("zero tasks accepted")
	}
}

func TestCountsUpTo(t *testing.T) {
	got := CountsUpTo(quietCab())
	want := []int{8, 16, 32, 64, 128, 160}
	if len(got) != len(want) {
		t.Fatalf("counts = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counts[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestGeneticReadsMatchingGrid: given the grid an exhaustive sweep
// measured under the same options, the GA simulates only the genomes the
// grid lacks and otherwise finds exactly what it finds alone: the same
// best point, history and evaluation count. A grid measured under other
// options is refused.
func TestGeneticReadsMatchingGrid(t *testing.T) {
	plat := quietCab()
	opt := Options{Tasks: 64, Reps: 1, Base: smallBase(64), Parallelism: 2}
	counts, sizes := []int{8, 16, 32, 64}, []float64{1, 16, 64}
	ga := func(grid *Grid) (*GAResult, error) {
		return Genetic(plat, GAOptions{Options: opt, Population: 6, Generations: 3, Seed: 3,
			Counts: counts, SizesMB: sizes, Grid: grid})
	}
	alone, err := ga(nil)
	if err != nil {
		t.Fatal(err)
	}
	if alone.Work.Simulations != alone.Evaluations {
		t.Errorf("alone: %d simulations for %d evaluations", alone.Work.Simulations, alone.Evaluations)
	}
	// The grid lacks the 64-stripe row, which the GA then simulates.
	grid, err := Exhaustive(plat, counts[:3], sizes, opt)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Work.Simulations != 9 {
		t.Errorf("a 3×3 sweep reports %d simulations", grid.Work.Simulations)
	}
	seeded, err := ga(grid)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Best != alone.Best || seeded.Evaluations != alone.Evaluations ||
		!slices.Equal(seeded.History, alone.History) {
		t.Errorf("with the grid the GA found %+v, alone %+v", seeded, alone)
	}
	t.Logf("%d evaluations: %d simulated alone, %d beside the grid", alone.Evaluations,
		alone.Work.Simulations, seeded.Work.Simulations)
	if got := seeded.Work.Simulations; got == 0 || got >= alone.Work.Simulations {
		t.Errorf("with the grid the GA simulated %d genomes, alone %d; want some, and fewer", got, alone.Work.Simulations)
	}
	for _, off := range []struct {
		what string
		opt  func(*Options)
	}{
		{"reps", func(o *Options) { o.Reps = 2 }},
		{"seed", func(o *Options) { o.Seed = 99 }},
		{"base config", func(o *Options) { o.Base = smallBase(64); o.Base.SegmentCount = 11 }},
	} {
		other := opt
		off.opt(&other)
		g, err := Exhaustive(plat, counts[:1], sizes[:1], other)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ga(g); err == nil {
			t.Errorf("a grid measured with other %s accepted", off.what)
		}
	}
	if _, err := ga(&Grid{Counts: counts, SizesMB: sizes}); err == nil {
		t.Error("a grid Exhaustive did not measure accepted")
	}
}

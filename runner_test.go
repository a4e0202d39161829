package pfsim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// fastIOR keeps runner tests quick.
func fastIOR(label string, tasks int) IORConfig {
	cfg := TunedIOR(tasks)
	cfg.Label = label
	cfg.SegmentCount = 5
	cfg.Reps = 1
	return cfg
}

func TestRunnerHeterogeneousScenario(t *testing.T) {
	plat := Cab()
	plat.JitterCV = 0 // isolate contention from service noise
	// The interference case the paper never measures: a 1,024-rank PLFS
	// logger floods every OST (load ≈ 4.3, Equation 6) while a 1,024-rank
	// 160-stripe collective writer — OST-bound at this scale — shares the
	// file system. The writer starts at t=30s so it lands in the logger's
	// data phase (the PLFS open storm occupies the first seconds) and must
	// report a strong slowdown.
	writer := fastIOR("striped", 1024)
	writer.SegmentCount = 10
	sc := NewScenario("hetero",
		ScenarioJob{Workload: IORWorkload(writer), Stripes: 160, StripeSizeMB: 128, StartAt: 30},
		ScenarioJob{Workload: PLFSWorkload(1024, 400)},
	)
	res, err := NewRunner().RunScenario(plat, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	for i := range res.Jobs {
		if res.Jobs[i].WriteMBs() <= 0 {
			t.Errorf("job %d: no bandwidth", i)
		}
		if res.Jobs[i].SoloMBs <= 0 || res.Jobs[i].Slowdown <= 0 {
			t.Errorf("job %d: slowdown not reported (solo=%v slowdown=%v)",
				i, res.Jobs[i].SoloMBs, res.Jobs[i].Slowdown)
		}
	}
	if sd := res.Job("striped").Slowdown; sd < 2 {
		t.Errorf("striped writer slowdown = %v, want heavy degradation from the logger", sd)
	}
	agg := res.Aggregate()
	if agg.MaxSlowdown < agg.MeanSlowdown || agg.MeanSlowdown <= 0 {
		t.Errorf("aggregate slowdowns wrong: %+v", agg)
	}
}

func TestRunnerScenarioDeterministicForSeed(t *testing.T) {
	plat := Cab() // jitter on: determinism must survive randomness
	sc := NewScenario("det",
		ScenarioJob{Workload: IORWorkload(fastIOR("a", 64))},
		ScenarioJob{Workload: PLFSWorkload(128, 10)},
	)
	run := func(par int) *ScenarioResult {
		res, err := NewRunner(WithSeed(42), WithParallelism(par)).RunScenario(plat, sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	for i := range a.Jobs {
		av, bv := a.Jobs[i].IOR.Write.Values(), b.Jobs[i].IOR.Write.Values()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("job %d rep %d: parallelism changed the result (%v != %v)",
					i, j, av[j], bv[j])
			}
		}
		if a.Jobs[i].Slowdown != b.Jobs[i].Slowdown {
			t.Fatalf("job %d: slowdown differs across parallelism", i)
		}
	}
}

func TestRunnerSweepParallelismInvariant(t *testing.T) {
	plat := Cab()
	base := fastIOR("sweep", 256)
	opt := SweepOptions{Tasks: 256, Reps: 1, Base: &base}
	counts := []int{8, 32, 64, 160}
	sizes := []float64{1, 64, 128}
	serial, err := NewRunner(WithParallelism(1)).Sweep(plat, counts, sizes, opt)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(WithParallelism(8)).Sweep(plat, counts, sizes, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		for j := range sizes {
			if serial.MBs[i][j] != parallel.MBs[i][j] {
				t.Fatalf("grid[%d][%d]: serial %v != parallel %v",
					i, j, serial.MBs[i][j], parallel.MBs[i][j])
			}
		}
	}
	if serial.Best() != parallel.Best() {
		t.Error("best points differ")
	}
}

func TestRunnerSweepHonoursSeed(t *testing.T) {
	plat := Cab()
	base := fastIOR("seeded", 64)
	opt := SweepOptions{Tasks: 64, Reps: 1, Base: &base}
	counts, sizes := []int{8, 32}, []float64{64}
	a, err := NewRunner(WithSeed(11)).Sweep(plat, counts, sizes, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(WithSeed(11)).Sweep(plat, counts, sizes, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRunner(WithSeed(12)).Sweep(plat, counts, sizes, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.MBs[0][0] != b.MBs[0][0] || a.MBs[1][0] != b.MBs[1][0] {
		t.Error("same seed must reproduce the grid")
	}
	if a.MBs[0][0] == c.MBs[0][0] && a.MBs[1][0] == c.MBs[1][0] {
		t.Error("WithSeed had no effect on the sweep")
	}
}

func TestRunnerContextCancelsSweep(t *testing.T) {
	plat := Cab()
	base := fastIOR("cancel", 64)
	ctx, cancel := context.WithCancel(context.Background())
	points := 0
	r := NewRunner(WithContext(ctx), WithParallelism(1), WithProgress(func(done, total int) {
		points = done
		if done == 1 {
			cancel()
		}
	}))
	counts := []int{8, 16, 32, 64, 128, 160}
	sizes := []float64{1, 32, 64, 128, 256}
	start := time.Now()
	_, err := r.Sweep(plat, counts, sizes, SweepOptions{Tasks: 64, Reps: 1, Base: &base})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if points >= len(counts)*len(sizes)-1 {
		t.Errorf("cancellation not prompt: %d of %d points ran", points, len(counts)*len(sizes))
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancel took %v", elapsed)
	}
	// A pre-cancelled context refuses scenario work immediately.
	if _, err := r.RunScenario(plat, UniformScenario("x", IORWorkload(base), 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("RunScenario on cancelled ctx: %v", err)
	}
	if _, err := r.RunIOR(plat, base); !errors.Is(err, context.Canceled) {
		t.Errorf("RunIOR on cancelled ctx: %v", err)
	}
	if _, err := r.RunContended(plat, base, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContended on cancelled ctx: %v", err)
	}
}

func TestRunnerWrappersMatchClassicPaths(t *testing.T) {
	plat := Cab()
	cfg := fastIOR("wrap", 64)
	a, err := RunIOR(plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(WithParallelism(8), WithoutSlowdowns()).RunIOR(plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Write.Mean() != b.Write.Mean() {
		t.Errorf("wrapper diverges from Runner path: %v != %v", a.Write.Mean(), b.Write.Mean())
	}
	jobs, err := RunContended(plat, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("contended jobs = %d", len(jobs))
	}
	for i, j := range jobs {
		if j.Write.Mean() <= 0 {
			t.Errorf("job %d: no bandwidth", i)
		}
	}
}

func TestRunnerProgress(t *testing.T) {
	plat := Cab()
	base := fastIOR("prog", 64)
	var calls []int
	var lastTotal int
	r := NewRunner(WithParallelism(1), WithProgress(func(done, total int) {
		calls = append(calls, done)
		lastTotal = total
	}))
	if _, err := r.Sweep(plat, []int{8, 16}, []float64{64}, SweepOptions{Tasks: 64, Reps: 1, Base: &base}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[len(calls)-1] != 2 || lastTotal != 2 {
		t.Errorf("progress calls = %v (total %d), want [1 2] of 2", calls, lastTotal)
	}
}

func TestRunnerRepeat(t *testing.T) {
	plat := Cab()
	sc := UniformScenario("rep", IORWorkload(fastIOR("r", 64)), 2)
	run := func(par int) []*ScenarioResult {
		out, err := NewRunner(WithParallelism(par), WithoutSlowdowns()).Repeat(plat, sc, 3)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(8)
	if len(a) != 3 {
		t.Fatalf("replicas = %d", len(a))
	}
	for i := range a {
		if a[i].Jobs[0].WriteMBs() != b[i].Jobs[0].WriteMBs() {
			t.Fatalf("replica %d differs across parallelism", i)
		}
	}
	// Replicas use distinct seeds, so their draws must differ.
	if a[0].Jobs[0].WriteMBs() == a[1].Jobs[0].WriteMBs() {
		t.Error("replicas identical; seeds not advancing")
	}
	if _, err := NewRunner().Repeat(plat, sc, 0); err == nil {
		t.Error("zero repetitions accepted")
	}
}

func TestRunnerRunScenarios(t *testing.T) {
	plat := Cab()
	scs := []Scenario{
		UniformScenario("two", IORWorkload(fastIOR("u", 64)), 2),
		NewScenario("one", ScenarioJob{Workload: PLFSWorkload(64, 10)}),
	}
	out, err := NewRunner(WithoutSlowdowns(), WithParallelism(4)).RunScenarios(plat, scs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out[0].Jobs) != 2 || len(out[1].Jobs) != 1 {
		t.Fatalf("shape wrong: %d scenarios", len(out))
	}
}

func TestRunnerProgressMonotonicAcrossPhases(t *testing.T) {
	// One Runner call spans two internal phases: the contended scenario
	// pass and the solo-baseline pass. Progress must be one monotonic
	// (done, total) series over the combined units — an earlier revision
	// restarted the count at each phase, so bars jumped backwards.
	plat := Cab()
	scs := []Scenario{
		NewScenario("p1", ScenarioJob{Workload: IORWorkload(fastIOR("pa", 32))}),
		NewScenario("p2", ScenarioJob{Workload: IORWorkload(fastIOR("pb", 64))}),
	}
	type call struct{ done, total int }
	var calls []call
	r := NewRunner(WithParallelism(1), WithProgress(func(done, total int) {
		calls = append(calls, call{done, total})
	}))
	if _, err := r.RunScenarios(plat, scs); err != nil {
		t.Fatal(err)
	}
	// 2 scenario units + 2 distinct solo baselines = 4 units.
	if len(calls) != 4 {
		t.Fatalf("progress calls = %v, want 4 entries", calls)
	}
	for i, c := range calls {
		if c.done != i+1 {
			t.Errorf("call %d: done = %d, want %d (monotonic)", i, c.done, i+1)
		}
		if c.done > c.total {
			t.Errorf("call %d: done %d exceeds total %d", i, c.done, c.total)
		}
	}
	if last := calls[len(calls)-1]; last.done != last.total {
		t.Errorf("final call %+v: done != total", last)
	}
}

func TestRunnerRunScenarioProgressIncludesBaselines(t *testing.T) {
	plat := Cab()
	sc := NewScenario("single", ScenarioJob{Workload: IORWorkload(fastIOR("solo", 32))})
	var dones []int
	lastTotal := 0
	r := NewRunner(WithParallelism(1), WithProgress(func(done, total int) {
		dones = append(dones, done)
		lastTotal = total
	}))
	if _, err := r.RunScenario(plat, sc); err != nil {
		t.Fatal(err)
	}
	// 1 scenario + 1 baseline, counted as one series.
	if len(dones) != 2 || dones[0] != 1 || dones[1] != 2 || lastTotal != 2 {
		t.Errorf("progress = %v (total %d), want [1 2] of 2", dones, lastTotal)
	}
}

// TestRunnerCancelMidSweepDrainsWorkers cancels a parallel sweep from
// inside its progress callback and asserts the Runner honours the
// contract WithContext documents: the partial grid is discarded (no
// result object escapes), the worker pool drains before Sweep returns
// (no goroutines leak), and the same Runner refuses further work while
// its context stays cancelled.
func TestRunnerCancelMidSweepDrainsWorkers(t *testing.T) {
	plat := Cab()
	base := fastIOR("drain", 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	r := NewRunner(WithContext(ctx), WithParallelism(4), WithProgress(func(done, total int) {
		if done == 2 {
			cancel()
		}
	}))
	counts := []int{8, 16, 32, 64, 128, 160}
	sizes := []float64{1, 32, 64, 128, 256}
	grid, err := r.Sweep(plat, counts, sizes, SweepOptions{Tasks: 64, Reps: 1, Base: &base})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if grid != nil {
		t.Fatal("cancelled sweep returned a partial grid as if complete")
	}
	// pool.Run waits for its workers before returning, so the goroutine
	// count must fall back to the pre-sweep baseline. Poll briefly: the
	// runtime needs a moment to reap exited goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("worker pool leaked goroutines: %d before sweep, %d after cancellation", before, g)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	// The cancelled context sticks to the Runner: later calls refuse work
	// rather than returning partial results.
	if _, err := r.RunIOR(plat, base); !errors.Is(err, context.Canceled) {
		t.Errorf("RunIOR after cancellation: err = %v, want context.Canceled", err)
	}
	// A fresh Runner on a live context is unaffected by the drained pool.
	if _, err := NewRunner(WithParallelism(2)).RunIOR(plat, base); err != nil {
		t.Errorf("fresh Runner after drain: %v", err)
	}
}

// TestRunnerCancelMidRepeatDiscardsPartial covers the Repeat path: replicas
// completed before the cancellation must not leak out as a short slice.
func TestRunnerCancelMidRepeatDiscardsPartial(t *testing.T) {
	plat := Cab()
	base := fastIOR("repeat-cancel", 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(WithContext(ctx), WithParallelism(2), WithoutSlowdowns(),
		WithProgress(func(done, total int) {
			if done == 1 {
				cancel()
			}
		}))
	res, err := r.Repeat(plat, UniformScenario("rc", IORWorkload(base), 1), 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled Repeat returned partial replicas")
	}
}

func TestRunnerRunSharded(t *testing.T) {
	plat, shards := SolverShardedScenario(8, 3)
	var ticks int
	r := NewRunner(WithParallelism(1), WithProgress(func(done, total int) { ticks++ }))
	res, err := r.RunSharded(plat, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 3 || res.Makespan <= 0 {
		t.Fatalf("sharded result malformed: %d shards, makespan %v", len(res.Shards), res.Makespan)
	}
	if ticks == 0 {
		t.Error("progress callback never fired")
	}
	// All shards run the same workload on identical (but independent)
	// file-system shards differing only by RNG stream: bandwidths must be
	// close but the layouts independent.
	for i, sh := range res.Shards {
		if sh.Jobs[0].WriteMBs() <= 0 {
			t.Fatalf("shard %d has no bandwidth", i)
		}
	}
	if res.Solver.ComponentsSolved == 0 || res.Solver.ComponentFlowsScanned == 0 {
		t.Error("solver counters missing from sharded result")
	}
	// The per-solve population must track the shard (16 flows), not the
	// whole 48-flow simulation.
	per := float64(res.Solver.ComponentFlowsScanned) / float64(res.Solver.ComponentsSolved)
	if per > 16 {
		t.Errorf("per-solve scan %.1f flows; want <= shard population 16", per)
	}
}

func TestRunnerRunShardedCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plat, shards := SolverShardedScenario(4, 2)
	if _, err := NewRunner(WithContext(ctx)).RunSharded(plat, shards); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

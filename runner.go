package pfsim

import (
	"context"
	"fmt"
	"sync"

	"pfsim/internal/pool"
	"pfsim/internal/sweep"
	"pfsim/internal/workload"
)

// Runner executes scenarios, repetitions and sweep grids. Each simulation
// is single-threaded and deterministic, so the Runner fans independent
// simulations across a worker pool: results are byte-identical at any
// parallelism, only wall-clock time changes.
//
// The zero configuration (NewRunner()) uses the platform seed, a
// background context, and one worker per available core.
type Runner struct {
	seed        uint64
	ctx         context.Context
	parallelism int
	progress    func(done, total int)
	slowdowns   bool
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithSeed overrides the platform's RNG seed for every simulation the
// Runner launches (0 keeps the platform seed).
func WithSeed(seed uint64) RunnerOption {
	return func(r *Runner) { r.seed = seed }
}

// WithContext aborts in-flight work when ctx is cancelled; the partial
// result is discarded and the context error returned. Batched calls
// (RunScenarios, Repeat, Sweep) notice the cancellation between
// simulations; the single long runs (RunScenario's contended pass,
// RunSharded) poll the context every few thousand engine events and
// stop the engine mid-run.
func WithContext(ctx context.Context) RunnerOption {
	return func(r *Runner) {
		if ctx != nil {
			r.ctx = ctx
		}
	}
}

// WithParallelism sets the worker-pool width for independent simulations
// (1 = serial; values below one select GOMAXPROCS, the default): the
// batched calls (RunScenarios, Repeat, Sweep) and every call's solo
// baselines fan across it. Each simulation runs on one goroutine, so a
// single run (RunScenario's contended pass, RunSharded) takes no more
// than one core at any width. Results are byte-identical at any setting,
// only wall-clock time changes.
func WithParallelism(n int) RunnerOption {
	return func(r *Runner) { r.parallelism = n }
}

// WithProgress installs a callback invoked after each completed
// simulation unit with (done, total) counts. Calls are serialised and
// arrive in done order. The count is monotonic across every internal
// phase of one Runner call — contended scenario passes and the solo
// baseline pass count into a single combined total, so progress bars
// never jump backwards. The total may grow between phases (baseline
// units are only known once the scenarios have run), but done never
// decreases and never exceeds total.
func WithProgress(fn func(done, total int)) RunnerOption {
	return func(r *Runner) { r.progress = fn }
}

// progressTracker folds the phases of one Runner call into a single
// monotonic (done, total) series. Phases register their unit counts with
// Add as they become known; Done reports one completed unit. Safe for
// concurrent use by pool workers; it is the workload.Progress of the
// baseline pass.
type progressTracker struct {
	fn    func(done, total int)
	mu    sync.Mutex
	done  int
	total int
}

// newTracker returns a tracker for one Runner call (nil-safe: a Runner
// without WithProgress gets a tracker whose methods are no-ops).
func (r *Runner) newTracker() *progressTracker {
	return &progressTracker{fn: r.progress}
}

// Add registers n upcoming units.
func (t *progressTracker) Add(n int) {
	if t.fn == nil {
		return
	}
	t.mu.Lock()
	t.total += n
	t.mu.Unlock()
}

// Done reports one completed unit.
func (t *progressTracker) Done() {
	if t.fn == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	t.fn(t.done, t.total)
}

// WithoutSlowdowns skips the per-job solo baseline runs, leaving
// ScenarioResult slowdown fields zero. Use it when only contended
// bandwidth matters and the extra simulations are unwelcome.
func WithoutSlowdowns() RunnerOption {
	return func(r *Runner) { r.slowdowns = false }
}

// NewRunner returns a Runner configured by the given options.
func NewRunner(opts ...RunnerOption) *Runner {
	r := &Runner{ctx: context.Background(), slowdowns: true}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// runOptions is the Runner's seed, pool width and context as workload
// options: the single long runs poll the context mid-run, and the solo
// baseline pass fans across the width.
func (r *Runner) runOptions() workload.RunOptions {
	return workload.RunOptions{
		Seed:        r.seed,
		Parallelism: r.parallelism,
		Ctx:         r.ctx,
	}
}

// RunScenario executes the scenario on plat: one deterministic simulation
// in which every job launches at its start time on its node range,
// sharing the metadata server, network and OSTs. Unless WithoutSlowdowns
// is set, one solo baseline per distinct job shape then runs across the
// worker pool and each job's slowdown vs running alone is filled in.
func (r *Runner) RunScenario(plat *Platform, sc Scenario) (*ScenarioResult, error) {
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	tracker := r.newTracker()
	tracker.Add(1)
	res, err := workload.RunScenarioWith(plat, sc, r.runOptions())
	if err != nil {
		return nil, err
	}
	tracker.Done()
	if !r.slowdowns {
		return res, nil
	}
	if err := r.applySlowdowns(plat, []*ScenarioResult{res}, []uint64{r.seed}, tracker); err != nil {
		return nil, err
	}
	return res, nil
}

// RunScenarios executes several independent scenarios across the worker
// pool, in input order. Scenario i fails the whole call if it errors.
func (r *Runner) RunScenarios(plat *Platform, scs []Scenario) ([]*ScenarioResult, error) {
	out := make([]*ScenarioResult, len(scs))
	tracker := r.newTracker()
	tracker.Add(len(scs))
	err := pool.Run(r.ctx, r.parallelism, len(scs), func(i int) error {
		res, err := workload.RunScenario(plat, scs[i], r.seed)
		if err != nil {
			return err
		}
		out[i] = res
		tracker.Done()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if r.slowdowns {
		seeds := make([]uint64, len(out))
		for i := range seeds {
			seeds[i] = r.seed
		}
		if err := r.applySlowdowns(plat, out, seeds, tracker); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Repeat executes n independent replicas of the scenario across the
// worker pool. Replica i runs with seed base+i (base is the WithSeed
// value, or the platform seed), so each replica redraws OST layouts and
// service jitter: the spread across replicas is the run-to-run variance
// the paper reports as 95% confidence intervals.
func (r *Runner) Repeat(plat *Platform, sc Scenario, n int) ([]*ScenarioResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pfsim: need at least one repetition")
	}
	base := r.seed
	if base == 0 {
		base = plat.Seed
	}
	out := make([]*ScenarioResult, n)
	tracker := r.newTracker()
	tracker.Add(n)
	err := pool.Run(r.ctx, r.parallelism, n, func(i int) error {
		res, err := workload.RunScenario(plat, sc, base+uint64(i))
		if err != nil {
			return err
		}
		out[i] = res
		tracker.Done()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if r.slowdowns {
		seeds := make([]uint64, n)
		for i := range seeds {
			seeds[i] = base + uint64(i)
		}
		if err := r.applySlowdowns(plat, out, seeds, tracker); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// applySlowdowns runs the solo baselines for every result in one flat
// pool pass (result i's baselines use seeds[i]), so the baseline half of
// a batch keeps the same parallel width as the scenario half. Baseline
// units join the caller's progress tracker, continuing its monotonic
// count rather than restarting from zero.
func (r *Runner) applySlowdowns(plat *Platform, results []*ScenarioResult, seeds []uint64, tracker *progressTracker) error {
	err := workload.RunBaselines(plat, results, seeds, r.runOptions(), tracker)
	if err != nil && r.ctx.Err() == nil {
		return fmt.Errorf("pfsim: %w", err)
	}
	return err
}

// RunSharded executes several scenarios as independent file systems under
// one engine and one shared fluid solver — the shared-nothing deployment
// shape (many installations, one simulation). Shard link sets are
// disjoint, so the partitioned solver keeps each shard its own component:
// simulation cost per event scales with the touched shard, not the total
// population. The run is one simulation on the calling goroutine. A
// cancelled WithContext context stops the engine mid-run.
// Slowdown baselines are not computed (a shard cannot slow another down
// by construction; per-shard contention is visible in the per-job
// results directly).
func (r *Runner) RunSharded(plat *Platform, shards []Scenario) (*ShardedResult, error) {
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	tracker := r.newTracker()
	tracker.Add(1)
	res, err := workload.RunShardedWith(plat, shards, r.runOptions())
	if err != nil {
		return nil, err
	}
	tracker.Done()
	return res, nil
}

// RunIOR executes one IOR configuration on a fresh simulated system — the
// single-job scenario. With the default seed this reproduces the classic
// serial path byte for byte. A cancelled WithContext context stops the
// engine mid-run.
func (r *Runner) RunIOR(plat *Platform, cfg IORConfig) (*IORResult, error) {
	res, err := workload.RunScenarioWith(plat, workload.Solo(cfg), r.runOptions())
	if err != nil {
		return nil, err
	}
	return res.Jobs[0].IOR, nil
}

// RunContended executes n simultaneous copies of cfg on one simulated
// system (disjoint node ranges) and returns the per-job results — the
// Section V scenario, run as the paper's Figure 3 and Table V run it, on
// the same RNG stream. A cancelled WithContext context stops the engine
// mid-run.
func (r *Runner) RunContended(plat *Platform, cfg IORConfig, n int) ([]*IORResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pfsim: need at least one job")
	}
	res, err := workload.RunScenarioWith(plat, workload.Contended(cfg, n), r.runOptions())
	if err != nil {
		return nil, err
	}
	out := make([]*IORResult, len(res.Jobs))
	for i := range res.Jobs {
		out[i] = res.Jobs[i].IOR
	}
	return out, nil
}

// Sweep measures every (stripe count, stripe size) combination for the
// given options across the worker pool — the Section IV exhaustive search
// with free parallel speedup. The grid is byte-identical to a serial
// sweep.
func (r *Runner) Sweep(plat *Platform, counts []int, sizesMB []float64, opt SweepOptions) (*SweepGrid, error) {
	opt.Parallelism = r.parallelism
	opt.Ctx = r.ctx
	if opt.Seed == 0 {
		opt.Seed = r.seed
	}
	if r.progress != nil && opt.Progress == nil {
		opt.Progress = r.progress
	}
	return sweep.Exhaustive(plat, counts, sizesMB, opt)
}

// Autotune performs the exhaustive (count × size) sweep of Section IV on
// the worker pool and returns the optimum. Reps controls repetitions per
// configuration.
func (r *Runner) Autotune(plat *Platform, tasks, reps int) (SweepPoint, error) {
	grid, err := r.Sweep(plat, sweep.CountsUpTo(plat),
		[]float64{1, 32, 64, 128, 256}, SweepOptions{Tasks: tasks, Reps: reps})
	if err != nil {
		return SweepPoint{}, err
	}
	return grid.Best(), nil
}

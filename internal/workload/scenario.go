package workload

import (
	"context"
	"fmt"
	"math"

	"pfsim/internal/cluster"
	"pfsim/internal/flow"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
	"pfsim/internal/mpiio"
	"pfsim/internal/pool"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

// Workload is one application in a contention scenario. Implementations
// materialise themselves as an execution on the simulated I/O stack; the
// scenario machinery handles placement, start times and striping hints.
type Workload interface {
	// Label names the workload in results (must be stable; the scenario
	// deduplicates clashes).
	Label() string
	// Config materialises the workload as an IOR-engine execution for the
	// given platform. FirstNode and hint overrides are applied afterwards
	// by the scenario.
	Config(plat *cluster.Platform) ior.Config
}

// IORJob wraps a raw IOR configuration as a scenario workload — the
// striped collective writers of the paper's Sections IV and V.
type IORJob struct {
	Cfg ior.Config
}

// Label returns the configuration's label.
func (w IORJob) Label() string { return w.Cfg.Label }

// Config returns the wrapped configuration.
func (w IORJob) Config(*cluster.Platform) ior.Config { return w.Cfg }

// PLFSLogger is an n-rank application writing through ad_plfs: every rank
// appends to its own two-stripe log, the self-contending pattern of the
// paper's Section VI.
type PLFSLogger struct {
	// Name labels the job ("plfs-<ranks>" when empty).
	Name string
	// Ranks is the number of logging processes.
	Ranks int
	// MBPerRank is the volume each rank logs (default 400, the Table II
	// per-rank volume).
	MBPerRank float64
	// TransferMB is the append granularity (default 1).
	TransferMB float64
	// Reps recreates the container this many times (default 1).
	Reps int
}

// Label returns the job name.
func (w PLFSLogger) Label() string {
	if w.Name != "" {
		return w.Name
	}
	return fmt.Sprintf("plfs-%d", w.Ranks)
}

// Config materialises the logger as a PLFS-driver write.
func (w PLFSLogger) Config(*cluster.Platform) ior.Config {
	mb := w.MBPerRank
	if mb <= 0 {
		mb = 400
	}
	tr := w.TransferMB
	if tr <= 0 {
		tr = math.Min(1, mb)
	}
	reps := w.Reps
	if reps <= 0 {
		reps = 1
	}
	return ior.Config{
		Label:          w.Label(),
		API:            mpiio.DriverPLFS,
		BlockSizeMB:    mb,
		TransferSizeMB: tr,
		SegmentCount:   1,
		NumTasks:       w.Ranks,
		WriteFile:      true,
		Collective:     true,
		Hints:          mpiio.NewHints(),
		Reps:           reps,
	}
}

// Checkpointer runs a Checkpoint application as a periodic writer: it
// writes Checkpoints state dumps separated by the application's compute
// phase, so its I/O bursts interleave with the other scenario jobs in
// time rather than arriving back to back.
type Checkpointer struct {
	// Name labels the job ("checkpoint-<ranks>" when empty).
	Name string
	// App describes the checkpointing application.
	App Checkpoint
	// API selects the MPI-IO driver. The zero value (ad_ufs) is treated
	// as unset and defaults to ad_lustre — a ufs checkpointer would
	// silently discard its striping hints; wrap Checkpoint.IORConfig in
	// an IORJob to express one deliberately.
	API mpiio.Driver
	// Hints are the striping hints (zero value: defaults).
	Hints mpiio.Hints
	// Checkpoints is the number of state dumps to write (default 1).
	Checkpoints int
}

// Label returns the job name.
func (w Checkpointer) Label() string {
	if w.Name != "" {
		return w.Name
	}
	return fmt.Sprintf("checkpoint-%d", w.App.Ranks)
}

// Config materialises the checkpointer as a multi-repetition write with
// compute gaps.
func (w Checkpointer) Config(*cluster.Platform) ior.Config {
	hints := w.Hints
	if hints == (mpiio.Hints{}) {
		hints = mpiio.NewHints()
	}
	api := w.API
	if api == mpiio.DriverUFS {
		api = mpiio.DriverLustre
	}
	cfg := w.App.IORConfig(api, hints)
	cfg.Label = w.Label()
	if w.Checkpoints > 1 {
		cfg.Reps = w.Checkpoints
	}
	cfg.ComputeSeconds = w.App.ComputeSeconds
	return cfg
}

// Job places one workload inside a scenario.
type Job struct {
	// Workload is the application to run.
	Workload Workload
	// StartAt delays the job's launch by this many virtual seconds after
	// scenario start.
	StartAt float64
	// FirstNode pins the job's node range when positive. Zero (the
	// default) packs the job onto the first nodes after the previously
	// placed jobs.
	FirstNode int
	// Stripes overrides the workload's striping_factor hint when positive.
	Stripes int
	// StripeSizeMB overrides the striping_unit hint when positive.
	StripeSizeMB float64
}

// Scenario composes an arbitrary heterogeneous mix of workloads sharing
// one simulated file system — the generalisation of the paper's "n
// identical striped jobs" contention shape.
type Scenario struct {
	// Name seeds the scenario's RNG stream (with the job labels) and
	// titles reports.
	Name string
	// Jobs are the concurrent applications.
	Jobs []Job

	// fork, when forked, is the RNG-fork key in place of the one seedHash
	// derives from the name and labels (see Contended).
	fork   uint64
	forked bool
}

// NewScenario returns a named scenario over the given jobs.
func NewScenario(name string, jobs ...Job) Scenario {
	return Scenario{Name: name, Jobs: jobs}
}

// Add appends a job and returns the scenario for chaining.
func (s Scenario) Add(job Job) Scenario {
	s.Jobs = append(s.Jobs, job)
	return s
}

// UniformScenario returns n copies of one workload on disjoint
// auto-placed node ranges — the paper's Section V scenario as a special
// case.
func UniformScenario(name string, w Workload, n int) Scenario {
	s := Scenario{Name: name}
	for i := 0; i < n; i++ {
		s.Jobs = append(s.Jobs, Job{Workload: w})
	}
	return s
}

// Solo returns the scenario of one job running cfg alone: an unnamed
// scenario, so its RNG stream forks from ior.HashLabel(cfg.Label). It is
// what a solo baseline, a sweep point and a single paper measurement run.
func Solo(cfg ior.Config) Scenario {
	return Scenario{Jobs: []Job{{Workload: IORJob{Cfg: cfg}}}}
}

// Contended returns n copies of base, labelled "<label>-job<i>", on
// consecutive node ranges from node 0, all started at time zero: the
// paper's Section V contention experiments. Jobs repeat their
// repetitions back to back and drift apart, as on the real machine. The
// scenario is named after base and its RNG stream forks from
// ior.HashLabel(base.Label)+n, the stream the paper's Figure 3 and Table
// V are recorded on, not from the job labels.
func Contended(base ior.Config, n int) Scenario {
	s := Scenario{Name: base.Label, fork: ior.HashLabel(base.Label) + uint64(n), forked: true}
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Label = fmt.Sprintf("%s-job%d", base.Label, i)
		s.Jobs = append(s.Jobs, Job{Workload: IORJob{Cfg: cfg}})
	}
	return s
}

// Validate checks the scenario against a platform without running it:
// every job must resolve to a valid configuration on non-overlapping
// node ranges with a sane start time. It is the dry-run behind
// `pfsim-scenario validate`.
func (s Scenario) Validate(plat *cluster.Platform) error {
	_, err := s.materialise(plat)
	return err
}

// title names the scenario in errors ("scenario" when unnamed).
func (s Scenario) title() string {
	if s.Name == "" {
		return "scenario"
	}
	return fmt.Sprintf("scenario %q", s.Name)
}

// A JobError is a scenario job whose configuration fails validation, or
// whose nodes overlap another job's. Its text names the jobs by label;
// Job and Other index Scenario.Jobs, so a caller that built the scenario
// can name the entries the jobs came from instead.
type JobError struct {
	Scenario string // the scenario's title in errors
	Job      int
	Label    string
	Err      error // the job's fault; nil for an overlap
	// For an overlap: the other job, and the nodes From..To both claim.
	Other      int
	OtherLabel string
	From, To   int
}

func (e *JobError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("workload: %s: job %q overlaps job %q on nodes %d..%d",
			e.Scenario, e.Label, e.OtherLabel, e.From, e.To)
	}
	return fmt.Sprintf("workload: %s job %q: %v", e.Scenario, e.Label, e.Err)
}

// Unwrap returns the job's fault.
func (e *JobError) Unwrap() error { return e.Err }

// materialise resolves every job to a placed, validated configuration.
// A job that fails validation, its start time included, or overlaps
// another is a *JobError.
func (s Scenario) materialise(plat *cluster.Platform) ([]ior.Config, error) {
	if len(s.Jobs) == 0 {
		return nil, fmt.Errorf("workload: %s has no jobs", s.title())
	}
	type span struct{ from, to int }
	var spans []span
	cursor := 0
	cfgs := make([]ior.Config, len(s.Jobs))

	// Resolve every workload first so label dedup can see all base labels
	// up front. Renaming duplicates to "<base>-jobN" must dodge both labels
	// already assigned and later literal labels: jobs ["x", "x", "x-job1"]
	// once produced two jobs named "x-job1", breaking Result.Job lookups.
	for i, job := range s.Jobs {
		if job.Workload == nil {
			return nil, fmt.Errorf("workload: %s job %d has no workload", s.title(), i)
		}
		cfgs[i] = job.Workload.Config(plat)
	}
	taken := make(map[string]bool, len(cfgs)) // base labels + assigned labels
	for i := range cfgs {
		taken[cfgs[i].Label] = true
	}
	assigned := make(map[string]bool, len(cfgs))
	for i := range cfgs {
		base := cfgs[i].Label
		if assigned[base] {
			n := 1
			candidate := fmt.Sprintf("%s-job%d", base, n)
			for taken[candidate] || assigned[candidate] {
				n++
				candidate = fmt.Sprintf("%s-job%d", base, n)
			}
			cfgs[i].Label = candidate
		}
		assigned[cfgs[i].Label] = true
	}

	for i, job := range s.Jobs {
		cfg := cfgs[i]
		if job.Stripes > 0 {
			cfg.Hints.StripingFactor = job.Stripes
		}
		if job.StripeSizeMB > 0 {
			cfg.Hints.StripingUnitMB = job.StripeSizeMB
		}
		if job.FirstNode > 0 {
			cfg.FirstNode = job.FirstNode
		} else {
			cfg.FirstNode = cursor
		}
		err := cfg.Validate(plat)
		switch {
		case job.StartAt < 0 || math.IsNaN(job.StartAt):
			err = fmt.Errorf("StartAt %v must be non-negative", job.StartAt)
		case math.IsInf(job.StartAt, 1):
			err = fmt.Errorf("StartAt %v must be finite", job.StartAt)
		}
		if err != nil {
			return nil, &JobError{Scenario: s.title(), Job: i, Label: cfg.Label, Err: err}
		}
		sp := span{cfg.FirstNode, cfg.FirstNode + plat.NodesFor(cfg.NumTasks) - 1}
		for j, other := range spans {
			if sp.from <= other.to && other.from <= sp.to {
				return nil, &JobError{Scenario: s.title(), Job: i, Label: cfg.Label,
					Other: j, OtherLabel: cfgs[j].Label, From: max(sp.from, other.from), To: min(sp.to, other.to)}
			}
		}
		spans = append(spans, sp)
		if sp.to+1 > cursor {
			cursor = sp.to + 1
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// seedHash mixes the scenario name and job labels into the RNG-fork key,
// unless the scenario carries its own (Contended). An unnamed single-job
// scenario hashes to ior.HashLabel(label).
func (s Scenario) seedHash(cfgs []ior.Config) uint64 {
	if s.forked {
		return s.fork
	}
	var h uint64
	if s.Name != "" {
		h = ior.HashLabel(s.Name)
	}
	for _, cfg := range cfgs {
		h ^= ior.HashLabel(cfg.Label)
	}
	return h
}

// JobResult is the outcome of one scenario job.
type JobResult struct {
	// Label names the job.
	Label string
	// Config is the materialised configuration the job ran with.
	Config ior.Config
	// IOR holds the per-repetition bandwidth samples and layouts.
	IOR *ior.Result
	// StartAt and FinishedAt bound the job in virtual time.
	StartAt    float64
	FinishedAt float64
	// SoloMBs is the job's mean write bandwidth on an idle system (0
	// until a baseline pass fills it in).
	SoloMBs float64
	// Slowdown is SoloMBs over the contended mean (0 until baselines are
	// filled in; 1 means the job was unaffected by its neighbours).
	Slowdown float64
}

// WriteMBs is the job's mean aggregate write bandwidth under contention.
func (jr *JobResult) WriteMBs() float64 { return jr.IOR.Write.Mean() }

// Aggregate summarises a scenario across its jobs.
type Aggregate struct {
	// MeanMBs / MinMBs / MaxMBs summarise per-job mean write bandwidth.
	MeanMBs, MinMBs, MaxMBs float64
	// TotalMBs is the sum of per-job means — the file system's delivered
	// bandwidth.
	TotalMBs float64
	// MeanSlowdown / MaxSlowdown summarise slowdown vs solo (0 when no
	// baselines were computed).
	MeanSlowdown, MaxSlowdown float64
}

// Result is the outcome of one scenario execution.
type Result struct {
	// Scenario is the executed scenario.
	Scenario Scenario
	// Jobs holds one result per scenario job, in scenario order.
	Jobs []JobResult
	// Makespan is the virtual time at which the last job finished.
	Makespan float64
	// Work is the run's one simulation and its solver and engine work
	// counters.
	Work Work
	// Baselines is the summed work of the solo simulations RunBaselines
	// ran for this result; zero until it runs them.
	Baselines Work
}

// Work counts simulations and their summed work: the fluid solver's
// counters (solves, link visits, rate-fixing rounds, flows scanned,
// completion-heap operations) and the event engine's (events scheduled,
// fired, cancelled). All are machine-independent and deterministic, so
// tooling can report simulation cost alongside bandwidth, and a caller
// that runs many simulations sums their results' Work.
type Work struct {
	Simulations int
	Flow        flow.Stats
	Sim         sim.Stats
}

// Add folds o into w.
func (w *Work) Add(o Work) {
	w.Simulations += o.Simulations
	w.Flow.Add(o.Flow)
	w.Sim.Add(o.Sim)
}

// Aggregate computes cross-job summary statistics.
func (r *Result) Aggregate() Aggregate { return aggregate(r) }

// aggregate is the one cross-job fold, shared by Result.Aggregate and
// ShardedResult.Aggregate so that a field cannot be filled in one and
// dropped in the other. It visits the jobs in order, result by result:
// min/max/mean/total of per-job mean write bandwidth, and slowdown
// statistics over the jobs that have baselines. A result without jobs
// contributes nothing (it cannot drag MinMBs to 0), and no jobs at all
// give the zero Aggregate.
func aggregate(rs ...*Result) Aggregate {
	var a Aggregate
	a.MinMBs = math.Inf(1)
	jobs, slowdowns := 0, 0
	for _, r := range rs {
		for i := range r.Jobs {
			jr := &r.Jobs[i]
			bw := jr.WriteMBs()
			a.TotalMBs += bw
			a.MinMBs = math.Min(a.MinMBs, bw)
			a.MaxMBs = math.Max(a.MaxMBs, bw)
			if sd := jr.Slowdown; sd > 0 {
				a.MeanSlowdown += sd
				a.MaxSlowdown = math.Max(a.MaxSlowdown, sd)
				slowdowns++
			}
			jobs++
		}
	}
	if jobs == 0 {
		return Aggregate{}
	}
	a.MeanMBs = a.TotalMBs / float64(jobs)
	if slowdowns > 0 {
		a.MeanSlowdown /= float64(slowdowns)
	}
	return a
}

// Job returns the result labelled label (nil when absent).
func (r *Result) Job(label string) *JobResult {
	for i := range r.Jobs {
		if r.Jobs[i].Label == label {
			return &r.Jobs[i]
		}
	}
	return nil
}

// RunScenario executes the scenario on one simulated system: every job
// launches at its StartAt on its node range, sharing the MDS, network and
// OSTs. The run is deterministic for a given (platform, scenario, seed)
// triple; seed 0 selects plat.Seed. Slowdown baselines are not computed
// here — see SoloConfigs. Instrument hooks run against the freshly built
// system before any job launches (e.g. to attach a trace recorder).
func RunScenario(plat *cluster.Platform, s Scenario, seed uint64, instrument ...func(*lustre.System)) (*Result, error) {
	return RunScenarioWith(plat, s, RunOptions{Seed: seed}, instrument...)
}

// RunScenarioWith is RunScenario with explicit run options: the seed and
// a cancellation context polled mid-run. The simulation runs on the
// calling goroutine. Instrument hooks run against the freshly built
// system, so they may change its settings (e.g. a benchmark forcing a
// solver mode).
func RunScenarioWith(plat *cluster.Platform, s Scenario, opts RunOptions, instrument ...func(*lustre.System)) (*Result, error) {
	cfgs, err := s.materialise(plat)
	if err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = plat.Seed
	}
	return simulate(plat, s, cfgs, stats.NewRNG(seed).Fork(s.seedHash(cfgs)), opts.Ctx, instrument)
}

// simulate runs one materialised scenario as one simulation on the
// calling goroutine: a fresh engine and system drawing from rng, the
// instrument hooks, every job's launch (at its StartAt by timer, the
// rest at once), the engine run polled for ctx, and each job's finish.
// It is the one place an engine is built and run.
func simulate(plat *cluster.Platform, s Scenario, cfgs []ior.Config, rng *stats.RNG, ctx context.Context, instrument []func(*lustre.System)) (*Result, error) {
	eng := sim.NewEngine()
	sys, err := lustre.NewSystem(eng, plat, rng)
	if err != nil {
		return nil, err
	}
	for _, fn := range instrument {
		fn(sys)
	}
	res := &Result{Scenario: s, Jobs: make([]JobResult, len(cfgs))}
	running := make([]*ior.RunningJob, len(cfgs))
	var launchErr error
	for i := range cfgs {
		res.Jobs[i] = JobResult{Label: cfgs[i].Label, Config: cfgs[i], StartAt: s.Jobs[i].StartAt}
		start := func() {
			rj, err := ior.StartJob(sys, cfgs[i])
			if err != nil {
				if launchErr == nil {
					launchErr = err
				}
				eng.Stop()
				return
			}
			running[i] = rj
			res.Jobs[i].IOR = rj.Result
		}
		if s.Jobs[i].StartAt > 0 {
			eng.Schedule(s.Jobs[i].StartAt, start)
		} else {
			start()
		}
	}
	cancelled := watchContext(eng, ctx)
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("workload: %s failed: %w", s.title(), err)
	}
	if err := cancelled(); err != nil {
		return nil, err
	}
	if launchErr != nil {
		return nil, launchErr
	}
	for i, rj := range running {
		if rj == nil {
			// A StartAt timer never fired: an instrument hook stopped the
			// engine before this job launched. Never report a half-run
			// scenario as success.
			return nil, fmt.Errorf("workload: job %q never launched (engine stopped early)", res.Jobs[i].Label)
		}
		if err := rj.Err(); err != nil {
			return nil, err
		}
		res.Jobs[i].FinishedAt = rj.FinishedAt()
		if res.Jobs[i].FinishedAt > res.Makespan {
			res.Makespan = res.Jobs[i].FinishedAt
		}
	}
	res.Work = Work{Simulations: 1, Flow: sys.Net().Stats(), Sim: eng.Stats()}
	return res, nil
}

// soloKey identifies configurations that share a baseline: placement does
// not affect a solo run, everything else does.
func soloKey(cfg ior.Config) ior.Config {
	cfg.Label = ""
	cfg.FirstNode = 0
	return cfg
}

// SoloConfigs returns one representative configuration per distinct job
// shape in the result, keyed for ApplySolo. RunBaselines runs them.
func (r *Result) SoloConfigs() []ior.Config {
	seen := map[ior.Config]bool{}
	var out []ior.Config
	for i := range r.Jobs {
		key := soloKey(r.Jobs[i].Config)
		if seen[key] {
			continue
		}
		seen[key] = true
		cfg := r.Jobs[i].Config
		cfg.FirstNode = 0
		out = append(out, cfg)
	}
	return out
}

// ApplySolo fills in SoloMBs and Slowdown from baseline results produced
// by running SoloConfigs; the map key is the baseline's config as
// returned by SoloConfigs.
func (r *Result) ApplySolo(baselines map[ior.Config]*ior.Result) {
	// Re-index by shape key so each job does one deterministic lookup.
	// SoloConfigs emits one config per distinct soloKey, so the writes
	// land under distinct keys and the index is independent of the
	// iteration order (an earlier revision scanned the map per job,
	// picking a map-order-dependent winner on duplicate shapes).
	bySolo := make(map[ior.Config]*ior.Result, len(baselines))
	//pfsim:orderok — distinct-key re-index; contents independent of order
	for cfg, base := range baselines {
		bySolo[soloKey(cfg)] = base
	}
	for i := range r.Jobs {
		jr := &r.Jobs[i]
		base, ok := bySolo[soloKey(jr.Config)]
		if !ok {
			continue
		}
		jr.SoloMBs = base.Write.Mean()
		if bw := jr.WriteMBs(); bw > 0 {
			jr.Slowdown = jr.SoloMBs / bw
		}
	}
}

// Progress hears a batch of simulations advance: Add registers n
// upcoming simulations before any of them starts, and Done reports one
// finished. Done may be called from any pool worker.
type Progress interface {
	Add(n int)
	Done()
}

// RunBaselines runs the solo baselines of a batch of results and fills in
// their slowdowns with ApplySolo: one clean single-job simulation per
// distinct job shape of each result (SoloConfigs), run for results[i]
// under seeds[i], or under opts.Seed for every result when seeds is nil
// (0 selects plat.Seed). The simulations are independent, so one flat
// pass fans all of them across a pool of opts.Parallelism workers (values
// below one select GOMAXPROCS) and checks opts.Ctx between simulations.
// This pool is where a run spends its width; each simulation runs on one
// goroutine, so results are byte-identical at any width. progress, when
// non-nil, hears the pass's simulation count before the first starts and
// each one as it finishes. Each result's Baselines sums the work of its
// solo simulations.
func RunBaselines(plat *cluster.Platform, results []*Result, seeds []uint64, opts RunOptions, progress Progress) error {
	type unit struct {
		cfg  ior.Config
		seed uint64
	}
	var units []unit
	solos := make([][]ior.Config, len(results))
	for i, res := range results {
		seed := opts.Seed
		if seeds != nil {
			seed = seeds[i]
		}
		solos[i] = res.SoloConfigs()
		for _, cfg := range solos[i] {
			units = append(units, unit{cfg, seed})
		}
	}
	if progress != nil {
		progress.Add(len(units))
	}
	baselines := make([]*Result, len(units))
	err := pool.Run(opts.Ctx, opts.Parallelism, len(units), func(k int) error {
		res, err := RunScenario(plat, Solo(units[k].cfg), units[k].seed)
		if err != nil {
			return fmt.Errorf("solo baseline for %q: %w", units[k].cfg.Label, err)
		}
		baselines[k] = res
		if progress != nil {
			progress.Done()
		}
		return nil
	})
	if err != nil {
		return err
	}
	k := 0
	for i, res := range results {
		byCfg := make(map[ior.Config]*ior.Result, len(solos[i]))
		res.Baselines = Work{}
		for _, cfg := range solos[i] {
			byCfg[cfg] = baselines[k].Jobs[0].IOR
			res.Baselines.Add(baselines[k].Work)
			k++
		}
		res.ApplySolo(byCfg)
	}
	return nil
}

package pfsim

import (
	"fmt"

	"pfsim/internal/workload"
)

// Workload is one application in a contention Scenario. IORWorkload,
// PLFSWorkload and CheckpointWorkload cover the paper's application
// shapes; implement the interface directly for custom ones.
type Workload = workload.Workload

// ScenarioJob places one workload inside a Scenario: a start time, an
// optional pinned node range, and optional striping-hint overrides.
type ScenarioJob = workload.Job

// Scenario composes an arbitrary heterogeneous mix of workloads sharing
// one simulated file system — the generalisation of the paper's "n
// identical striped jobs" contention experiments.
type Scenario = workload.Scenario

// ScenarioResult is the outcome of one Scenario execution: per-job
// bandwidth, timing, slowdown vs a solo run, and aggregate statistics.
type ScenarioResult = workload.Result

// ScenarioJobResult is the per-job part of a ScenarioResult.
type ScenarioJobResult = workload.JobResult

// ScenarioAggregate summarises a scenario across its jobs.
type ScenarioAggregate = workload.Aggregate

// NewScenario returns a named scenario over the given jobs.
func NewScenario(name string, jobs ...ScenarioJob) Scenario {
	return workload.NewScenario(name, jobs...)
}

// UniformScenario returns n copies of one workload on disjoint
// auto-placed node ranges — the paper's Section V scenario as a special
// case of the heterogeneous API.
func UniformScenario(name string, w Workload, n int) Scenario {
	return workload.UniformScenario(name, w, n)
}

// IORWorkload wraps an IOR configuration as a scenario workload — the
// striped collective writers of Sections IV and V.
func IORWorkload(cfg IORConfig) Workload { return workload.IORJob{Cfg: cfg} }

// SolverStressScenario is the canonical solver-stress shape on the Cab
// platform: writers file-per-process ranks, each streaming a short
// two-segment burst to a private file with the default two-stripe layout
// — 2 × writers concurrent flows through one shared backbone. It is the
// single source for `BenchmarkSolver*Flows`, the solver rows of
// testdata/counters.golden that TestWorkCounters holds, and
// `pfsim-metrics -solver-writers`, so the three always measure the same
// workload.
func SolverStressScenario(writers int) (*Platform, Scenario) {
	plat := Cab()
	name := fmt.Sprintf("bench-solver%d", 2*writers)
	cfg := PaperIOR(writers)
	cfg.Label = name
	cfg.FilePerProc = true
	cfg.Collective = false
	cfg.SegmentCount = 2
	cfg.Reps = 1
	return plat, NewScenario(name, ScenarioJob{Workload: IORWorkload(cfg)})
}

// ShardedResult is the outcome of a Runner.RunSharded execution: one
// scenario result per independent file system plus the shared solver's
// work counters.
type ShardedResult = workload.ShardedResult

// SolverShardedScenario is the sharded counterpart of
// SolverStressScenario: the same file-per-process stress traffic split
// across `shards` independent file systems running under one engine and
// one shared solver, with `writers` ranks (2 × writers flows) per shard.
// It is the source for `BenchmarkSolverSharded*`: the total flow
// population matches a monolithic stress run of shards × writers ranks,
// but each shard is a separate link-connectivity component, so the
// partitioned solver's per-solve scan cost must track the shard size,
// not the population.
func SolverShardedScenario(writers, shards int) (*Platform, []Scenario) {
	plat := Cab()
	out := make([]Scenario, shards)
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("bench-shard%d-solver%d", i, 2*writers)
		cfg := PaperIOR(writers)
		cfg.Label = name
		cfg.FilePerProc = true
		cfg.Collective = false
		cfg.SegmentCount = 2
		cfg.Reps = 1
		out[i] = NewScenario(name, ScenarioJob{Workload: IORWorkload(cfg)})
	}
	return plat, out
}

// PLFSWorkload returns an n-rank application logging through ad_plfs
// (Section VI): every rank appends to its own two-stripe log, so the job
// self-contends at scale. mbPerRank <= 0 selects the Table II volume
// (400 MB).
func PLFSWorkload(ranks int, mbPerRank float64) Workload {
	return workload.PLFSLogger{Ranks: ranks, MBPerRank: mbPerRank}
}

// CheckpointWorkload runs a periodically checkpointing application:
// checkpoints state dumps through the given hints, separated by the
// application's compute phase of virtual time.
func CheckpointWorkload(app Checkpoint, hints Hints, checkpoints int) Workload {
	return workload.Checkpointer{App: app, API: DriverLustre, Hints: hints, Checkpoints: checkpoints}
}

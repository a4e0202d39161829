package workload

import (
	"fmt"

	"pfsim/internal/cluster"
	"pfsim/internal/flow"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

// ShardedResult is the outcome of a RunSharded execution: one Result per
// file system, plus the shared solver's work counters.
type ShardedResult struct {
	// Shards holds one scenario result per file system, in input order.
	// Per-shard Work is zero — the solver and the engine are shared; see
	// the top-level field.
	Shards []*Result
	// Makespan is the virtual time at which the last job of any shard
	// finished.
	Makespan float64
	// Work is the run's one simulation and the shared solver's and
	// engine's work counters. With the partitioned solver each shard is
	// its own link-connectivity component, so ComponentFlowsScanned /
	// ComponentsSolved reflects per-shard, not total, population.
	Work Work
}

// RunSharded executes several scenarios as independent file systems
// ("shards") under one engine and one shared fluid network — the
// shared-nothing deployment shape: one simulation, many installations,
// disjoint link sets. Shard i runs on its own lustre.System (own MDS,
// OSTs, jitter draws, RNG stream forked from the scenario's labels and the
// shard index); the solver partitions the population by link
// connectivity, so cross-shard interference is structurally impossible
// and a change in one shard's traffic never scans another's flows. The
// run is deterministic for a given (platform, scenarios, seed) triple;
// seed 0 selects plat.Seed. Instrument hooks run against each freshly
// built system (shard index first) before any job launches.
func RunSharded(plat *cluster.Platform, shards []Scenario, seed uint64, instrument ...func(int, *lustre.System)) (*ShardedResult, error) {
	return RunShardedWith(plat, shards, RunOptions{Seed: seed}, instrument...)
}

// RunShardedWith is RunSharded with explicit run options: the seed and a
// cancellation context. The simulation runs on the calling goroutine. Ctx
// is polled every few thousand fired events across the (single, long)
// engine run; on cancellation the engine stops, its processes drain, and
// the call returns ctx.Err(). Instrument hooks run against each freshly
// built system and may change its settings.
func RunShardedWith(plat *cluster.Platform, shards []Scenario, opts RunOptions, instrument ...func(int, *lustre.System)) (*ShardedResult, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("workload: sharded run has no scenarios")
	}
	allCfgs := make([][]ior.Config, len(shards))
	for i, s := range shards {
		cfgs, err := s.materialise(plat)
		if err != nil {
			return nil, fmt.Errorf("workload: shard %d: %w", i, err)
		}
		allCfgs[i] = cfgs
	}
	seed := opts.Seed
	if seed == 0 {
		seed = plat.Seed
	}
	eng := sim.NewEngine()
	net := flow.NewNet(eng)
	base := stats.NewRNG(seed)
	out := &ShardedResult{Shards: make([]*Result, len(shards))}
	launches := make([]*launchState, len(shards))
	for i, s := range shards {
		fork := s.seedHash(allCfgs[i]) ^ ior.HashLabel(fmt.Sprintf("shard%d", i))
		sys, err := lustre.NewSharedSystem(eng, net, plat, base.Fork(fork), fmt.Sprintf("fs%d/", i))
		if err != nil {
			return nil, err
		}
		for _, fn := range instrument {
			fn(i, sys)
		}
		res := &Result{Scenario: s, Jobs: make([]JobResult, len(allCfgs[i]))}
		out.Shards[i] = res
		launches[i] = launchScenario(sys, s, allCfgs[i], res)
	}
	cancelled := watchContext(eng, opts.Ctx)
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("workload: sharded run failed: %w", err)
	}
	if err := cancelled(); err != nil {
		return nil, err
	}
	// Surface launch failures first: a failed shard stops the engine early,
	// leaving other shards' delayed jobs unlaunched — their finish must not
	// mask the root cause.
	for i, ls := range launches {
		if ls.err != nil {
			return nil, fmt.Errorf("workload: shard %d: %w", i, ls.err)
		}
	}
	for i, ls := range launches {
		if err := ls.finish(out.Shards[i]); err != nil {
			return nil, fmt.Errorf("workload: shard %d: %w", i, err)
		}
		if out.Shards[i].Makespan > out.Makespan {
			out.Makespan = out.Shards[i].Makespan
		}
	}
	out.Work = simulation(eng, net)
	return out, nil
}

// Aggregate summarises the sharded run across every shard's jobs, shard
// by shard, with the same fold as Result.Aggregate over the union of the
// jobs. RunSharded computes no slowdown baselines, but ApplySolo on the
// per-shard results fills them in.
func (r *ShardedResult) Aggregate() Aggregate { return aggregate(r.Shards...) }

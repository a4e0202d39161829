package workload

import (
	"fmt"

	"pfsim/internal/cluster"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
	"pfsim/internal/pool"
	"pfsim/internal/stats"
)

// ShardedResult is the outcome of a RunSharded execution: one Result per
// file system, plus the summed work of their simulations.
type ShardedResult struct {
	// Shards holds one scenario result per file system, in input order,
	// each with its own simulation's Work.
	Shards []*Result
	// Makespan is the virtual time at which the last job of any shard
	// finished.
	Makespan float64
	// Work is the sum of the shards' Work: one simulation per shard.
	Work Work
}

// RunSharded executes several scenarios as independent file systems
// ("shards") — the shared-nothing deployment shape: many installations
// that never share a link, a server or a job. Each shard is a simulation
// of its own, run as RunScenario runs one: its own engine, network, MDS,
// OSTs and jitter draws, on an RNG stream forked from the run's seed, the
// scenario's labels and the shard index. The run is deterministic for a
// given (platform, scenarios, seed) triple; seed 0 selects plat.Seed.
// Instrument hooks run against each freshly built system (shard index
// first) before any of its jobs launches.
func RunSharded(plat *cluster.Platform, shards []Scenario, seed uint64, instrument ...func(int, *lustre.System)) (*ShardedResult, error) {
	return RunShardedWith(plat, shards, RunOptions{Seed: seed}, instrument...)
}

// RunShardedWith is RunSharded with explicit run options. The shards'
// simulations fan across a pool of opts.Parallelism workers (values below
// one select GOMAXPROCS), each on one goroutine; every shard's stream is
// forked before any runs, in shard order, so results are byte-identical
// at any width. opts.Ctx is polled every few thousand fired events of
// each running shard and between shards; on cancellation the call
// returns ctx.Err(). A failure names the lowest-index failing shard.
// Instrument hooks run on their shard's goroutine and may change its
// system's settings; at widths above one, hooks for different shards may
// run concurrently, so a hook must touch only the system it is given (or
// synchronise itself).
func RunShardedWith(plat *cluster.Platform, shards []Scenario, opts RunOptions, instrument ...func(int, *lustre.System)) (*ShardedResult, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("workload: sharded run has no scenarios")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = plat.Seed
	}
	base := stats.NewRNG(seed)
	cfgs := make([][]ior.Config, len(shards))
	rngs := make([]*stats.RNG, len(shards))
	for i, s := range shards {
		c, err := s.materialise(plat)
		if err != nil {
			return nil, fmt.Errorf("workload: shard %d: %w", i, err)
		}
		cfgs[i] = c
		rngs[i] = base.Fork(s.seedHash(c) ^ ior.HashLabel(fmt.Sprintf("shard%d", i)))
	}
	out := &ShardedResult{Shards: make([]*Result, len(shards))}
	err := pool.Run(opts.Ctx, opts.Parallelism, len(shards), func(i int) error {
		hooks := make([]func(*lustre.System), len(instrument))
		for k, fn := range instrument {
			hooks[k] = func(sys *lustre.System) { fn(i, sys) }
		}
		res, err := simulate(plat, shards[i], cfgs[i], rngs[i], opts.Ctx, hooks)
		if err != nil {
			return fmt.Errorf("workload: shard %d: %w", i, err)
		}
		out.Shards[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, sh := range out.Shards {
		if sh.Makespan > out.Makespan {
			out.Makespan = sh.Makespan
		}
		out.Work.Add(sh.Work)
	}
	return out, nil
}

// Aggregate summarises the sharded run across every shard's jobs, shard
// by shard, with the same fold as Result.Aggregate over the union of the
// jobs. RunSharded computes no slowdown baselines, but ApplySolo on the
// per-shard results fills them in.
func (r *ShardedResult) Aggregate() Aggregate { return aggregate(r.Shards...) }

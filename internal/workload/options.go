package workload

import (
	"context"

	"pfsim/internal/sim"
)

// RunOptions configures a run beyond the platform: the RNG seed, the
// width of the pool its solo baselines fan across, and an optional
// cancellation context. The zero value reproduces the plain
// RunScenario/RunSharded behaviour (platform seed, no cancellation).
type RunOptions struct {
	// Seed drives OST layouts and service jitter; 0 selects plat.Seed.
	Seed uint64
	// Parallelism is the number of workers RunBaselines fans its solo
	// simulations across (values below one select GOMAXPROCS), and
	// nothing else reads it: every simulation, RunScenarioWith's and
	// RunShardedWith's included, runs on one goroutine, so results are
	// byte-identical at any width.
	Parallelism int
	// Ctx, when it carries a Done channel, aborts the simulation mid-run:
	// the engine polls it every few thousand fired events — bounding
	// cancellation latency in wall-clock terms however dense or sparse
	// the event schedule — stops once the context is cancelled, and the
	// run returns ctx.Err(). A nil or background context never cancels.
	Ctx context.Context
}

// ctxCheckEvents is the cancellation polling period, in fired engine
// events. Events are what consume wall-clock time — virtual time is
// free — so polling per event batch bounds cancellation latency in the
// unit that matters: a dense simulation (millions of events inside one
// virtual second) notices a cancel within one batch, and a sparse
// long-horizon one pays almost no polls at all. A context poll is two
// atomic-ish reads; at this period the overhead is unmeasurable.
const ctxCheckEvents = 4096

// watchContext arms cancellation on eng: a context already cancelled at
// arm time stops the engine before it runs at all; otherwise a poll hook
// (sim.Engine.SetPoll) checks the context every ctxCheckEvents fired
// events and stops the engine once it is done. The hook injects no
// events and touches no simulation state, so a watched run's physics —
// event order, virtual time, every result — is byte-identical to an
// unwatched one. The returned func reports the context error to surface
// after eng.Run(); it returns nil for contexts that cannot be cancelled,
// which arm nothing at all.
func watchContext(eng *sim.Engine, ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return func() error { return nil }
	}
	if ctx.Err() != nil {
		eng.Stop() // honoured by Run even before it starts
		return func() error { return ctx.Err() }
	}
	eng.SetPoll(ctxCheckEvents, func() {
		if ctx.Err() != nil {
			eng.Stop()
		}
	})
	return func() error { return ctx.Err() }
}

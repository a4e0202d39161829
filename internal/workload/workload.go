// Package workload models the applications that motivate the paper:
// long-running simulations that periodically checkpoint their state to the
// parallel file system to survive node failures. It provides a
// compute/checkpoint cycle model, optimal-interval analysis (Young's
// approximation), and a multi-tenant job generator for contention studies
// beyond the paper's fixed four-job scenario. Its scenario runner
// (RunScenarioWith, RunShardedWith) is the one place a simulation's
// engine is built and run: scenario files, the Go API, the sweeps and
// the paper experiments all run through it.
package workload

import (
	"fmt"
	"math"

	"pfsim/internal/ior"
	"pfsim/internal/mpiio"
)

// Checkpoint describes a periodic checkpointing application.
type Checkpoint struct {
	// Ranks is the number of MPI processes.
	Ranks int
	// StateMBPerRank is the checkpoint volume each rank owns.
	StateMBPerRank float64
	// ComputeSeconds is the useful compute time between checkpoints.
	ComputeSeconds float64
	// MTBFSeconds is the machine's mean time between failures.
	MTBFSeconds float64
}

// TotalStateMB is the volume of one checkpoint.
func (c Checkpoint) TotalStateMB() float64 {
	return c.StateMBPerRank * float64(c.Ranks)
}

// WriteSeconds is the duration of one checkpoint at the given file system
// bandwidth.
func (c Checkpoint) WriteSeconds(mbs float64) float64 {
	if mbs <= 0 {
		return math.Inf(1)
	}
	return c.TotalStateMB() / mbs
}

// Efficiency is the fraction of wall-clock time spent computing when
// checkpointing every ComputeSeconds at bandwidth mbs, ignoring failures:
// compute / (compute + write).
func (c Checkpoint) Efficiency(mbs float64) float64 {
	w := c.WriteSeconds(mbs)
	return c.ComputeSeconds / (c.ComputeSeconds + w)
}

// YoungInterval returns Young's approximation of the optimal checkpoint
// interval: sqrt(2 * writeTime * MTBF). Faster checkpoints (higher
// bandwidth) permit shorter intervals and lose less work per failure —
// the link between the paper's I/O tuning and application throughput.
func (c Checkpoint) YoungInterval(mbs float64) float64 {
	w := c.WriteSeconds(mbs)
	if math.IsInf(w, 1) || c.MTBFSeconds <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(2 * w * c.MTBFSeconds)
}

// GoodputFraction estimates the fraction of time spent on useful work when
// checkpointing at Young's interval with failures of rate 1/MTBF: each
// cycle spends interval+write time, delivers interval of work, and each
// failure wastes half an interval plus a restart (one write time).
func (c Checkpoint) GoodputFraction(mbs float64) float64 {
	w := c.WriteSeconds(mbs)
	if math.IsInf(w, 1) {
		return 0
	}
	tau := c.YoungInterval(mbs)
	if math.IsInf(tau, 1) {
		// No failures: pure compute/write duty cycle at the configured
		// interval.
		return c.ComputeSeconds / (c.ComputeSeconds + w)
	}
	cycle := tau + w
	// Expected loss per unit time from failures: (tau/2 + w) / MTBF.
	lossRate := (float64(tau/2) + w) / c.MTBFSeconds
	gross := tau / cycle
	net := gross * (1 - lossRate)
	if net < 0 {
		return 0
	}
	return net
}

// IORConfig converts the checkpoint into an equivalent IOR workload: one
// segment holding the rank's state, written collectively.
func (c Checkpoint) IORConfig(api mpiio.Driver, hints mpiio.Hints) ior.Config {
	return ior.Config{
		Label:          fmt.Sprintf("checkpoint-%d", c.Ranks),
		API:            api,
		BlockSizeMB:    c.StateMBPerRank,
		TransferSizeMB: math.Min(1, c.StateMBPerRank),
		SegmentCount:   1,
		NumTasks:       c.Ranks,
		WriteFile:      true,
		Collective:     true,
		Hints:          hints,
		Reps:           1,
	}
}

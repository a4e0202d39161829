// Package pfsim is a simulation toolkit for quantifying the effects of
// contention on parallel file systems, reproducing Wright & Jarvis
// (IPDPSW 2015). It bundles:
//
//   - the paper's contention metrics (Equations 1-6): expected OSTs in
//     use, total demand and per-OST load for concurrent striped jobs and
//     for PLFS-style per-rank logging;
//   - a calibrated discrete-event simulator of the Cab/lscratchc Lustre
//     installation (MDS allocation, OST service classes, collective
//     buffering, PLFS containers) able to regenerate every table and
//     figure of the paper;
//   - an IOR-compatible workload engine, an exhaustive configuration
//     sweep, a genetic autotuner, and QoS/capacity-planning helpers.
//
// The quickest entry points:
//
//	plat := pfsim.Cab()
//	res, err := pfsim.RunIOR(plat, pfsim.TunedIOR(1024))
//	fmt.Println(res.Write.Mean()) // ≈15.6 GB/s
//
//	rows := pfsim.LoadTable(pfsim.Lscratchc(), 160, 10) // Table III
//
// Every simulation is deterministic for a given platform seed.
package pfsim

import (
	"pfsim/internal/cluster"
	"pfsim/internal/core"
	"pfsim/internal/experiments"
	"pfsim/internal/ior"
	"pfsim/internal/mpiio"
	"pfsim/internal/stats"
	"pfsim/internal/sweep"
	"pfsim/internal/workload"
)

// Platform describes a simulated machine; see the fields of
// cluster.Platform for the calibrated model constants.
type Platform = cluster.Platform

// Cab returns the paper's testbed: the Cab cluster with the lscratchc
// Lustre file system (480 OSTs, 32 OSSs, Lustre 2.4.2 limits).
func Cab() *Platform { return cluster.Cab() }

// Stampede returns the Stampede I/O configuration analysed in Table VI.
func Stampede() *Platform { return cluster.Stampede() }

// FileSystem is the OST population view used by the analytic metrics.
type FileSystem = core.FileSystem

// Lscratchc returns the 480-OST file system of the paper.
func Lscratchc() FileSystem { return core.Lscratchc() }

// StampedeFS returns the 160-OST file-system view of Stampede analysed in
// Table VI.
func StampedeFS() FileSystem { return core.Stampede() }

// LoadRow is one row of the paper's load tables.
type LoadRow = core.LoadRow

// QoS bundles availability metrics for concurrent striped jobs.
type QoS = core.QoS

// Dinuse returns the expected number of OSTs in use when n jobs each
// stripe over r of dtotal OSTs (Equation 2).
func Dinuse(dtotal, r, n int) float64 { return core.Dinuse(dtotal, r, n) }

// DinuseRecurrence evaluates Equation 1 for heterogeneous requests.
func DinuseRecurrence(dtotal int, requests []int) []float64 {
	return core.DinuseRecurrence(dtotal, requests)
}

// Dload returns the expected average load of in-use OSTs (Equation 4).
func Dload(dtotal, r, n int) float64 { return core.Dload(dtotal, r, n) }

// PLFSLoad returns the OST load induced by an n-rank PLFS application
// (Equation 6).
func PLFSLoad(dtotal, ranks int) float64 { return core.PLFSLoad(dtotal, ranks) }

// PLFSDinuse returns the OSTs used by an n-rank PLFS application
// (Equation 5).
func PLFSDinuse(dtotal, ranks int) float64 { return core.PLFSDinuse(dtotal, ranks) }

// LoadTable computes the rows of Tables III/IV/VI for 1..maxJobs jobs.
func LoadTable(fs FileSystem, r, maxJobs int) []LoadRow {
	return core.LoadTable(fs, r, maxJobs)
}

// Availability computes QoS metrics for n jobs of r stripes on fs.
func Availability(fs FileSystem, r, n int) QoS { return core.Availability(fs, r, n) }

// RecommendRequest returns the smallest candidate stripe request that
// keeps the predicted load at or below maxLoad with n concurrent jobs.
func RecommendRequest(fs FileSystem, n int, maxLoad float64, candidates []int) int {
	return core.RecommendRequest(fs, n, maxLoad, candidates)
}

// MinOSTsForLoad sizes a file system: the fewest OSTs keeping n jobs of r
// stripes at or below maxLoad (the paper's purchasing question).
func MinOSTsForLoad(r, n int, maxLoad float64) int {
	return core.MinOSTsForLoad(r, n, maxLoad)
}

// PLFSBreakEvenRanks returns the PLFS rank count at which average OST
// load exceeds maxLoad on a dtotal-OST system.
func PLFSBreakEvenRanks(dtotal int, maxLoad float64) int {
	return core.PLFSBreakEvenRanks(dtotal, maxLoad)
}

// Driver selects the simulated MPI-IO driver.
type Driver = mpiio.Driver

// Drivers, as in ROMIO.
const (
	DriverUFS    = mpiio.DriverUFS
	DriverLustre = mpiio.DriverLustre
	DriverPLFS   = mpiio.DriverPLFS
)

// Hints are the MPI-IO tuning hints.
type Hints = mpiio.Hints

// IORConfig describes one IOR execution.
type IORConfig = ior.Config

// IORResult aggregates an execution's repetitions.
type IORResult = ior.Result

// PaperIOR returns the Table II workload for the given task count
// (4 MB blocks × 100 segments, 1 MB transfers, write-only, collective).
func PaperIOR(tasks int) IORConfig { return ior.PaperConfig(tasks) }

// TunedIOR returns the Table II workload with the optimal configuration
// found by the paper's sweep (160 stripes × 128 MB).
func TunedIOR(tasks int) IORConfig {
	cfg := ior.PaperConfig(tasks)
	cfg.Hints = ior.TunedHints()
	return cfg
}

// TunedHints returns the paper's optimal hints.
func TunedHints() Hints { return ior.TunedHints() }

// RunIOR executes one IOR configuration on a fresh simulated system. It
// is a thin wrapper over the Scenario/Runner API: a single-job scenario
// run serially, byte-identical to earlier releases.
func RunIOR(plat *Platform, cfg IORConfig) (*IORResult, error) {
	return NewRunner(WithParallelism(1), WithoutSlowdowns()).RunIOR(plat, cfg)
}

// RunContended executes n simultaneous copies of cfg on one simulated
// system (disjoint node ranges), the Section V scenario. It is a thin
// wrapper over Runner.RunContended; use a Runner directly for
// heterogeneous mixes, start times, or slowdown reporting. Its RNG stream
// forks from cfg's label and n, as the paper's Figure 3 and Table V do,
// not from the job labels as other scenarios' streams do.
func RunContended(plat *Platform, cfg IORConfig, n int) ([]*IORResult, error) {
	return NewRunner(WithParallelism(1), WithoutSlowdowns()).RunContended(plat, cfg, n)
}

// SweepPoint is one sampled configuration of a parameter search.
type SweepPoint = sweep.Point

// SweepGrid is the result of an exhaustive sweep.
type SweepGrid = sweep.Grid

// SweepOptions configures a sweep run (workload shape; the Runner
// supplies parallelism, context and progress).
type SweepOptions = sweep.Options

// SweepCounts returns the paper's Figure 1 stripe-count axis for a
// platform.
func SweepCounts(plat *Platform) []int { return sweep.CountsUpTo(plat) }

// Autotune performs the exhaustive (count × size) sweep of Section IV and
// returns the optimum. Reps controls repetitions per configuration. It is
// a thin wrapper over Runner.Autotune with one worker per core.
func Autotune(plat *Platform, tasks, reps int) (SweepPoint, error) {
	return NewRunner().Autotune(plat, tasks, reps)
}

// Checkpoint models a periodically checkpointing application.
type Checkpoint = workload.Checkpoint

// Assignment is a realised random OST layout for concurrent jobs.
type Assignment = core.Assignment

// AssignOSTs simulates the MDS assignment policy: n jobs × r random OSTs.
func AssignOSTs(seed uint64, dtotal, r, n int) Assignment {
	return core.Assign(stats.NewRNG(seed), dtotal, r, n)
}

// Experiment regenerates one paper artefact ("figure1" ... "table9") or
// extra ("ablation-aggcap", "ablation-thrash", "extension-ga"). Quick
// trades repetitions for speed.
func Experiment(id string, plat *Platform, quick bool) (*experiments.Outcome, error) {
	run, ok := experiments.Lookup(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return run(experiments.Options{Plat: plat, Quick: quick})
}

// ExperimentIDs lists the paper artefacts in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// ExtraExperimentIDs lists ablations and extensions.
func ExtraExperimentIDs() []string { return experiments.ExtraIDs() }

// UnknownExperimentError reports a bad experiment id.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "pfsim: unknown experiment " + e.ID
}

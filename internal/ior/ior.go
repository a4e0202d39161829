// Package ior reimplements the IOR benchmark over the simulated MPI-IO
// stack: segmented shared-file or file-per-process workloads, configurable
// block/transfer sizes and repetition counts, with bandwidth accounted the
// way IOR reports it (total bytes over the open-to-close span of the
// slowest rank). Table II of the paper is the PaperConfig preset.
package ior

import (
	"fmt"
	"math"

	"pfsim/internal/cluster"
	"pfsim/internal/core"
	"pfsim/internal/flow"
	"pfsim/internal/lustre"
	"pfsim/internal/mpi"
	"pfsim/internal/mpiio"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

// Config describes one IOR execution.
type Config struct {
	// Label names the run in reports.
	Label string
	// API selects the MPI-IO driver.
	API mpiio.Driver
	// BlockSizeMB is the contiguous block each rank writes per segment.
	BlockSizeMB float64
	// TransferSizeMB is the size of each I/O request.
	TransferSizeMB float64
	// SegmentCount is the number of segments (blocks per rank).
	SegmentCount int
	// NumTasks is the number of MPI ranks.
	NumTasks int
	// WriteFile / ReadFile select the phases (Table II: write on, read off).
	WriteFile bool
	ReadFile  bool
	// FilePerProc gives every rank a private file written as a dedicated
	// sequential stream (the Figure 2 benchmark) instead of a shared file.
	FilePerProc bool
	// Collective uses collective buffering for shared files (default
	// true in the paper); false issues independent writes.
	Collective bool
	// Hints are the MPI-IO hints (ad_lustre tuning knobs).
	Hints mpiio.Hints
	// Reps is the number of repetitions; each recreates the file and so
	// redraws its OST layout.
	Reps int
	// ComputeSeconds inserts a compute phase of this many virtual seconds
	// between repetitions. Periodic checkpointers use it to space their
	// writes out in time instead of issuing them back to back.
	ComputeSeconds float64
	// FirstNode places the job on the cluster (jobs in contended
	// experiments occupy disjoint node ranges).
	FirstNode int
}

// PaperConfig returns the Table II configuration: MPI-IO, write-only,
// 4 MB blocks, 1 MB transfers, 100 segments, collective I/O.
func PaperConfig(tasks int) Config {
	return Config{
		Label:          fmt.Sprintf("ior-%d", tasks),
		API:            mpiio.DriverLustre,
		BlockSizeMB:    4,
		TransferSizeMB: 1,
		SegmentCount:   100,
		NumTasks:       tasks,
		WriteFile:      true,
		Collective:     true,
		Hints:          mpiio.NewHints(),
		Reps:           5,
	}
}

// TunedHints returns the optimal configuration found by the paper's
// parameter sweep: 160 stripes of 128 MB.
func TunedHints() mpiio.Hints {
	h := mpiio.NewHints()
	h.StripingFactor = 160
	h.StripingUnitMB = 128
	return h
}

// PerRankMB is the volume each rank writes per phase.
func (c Config) PerRankMB() float64 { return c.BlockSizeMB * float64(c.SegmentCount) }

// TotalMB is the volume the whole job writes per phase.
func (c Config) TotalMB() float64 { return c.PerRankMB() * float64(c.NumTasks) }

// Validate reports the first problem with the configuration for plat.
func (c Config) Validate(plat *cluster.Platform) error {
	switch {
	case c.NumTasks <= 0:
		return fmt.Errorf("ior: NumTasks %d must be positive", c.NumTasks)
	case math.IsNaN(c.BlockSizeMB) || math.IsInf(c.BlockSizeMB, 0):
		return fmt.Errorf("ior: BlockSizeMB %v must be finite", c.BlockSizeMB)
	case math.IsNaN(c.TransferSizeMB) || math.IsInf(c.TransferSizeMB, 0):
		return fmt.Errorf("ior: TransferSizeMB %v must be finite", c.TransferSizeMB)
	case c.BlockSizeMB <= 0 || c.TransferSizeMB <= 0:
		return fmt.Errorf("ior: block/transfer sizes must be positive")
	case c.TransferSizeMB > c.BlockSizeMB:
		return fmt.Errorf("ior: transfer %v exceeds block %v", c.TransferSizeMB, c.BlockSizeMB)
	case c.SegmentCount <= 0:
		return fmt.Errorf("ior: SegmentCount must be positive")
	case c.Reps <= 0:
		return fmt.Errorf("ior: Reps must be positive")
	case !c.WriteFile && !c.ReadFile:
		return fmt.Errorf("ior: nothing to do (write and read both off)")
	case c.FirstNode < 0:
		return fmt.Errorf("ior: FirstNode must be non-negative")
	case c.ComputeSeconds < 0 || math.IsNaN(c.ComputeSeconds):
		return fmt.Errorf("ior: ComputeSeconds %v must be non-negative", c.ComputeSeconds)
	case math.IsInf(c.ComputeSeconds, 1):
		return fmt.Errorf("ior: ComputeSeconds %v must be finite", c.ComputeSeconds)
	}
	nodes := plat.NodesFor(c.NumTasks)
	if c.FirstNode+nodes > plat.Nodes {
		return fmt.Errorf("ior: job needs nodes %d..%d but platform has %d",
			c.FirstNode, c.FirstNode+nodes-1, plat.Nodes)
	}
	return nil
}

// Result aggregates the repetitions of one IOR execution.
type Result struct {
	Config Config
	// Write and Read hold per-repetition aggregate bandwidths (MB/s).
	Write *stats.Sample
	Read  *stats.Sample
	// LayoutOSTs records the shared file's OST layout per repetition
	// (nil entries for PLFS, which has per-rank layouts).
	LayoutOSTs [][]int
	// PLFS holds the realised per-rank backend assignment per repetition
	// for PLFS runs.
	PLFS []core.Assignment
}

// PerProcWrite returns write bandwidth divided by task count — the
// per-processor metric of Figure 2.
func (r *Result) PerProcWrite() *stats.Sample {
	out := &stats.Sample{}
	for _, bw := range r.Write.Values() {
		out.Add(bw / float64(r.Config.NumTasks))
	}
	return out
}

// Run executes the configuration on a fresh simulated system and returns
// per-repetition bandwidths. The run is deterministic for a given
// (platform seed, config) pair.
func Run(plat *cluster.Platform, cfg Config) (*Result, error) {
	if err := cfg.Validate(plat); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	sys, err := lustre.NewSystem(eng, plat, stats.NewRNG(plat.Seed).Fork(hashLabel(cfg.Label)))
	if err != nil {
		return nil, err
	}
	res := newResult(cfg)
	job := &job{sys: sys, cfg: cfg, res: res}
	job.launch()
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("ior: simulation failed: %w", err)
	}
	return res, job.err
}

// RunContended executes n simultaneous copies of base on one simulated
// system, each on a disjoint node range, all started at time zero — the
// Section V contention experiments. Jobs repeat their reps back-to-back
// and drift apart naturally, as on the real machine.
func RunContended(plat *cluster.Platform, base Config, n int) ([]*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ior: need at least one job")
	}
	eng := sim.NewEngine()
	sys, err := lustre.NewSystem(eng, plat, stats.NewRNG(plat.Seed).Fork(hashLabel(base.Label)+uint64(n)))
	if err != nil {
		return nil, err
	}
	nodes := plat.NodesFor(base.NumTasks)
	results := make([]*Result, n)
	jobs := make([]*job, n)
	for j := 0; j < n; j++ {
		cfg := base
		cfg.Label = fmt.Sprintf("%s-job%d", base.Label, j)
		cfg.FirstNode = j * nodes
		if err := cfg.Validate(plat); err != nil {
			return nil, err
		}
		results[j] = newResult(cfg)
		jobs[j] = &job{sys: sys, cfg: cfg, res: results[j]}
		jobs[j].launch()
	}
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("ior: contended simulation failed: %w", err)
	}
	for _, jb := range jobs {
		if jb.err != nil {
			return nil, jb.err
		}
	}
	return results, nil
}

func newResult(cfg Config) *Result {
	return &Result{Config: cfg, Write: &stats.Sample{}, Read: &stats.Sample{}}
}

func hashLabel(s string) uint64 {
	// FNV-1a; labels seed per-run RNG streams deterministically.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashLabel is the RNG-fork key Run derives from a config label. Scenario
// execution reuses it so a single-job scenario reproduces Run exactly.
func HashLabel(s string) uint64 { return hashLabel(s) }

// RunningJob is a job launched on a shared simulated system via StartJob.
type RunningJob struct {
	// Result fills in as repetitions complete.
	Result *Result
	// Done fires when every rank's body has returned.
	Done *sim.Signal
	j    *job
}

// Err reports a failure inside the job's ranks (nil while healthy).
func (r *RunningJob) Err() error { return r.j.err }

// StartJob launches cfg on an existing simulated system at the current
// virtual time. It is the building block for schedulers and custom
// multi-job scenarios; Run and RunContended remain the conveniences for
// one-shot executions.
func StartJob(sys *lustre.System, cfg Config) (*RunningJob, error) {
	if err := cfg.Validate(sys.Platform()); err != nil {
		return nil, err
	}
	res := newResult(cfg)
	j := &job{sys: sys, cfg: cfg, res: res}
	w := j.launch()
	return &RunningJob{Result: res, Done: w.Done(), j: j}, nil
}

// job drives one IOR execution inside a shared simulation.
type job struct {
	sys *lustre.System
	cfg Config
	res *Result
	err error
}

func (j *job) launch() *mpi.World {
	cfg := j.cfg
	w := mpi.NewWorld(j.sys.Engine(), cfg.NumTasks, j.sys.Platform().CoresPerNode, cfg.FirstNode)
	// Shared files are allocated up front so every rank of a repetition
	// uses the same handle; layouts are still drawn at Open time.
	files := make([]*mpiio.File, cfg.Reps)
	if !cfg.FilePerProc {
		for rep := range files {
			files[rep] = mpiio.NewFile(j.sys, w.Comm(),
				fmt.Sprintf("%s.rep%d", cfg.Label, rep), cfg.API, cfg.Hints)
		}
	}
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		j.runRepK(w, r, files, 0, done)
	})
	return w
}

// runRepK runs repetition rep and then the next: the compute gap precedes
// every repetition but the first, a FilePerProc rank splits off its
// private communicator and file per repetition, and a phase error stops
// this rank only if it is the first error of the job.
func (j *job) runRepK(w *mpi.World, r *mpi.Rank, files []*mpiio.File, rep int, done func()) {
	cfg := j.cfg
	if rep >= cfg.Reps {
		done()
		return
	}
	run := func() {
		withFile := func(k func(*mpiio.File)) {
			if cfg.FilePerProc {
				w.Comm().SplitK(r, r.ID(), 0, func(sub *mpi.Comm) {
					k(mpiio.NewFile(j.sys, sub,
						fmt.Sprintf("%s.rep%d.rank%d", cfg.Label, rep, r.ID()), cfg.API, cfg.Hints))
				})
				return
			}
			k(files[rep])
		}
		withFile(func(f *mpiio.File) {
			j.phaseK(w, r, f, func(err error) {
				if err != nil && j.err == nil {
					j.err = err
					done()
					return
				}
				j.runRepK(w, r, files, rep+1, done)
			})
		})
	}
	if rep > 0 && cfg.ComputeSeconds > 0 {
		r.Task().Sleep(cfg.ComputeSeconds, run)
		return
	}
	run()
}

// phaseK runs the write (and optional read) phase of one repetition:
// barrier/reduce brackets around open-write-close and the read pass, with
// rank 0 recording the aggregate bandwidths.
func (j *job) phaseK(w *mpi.World, r *mpi.Rank, f *mpiio.File, k func(error)) {
	cfg := j.cfg
	t := r.Task()
	readPhase := func() {
		if !cfg.ReadFile {
			k(nil)
			return
		}
		w.Comm().BarrierK(r, func() {
			w.Comm().AllreduceMinK(r, t.Now(), func(t0 float64) {
				f.ReadAllK(r, cfg.PerRankMB(), cfg.TransferSizeMB, func(err error) {
					if err != nil {
						k(err)
						return
					}
					w.Comm().AllreduceMaxK(r, t.Now(), func(t1 float64) {
						if w.Comm().RankOf(r) == 0 {
							j.res.Read.Add(cfg.TotalMB() / (t1 - t0))
						}
						k(nil)
					})
				})
			})
		})
	}
	w.Comm().BarrierK(r, func() {
		if !cfg.WriteFile {
			readPhase()
			return
		}
		w.Comm().AllreduceMinK(r, t.Now(), func(t0 float64) {
			f.OpenK(r, func(err error) {
				if err != nil {
					k(err)
					return
				}
				j.doWriteK(r, f, func(err error) {
					if err != nil {
						k(err)
						return
					}
					f.CloseK(r, func() {
						w.Comm().AllreduceMaxK(r, t.Now(), func(t1 float64) {
							if w.Comm().RankOf(r) == 0 {
								j.record(j.res.Write, f, t1-t0)
							}
							readPhase()
						})
					})
				})
			})
		})
	})
}

// doWriteK issues the rank's write for the configured access pattern:
// file-per-process, collective or independent.
func (j *job) doWriteK(r *mpi.Rank, f *mpiio.File, k func(error)) {
	cfg := j.cfg
	per := cfg.PerRankMB()
	switch {
	case cfg.FilePerProc:
		j.writeFilePerProcK(r, f, k)
	case cfg.Collective:
		f.WriteAllK(r, per, cfg.TransferSizeMB, k)
	default:
		f.WriteIndependentK(r, per, cfg.TransferSizeMB, k)
	}
}

// writeFilePerProcK streams the rank's data to its private file as a
// dedicated sequential writer — the access pattern of the paper's
// single-OST contention benchmark.
func (j *job) writeFilePerProcK(r *mpi.Rank, f *mpiio.File, k func(error)) {
	layout := f.Layout()
	if layout == nil {
		// PLFS + FilePerProc degenerates to the same per-rank logs.
		f.WriteAllK(r, j.cfg.PerRankMB(), j.cfg.TransferSizeMB, k)
		return
	}
	t := r.Task()
	sim.AwaitAll(t, flow.Dones(j.sys.StartWrites(j.filePerProcReqs(r, f, layout))), func() { k(nil) })
}

// filePerProcReqs builds the rank's dedicated sequential streams onto its
// private file's OSTs.
func (j *job) filePerProcReqs(r *mpi.Rank, f *mpiio.File, layout *lustre.Layout) []lustre.WriteReq {
	shares := layout.BytesPerOST(j.cfg.PerRankMB())
	var reqs []lustre.WriteReq
	for i, mb := range shares {
		if mb <= 0 {
			continue
		}
		ost := j.sys.OST(layout.OSTs[i])
		reqs = append(reqs, lustre.WriteReq{
			Name:   fmt.Sprintf("fpp:%s:r%d:o%d", j.cfg.Label, r.ID(), ost.ID()),
			SizeMB: mb,
			OST:    ost,
			Opts: lustre.WriteOpts{
				Node:   r.Node(),
				Class:  cluster.ClassSequential,
				FileID: fileIDOf(f, r),
				RPCMB:  j.cfg.TransferSizeMB,
			},
		})
	}
	return reqs
}

func fileIDOf(f *mpiio.File, r *mpi.Rank) int {
	if id := f.FileID(); id != 0 {
		return id
	}
	return r.ID() + 1
}

// record captures bandwidth and layout telemetry for one repetition.
func (j *job) record(sample *stats.Sample, f *mpiio.File, elapsed float64) {
	sample.Add(j.cfg.TotalMB() / elapsed)
	if c := f.Container(); c != nil {
		j.res.PLFS = append(j.res.PLFS, c.Assignment())
		j.res.LayoutOSTs = append(j.res.LayoutOSTs, nil)
		return
	}
	if l := f.Layout(); l != nil {
		osts := make([]int, len(l.OSTs))
		copy(osts, l.OSTs)
		j.res.LayoutOSTs = append(j.res.LayoutOSTs, osts)
	} else {
		j.res.LayoutOSTs = append(j.res.LayoutOSTs, nil)
	}
}

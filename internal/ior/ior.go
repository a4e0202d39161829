// Package ior reimplements the IOR benchmark over the simulated MPI-IO
// stack: segmented shared-file or file-per-process workloads, configurable
// block/transfer sizes and repetition counts, with bandwidth accounted the
// way IOR reports it (total bytes over the open-to-close span of the
// slowest rank). Table II of the paper is the PaperConfig preset. A job
// runs on a simulated system its caller built (StartJob); package
// workload's scenario runner builds the system and runs every job.
package ior

import (
	"fmt"
	"math"

	"pfsim/internal/cluster"
	"pfsim/internal/core"
	"pfsim/internal/lustre"
	"pfsim/internal/mpi"
	"pfsim/internal/mpiio"
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
	// WriteFile / ReadFile select the phases (Table II: write on, read
	// off). The read pass reads the file the write pass creates, so it
	// needs WriteFile.
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

// MaxReps bounds Config.Reps. A run keeps per-repetition results, so an
// unbounded count is unbounded memory; the paper's runs use 5.
const MaxReps = 1 << 16

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
	case c.Reps > MaxReps:
		return fmt.Errorf("ior: Reps %d exceeds %d", c.Reps, MaxReps)
	case !c.WriteFile && !c.ReadFile:
		return fmt.Errorf("ior: nothing to do (write and read both off)")
	case !c.WriteFile:
		return fmt.Errorf("ior: ReadFile needs WriteFile: the read pass reads the file the write pass creates")
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
	if c.API != mpiio.DriverLustre {
		return nil // only ad_lustre passes striping hints to the MDS
	}
	// The hints the MDS would refuse at the job's first create, where the
	// refusal reaches rank 0 alone and the other ranks wait on the open
	// for ever.
	h := &c.Hints
	switch {
	case h.StripingFactor < 0 || h.StripingFactor > plat.MaxStripeCount:
		return fmt.Errorf("ior: stripe count %d outside 0..%d (0 = default)", h.StripingFactor, plat.MaxStripeCount)
	case h.StripingUnitMB < 0 || math.IsNaN(h.StripingUnitMB) || math.IsInf(h.StripingUnitMB, 0):
		return fmt.Errorf("ior: stripe size %v must be finite and >= 0 (0 = default)", h.StripingUnitMB)
	case h.StripeOffset >= plat.OSTs:
		return fmt.Errorf("ior: stripe offset %d beyond %d OSTs", h.StripeOffset, plat.OSTs)
	}
	return nil
}

// Result aggregates the repetitions of one IOR job. The simulation's work
// is counted by the runner that ran it (workload.Result.Work).
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

// HashLabel is the RNG-fork key of a label (FNV-1a): the scenario runner
// forks a run's stream from its job labels, so a run is deterministic for
// a given seed and set of labels.
func HashLabel(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// RunningJob is a job launched on a shared simulated system via StartJob.
type RunningJob struct {
	// Result fills in as repetitions complete.
	Result *Result
	j      *job
}

// Err reports a failure inside the job's ranks (nil while healthy).
func (r *RunningJob) Err() error { return r.j.err }

// FinishedAt returns the virtual time at which the job's last rank
// finished, or 0 while any rank is still running.
func (r *RunningJob) FinishedAt() float64 { return r.j.world.FinishedAt() }

// StartJob launches cfg on an existing simulated system at the current
// virtual time: how a workload scenario launches each of its jobs on the
// system it shares.
func StartJob(sys *lustre.System, cfg Config) (*RunningJob, error) {
	if err := cfg.Validate(sys.Platform()); err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Write: &stats.Sample{}, Read: &stats.Sample{}}
	j := &job{sys: sys, cfg: cfg, res: res}
	j.launch()
	return &RunningJob{Result: res, j: j}, nil
}

// job drives one IOR execution inside a shared simulation.
type job struct {
	sys *lustre.System
	cfg Config
	res *Result
	err error

	world *mpi.World
	// file is the shared file of the latest repetition a rank has
	// reached, and made counts the repetitions whose file exists: the
	// first rank to reach a repetition creates its file. Rep k's barrier
	// and closing reduction are collective, so every rank holds rep k's
	// file before any rank reaches rep k+1. Unused under FilePerProc,
	// whose ranks open private files.
	file *mpiio.File
	made int
}

func (j *job) launch() {
	cfg := &j.cfg
	j.world = mpi.NewWorld(j.sys.Engine(), cfg.NumTasks, j.sys.Platform().CoresPerNode, cfg.FirstNode)
	j.world.LaunchTasks(func(r *mpi.Rank, done func()) {
		rr := &rankRun{j: j, r: r, done: done}
		rr.next, rr.nextVal, rr.nextErr = rr.resume, rr.resumeVal, rr.resumeErr
		rr.startRep()
	})
}

// rankRun is one rank's way through the job's repetitions, as a state
// machine: step names what the rank does when the operation it waits on
// completes. The rank resumes through one method value per continuation
// signature, bound at launch — not a closure per step, nor a method value
// per step: tens of thousands of ranks can be live at once, and each
// bound method value is a heap object per rank.
type rankRun struct {
	j    *job
	r    *mpi.Rank
	done func()
	rep  int
	f    *mpiio.File // the repetition's file
	t0   float64     // the phase's start, reduced over the world
	step step

	next    func()        // rr.resume
	nextVal func(float64) // rr.resumeVal
	nextErr func(error)   // rr.resumeErr
}

// step is a rankRun state: the operation the rank waits on.
type step uint8

const (
	stepCompute     step = iota // the compute gap before a repetition
	stepBarrier                 // the barrier opening a repetition
	stepWriteStart              // the write phase's start-time reduction
	stepOpen                    // the collective open
	stepWrite                   // the rank's write
	stepClose                   // the collective close
	stepWriteEnd                // the write phase's end-time reduction
	stepReadBarrier             // the barrier opening the read phase
	stepReadStart               // the read phase's start-time reduction
	stepRead                    // the collective read
	stepReadEnd                 // the read phase's end-time reduction
)

// resume continues the rank after an operation that delivers nothing.
func (rr *rankRun) resume() { rr.advance(0, nil) }

// resumeVal continues the rank after a reduction.
func (rr *rankRun) resumeVal(v float64) { rr.advance(v, nil) }

// resumeErr continues the rank after an operation that can fail.
func (rr *rankRun) resumeErr(err error) { rr.advance(0, err) }

// startRep starts repetition rr.rep: after the compute gap that precedes
// every repetition but the first, the rank takes the repetition's file —
// splitting off its private communicator and file under FilePerProc —
// and enters the phase barrier. After the last repetition it is done.
func (rr *rankRun) startRep() {
	cfg := &rr.j.cfg
	switch {
	case rr.rep >= cfg.Reps:
		rr.done()
	case rr.rep > 0 && cfg.ComputeSeconds > 0:
		rr.step = stepCompute
		rr.r.Task().Sleep(cfg.ComputeSeconds, rr.next)
	default:
		rr.openRep()
	}
}

// openRep takes the repetition's file and enters the phase barrier.
func (rr *rankRun) openRep() {
	if rr.j.cfg.FilePerProc {
		// A split, a communicator and a file per rank and repetition cost
		// more than binding this continuation per call.
		rr.j.world.Comm().SplitK(rr.r, rr.r.ID(), 0, rr.privateFile)
		return
	}
	j := rr.j
	if j.made == rr.rep {
		// Layouts are drawn at Open time, so creating the file here
		// moves no simulated work.
		j.file = mpiio.NewFile(j.sys, j.world.Comm(),
			fmt.Sprintf("%s.rep%d", j.cfg.Label, rr.rep), j.cfg.API, j.cfg.Hints)
		j.made++
	}
	rr.f = j.file
	rr.step = stepBarrier
	j.world.Comm().BarrierK(rr.r, rr.next)
}

// privateFile opens a FilePerProc rank's file for the repetition on the
// communicator the split gave it, and enters the phase barrier.
func (rr *rankRun) privateFile(sub *mpi.Comm) {
	cfg := &rr.j.cfg
	rr.f = mpiio.NewFile(rr.j.sys, sub,
		fmt.Sprintf("%s.rep%d.rank%d", cfg.Label, rr.rep, rr.r.ID()), cfg.API, cfg.Hints)
	rr.step = stepBarrier
	rr.j.world.Comm().BarrierK(rr.r, rr.next)
}

// advance runs the step after the one the rank waited on, given the value
// or error the operation delivered: barrier and reduction brackets around
// open-write-close and the read pass, with rank 0 recording the aggregate
// bandwidths.
func (rr *rankRun) advance(v float64, err error) {
	j, r, cfg := rr.j, rr.r, &rr.j.cfg
	comm := j.world.Comm()
	if err != nil {
		rr.endRep(err)
		return
	}
	switch rr.step {
	case stepCompute:
		rr.openRep()
	case stepBarrier:
		rr.step = stepWriteStart
		comm.AllreduceMinK(r, r.Task().Now(), rr.nextVal)
	case stepWriteStart:
		rr.t0 = v
		rr.step = stepOpen
		rr.f.OpenK(r, rr.nextErr)
	case stepOpen:
		rr.step = stepWrite
		rr.write()
	case stepWrite:
		rr.step = stepClose
		rr.f.CloseK(r, rr.next)
	case stepClose:
		rr.step = stepWriteEnd
		comm.AllreduceMaxK(r, r.Task().Now(), rr.nextVal)
	case stepWriteEnd:
		if comm.RankOf(r) == 0 {
			j.record(j.res.Write, rr.f, v-rr.t0)
		}
		rr.readPhase()
	case stepReadBarrier:
		rr.step = stepReadStart
		comm.AllreduceMinK(r, r.Task().Now(), rr.nextVal)
	case stepReadStart:
		rr.t0 = v
		rr.step = stepRead
		rr.f.ReadAllK(r, cfg.PerRankMB(), cfg.TransferSizeMB, rr.nextErr)
	case stepRead:
		rr.step = stepReadEnd
		comm.AllreduceMaxK(r, r.Task().Now(), rr.nextVal)
	case stepReadEnd:
		if comm.RankOf(r) == 0 {
			j.res.Read.Add(cfg.TotalMB() / (v - rr.t0))
		}
		rr.endRep(nil)
	}
}

// readPhase runs the optional read pass of the repetition.
func (rr *rankRun) readPhase() {
	if !rr.j.cfg.ReadFile {
		rr.endRep(nil)
		return
	}
	rr.step = stepReadBarrier
	rr.j.world.Comm().BarrierK(rr.r, rr.next)
}

// endRep ends the repetition and starts the next. A phase error stops
// this rank only if it is the first error of the job.
func (rr *rankRun) endRep(err error) {
	if err != nil && rr.j.err == nil {
		rr.j.err = err
		rr.done()
		return
	}
	rr.rep++
	rr.startRep()
}

// write issues the rank's write for the configured access pattern:
// file-per-process, collective or independent.
func (rr *rankRun) write() {
	r, f, cfg := rr.r, rr.f, &rr.j.cfg
	per := cfg.PerRankMB()
	switch {
	case cfg.FilePerProc:
		rr.writeOwnFile()
	case cfg.Collective:
		f.WriteAllK(r, per, cfg.TransferSizeMB, rr.nextErr)
	default:
		f.WriteIndependentK(r, per, cfg.TransferSizeMB, rr.nextErr)
	}
}

// writeOwnFile streams the rank's data to its private file as a
// dedicated sequential writer — the access pattern of the paper's
// single-OST contention benchmark. PLFS + FilePerProc degenerates to the
// same per-rank logs as a collective write. It allocates a request list
// and a batch per rank and repetition, beside the flows they start.
func (rr *rankRun) writeOwnFile() {
	j, r, f := rr.j, rr.r, rr.f
	layout := f.Layout()
	if layout == nil {
		f.WriteAllK(r, j.cfg.PerRankMB(), j.cfg.TransferSizeMB, rr.nextErr)
		return
	}
	j.sys.StartWrites(j.filePerProcReqs(r, f, layout)).Await(r.Task(), rr.next)
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
			Node:   r.Node(),
			Class:  cluster.ClassSequential,
			FileID: fileIDOf(f, r),
			RPCMB:  j.cfg.TransferSizeMB,
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

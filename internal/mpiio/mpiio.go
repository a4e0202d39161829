// Package mpiio simulates the MPI-IO layer (ROMIO) over the Lustre
// substrate. It provides a collective file API with hints and three ADIO
// drivers:
//
//   - DriverUFS: the generic POSIX driver (ad_ufs). Collective buffering
//     works, but the driver is striping-blind: layout hints are ignored, so
//     files keep the system default layout — the "default MPI-IO"
//     configuration that the paper's 49× improvement is measured against.
//   - DriverLustre: the Lustre driver (ad_lustre). striping_factor,
//     striping_unit and stripe_offset hints reach the MDS at create time
//     and aggregators are mapped group-cyclically onto OSTs.
//   - DriverPLFS: the PLFS driver (ad_plfs). The N-to-1 file becomes N
//     per-rank logs in a backend container (see package plfs).
//
// Collective writes use two-phase I/O: one aggregator per compute node,
// each with a calibrated dispatch capacity, writing stripe-aligned file
// domains. All ranks of the communicator must call the collective methods
// in the same order.
package mpiio

import (
	"fmt"

	"pfsim/internal/cluster"
	"pfsim/internal/flow"
	"pfsim/internal/lustre"
	"pfsim/internal/mpi"
	"pfsim/internal/plfs"
	"pfsim/internal/sim"
)

// Driver selects the ADIO driver backing a file.
type Driver int

const (
	// DriverUFS is the generic POSIX driver (ad_ufs): hints ignored.
	DriverUFS Driver = iota
	// DriverLustre is the Lustre driver (ad_lustre): hints honoured.
	DriverLustre
	// DriverPLFS is the PLFS driver (ad_plfs): per-rank logs.
	DriverPLFS
)

// String names the driver as in ROMIO.
func (d Driver) String() string {
	switch d {
	case DriverUFS:
		return "ad_ufs"
	case DriverLustre:
		return "ad_lustre"
	case DriverPLFS:
		return "ad_plfs"
	default:
		return fmt.Sprintf("driver(%d)", int(d))
	}
}

// Hints mirrors the MPI-IO hints the paper tunes.
type Hints struct {
	// StripingFactor is the stripe count (0 = file system default).
	StripingFactor int
	// StripingUnitMB is the stripe size in MB (0 = default).
	StripingUnitMB float64
	// StripeOffset pins the first OST when positive; zero or negative
	// requests random placement. (Real Lustre allows pinning to OST 0;
	// the simulator sacrifices that corner so the zero value of Hints is
	// safe.)
	StripeOffset int
	// CBNodes caps the number of collective-buffering aggregators
	// (0 = one per compute node, the configuration used in the paper).
	CBNodes int
	// CBBufferMB is the collective buffer size (0 = platform default,
	// 16 MB in the paper).
	CBBufferMB float64
}

// NewHints returns hints with random placement (StripeOffset -1) and all
// other values defaulted.
func NewHints() Hints { return Hints{StripeOffset: -1} }

// File is an open simulated MPI-IO file.
type File struct {
	sys    *lustre.System
	comm   *mpi.Comm
	name   string
	driver Driver
	hints  Hints

	// Lustre/UFS state.
	lf       *lustre.File
	aggLinks []*flow.Link
	aggNodes []int

	// PLFS state.
	container *plfs.Container
	logs      map[int]*plfs.RankLog

	openSig *sim.Signal
	opSeq   map[int]int
	opSigs  map[int]rendezvous
	opened  bool
	closed  bool
}

// NewFile prepares a file handle shared by a communicator. It performs no
// simulated work; every rank of comm must then call OpenK.
func NewFile(sys *lustre.System, comm *mpi.Comm, name string, driver Driver, hints Hints) *File {
	return &File{
		sys:     sys,
		comm:    comm,
		name:    name,
		driver:  driver,
		hints:   hints,
		logs:    make(map[int]*plfs.RankLog),
		openSig: sys.Engine().NewSignal("open:" + name),
		opSeq:   make(map[int]int),
		opSigs:  make(map[int]rendezvous),
	}
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Driver returns the backing driver.
func (f *File) Driver() Driver { return f.driver }

// Layout returns the Lustre layout (nil for PLFS files, which have one
// layout per rank log).
func (f *File) Layout() *lustre.Layout {
	if f.lf == nil {
		return nil
	}
	return &f.lf.Layout
}

// Container returns the PLFS container (nil for non-PLFS files).
func (f *File) Container() *plfs.Container { return f.container }

// spec translates hints to a create request, enforcing driver semantics:
// ad_ufs cannot pass striping hints through.
func (f *File) spec() lustre.StripeSpec {
	s := lustre.DefaultSpec()
	if f.driver == DriverLustre {
		s.Count = f.hints.StripingFactor
		s.SizeMB = f.hints.StripingUnitMB
		if f.hints.StripeOffset > 0 {
			s.OffsetOST = f.hints.StripeOffset
		}
	}
	return s
}

// OpenK opens the file collectively: rank 0 creates it (and, for PLFS, the
// container metadata), every PLFS rank creates its logs, and all ranks
// synchronise before k runs — MPI_File_open semantics.
func (f *File) OpenK(r *mpi.Rank, k func(error)) {
	t := r.Task()
	isRoot := f.comm.RankOf(r) == 0
	join := func() {
		f.comm.BarrierK(r, func() {
			f.opened = true
			k(nil)
		})
	}
	switch f.driver {
	case DriverPLFS:
		openLog := func() {
			f.openSig.Await(t, func() {
				f.container.OpenRankK(t, r.ID(), func(rl *plfs.RankLog, err error) {
					if err != nil {
						k(err)
						return
					}
					f.logs[r.ID()] = rl
					join()
				})
			})
		}
		if isRoot {
			f.container = plfs.NewContainer(f.sys, f.name)
			f.container.CreateMetaK(t, func() {
				f.openSig.Fire()
				openLog()
			})
			return
		}
		openLog()
	default:
		if isRoot {
			f.sys.MDS().CreateK(t, f.name, f.spec(), func(lf *lustre.File, err error) {
				if err != nil {
					k(err)
					return
				}
				f.lf = lf
				f.buildAggregators()
				f.openSig.Fire()
				join()
			})
			return
		}
		f.openSig.Await(t, join)
	}
}

// buildAggregators creates the collective-buffering dispatch links: one
// aggregator on each distinct compute node of the communicator, bounded by
// the cb_nodes hint. The stripe-aware ad_lustre driver additionally caps
// aggregators at the stripe count (each OST gets a dedicated owner when
// possible) and gains the RPC-pipelining factor for wide stripings; the
// generic ad_ufs driver always uses every node. Capacities carry the
// stripe-size dispatch efficiency and the system's run-to-run jitter.
func (f *File) buildAggregators() {
	plat := f.sys.Platform()
	seen := make(map[int]bool)
	var nodes []int
	for _, wr := range f.comm.WorldRanks() {
		n := f.comm.NodeOfWorldRank(wr)
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	if f.hints.CBNodes > 0 && f.hints.CBNodes < len(nodes) {
		nodes = nodes[:f.hints.CBNodes]
	}
	// The aggregator dispatches in chunks of at most the collective buffer,
	// so a small cb_buffer_size hint throttles dispatch like small stripes.
	chunk := f.lf.Layout.SizeMB
	if cb := f.cbBufferMB(); chunk > cb {
		// Stripes beyond the buffer still stream contiguously per OST; the
		// dirty-window term is governed by the stripe, the per-RPC term by
		// the buffer. Approximate with the buffer-limited chunk only when
		// the buffer is smaller than the platform default.
		if cb < plat.CollBufferMB {
			chunk = cb
		}
	}
	rate := plat.AggregatorMBs * plat.AggregatorEfficiency(chunk)
	if f.driver == DriverLustre {
		if r := f.lf.Layout.StripeCount(); r < len(nodes) {
			nodes = nodes[:r]
		}
		rate *= plat.AggregatorPipelineFactor(f.lf.Layout.StripeCount())
	}
	f.aggNodes = nodes
	f.aggLinks = make([]*flow.Link, len(nodes))
	for i, n := range nodes {
		cap := rate * f.sys.RNG().Jitter(plat.JitterCV)
		// The shard prefix keeps aggregator labels distinct when several
		// file systems with identically labelled jobs share one net.
		f.aggLinks[i] = f.sys.Net().NewLink(
			fmt.Sprintf("%sagg:%s:%d", f.sys.Prefix(), f.name, n), flow.Const(cap))
	}
}

// WriteAllK performs a collective write: every rank contributes sizeMB.
// For Lustre/UFS the data moves through two-phase I/O. For PLFS the
// symmetric per-rank log streams merge into one flow per OST (see
// plfs.Container.BatchWriteK); the reduction both synchronises the ranks
// and yields the uniform per-rank volume the merge assumes. k runs when
// the operation completes on every rank.
func (f *File) WriteAllK(r *mpi.Rank, sizeMB, transferMB float64, k func(error)) {
	if err := f.checkWriteAll(sizeMB, transferMB); err != nil {
		k(err)
		return
	}
	t := r.Task()
	switch f.driver {
	case DriverPLFS:
		f.comm.AllreduceSumK(r, sizeMB, func(total float64) {
			sig := f.opSignal(r, "plfswrite")
			if f.comm.RankOf(r) == 0 {
				f.container.BatchWriteK(t, total/float64(f.comm.Size()), transferMB, func(err error) {
					sig.Fire()
					k(err)
				})
				return
			}
			sig.Await(t, func() { k(nil) })
		})
	default:
		f.comm.AllreduceSumK(r, sizeMB, func(total float64) {
			sig := f.opSignal(r, "writeall")
			if f.comm.RankOf(r) == 0 {
				f.collectiveWriteK(t, total, func() {
					sig.Fire()
					k(nil)
				})
				return
			}
			sig.Await(t, func() { k(nil) })
		})
	}
}

func (f *File) checkWriteAll(sizeMB, transferMB float64) error {
	if !f.opened || f.closed {
		return fmt.Errorf("mpiio: WriteAll on %q before Open or after Close", f.name)
	}
	if sizeMB < 0 || transferMB <= 0 {
		return fmt.Errorf("mpiio: bad WriteAll size=%v transfer=%v", sizeMB, transferMB)
	}
	return nil
}

// rendezvous is one rank-0-led collective operation's completion signal
// and the number of ranks that have fetched it so far.
type rendezvous struct {
	sig     *sim.Signal
	fetched int
}

// opSignal returns the rendezvous signal for the rank's next rank-0-led
// collective operation, creating it on first arrival. All ranks issue
// their operations in the same order, so the per-rank sequence number
// matches arrivals of one operation across the communicator. The entry is
// retired when the last rank fetches it, not when rank 0 fires it: an
// operation that takes no virtual time completes on rank 0 before the
// other ranks' same-instant continuations arrive, and they must still
// find the fired signal rather than create a fresh one.
func (f *File) opSignal(r *mpi.Rank, kind string) *sim.Signal {
	idx := f.opSeq[r.ID()]
	f.opSeq[r.ID()]++
	rv, ok := f.opSigs[idx]
	if !ok {
		rv.sig = f.sys.Engine().NewSignal(fmt.Sprintf("%s:%s:%d", kind, f.name, idx))
	}
	rv.fetched++
	if rv.fetched == f.comm.Size() {
		delete(f.opSigs, idx)
	} else {
		f.opSigs[idx] = rv
	}
	return rv.sig
}

// collectiveWriteK launches the two-phase flows for one collective write
// of totalMB; k runs when they drain.
//
// ROMIO divides the file into equal-volume per-aggregator domains, so
// every aggregator carries total/A. With more aggregators than stripes
// (generic ad_ufs at the default 2-stripe layout), aggregator j's domain
// lands on OST j mod R; with at least as many stripes as aggregators
// (stripe-aware ad_lustre, A = min(nodes, R)), aggregator j owns OSTs
// {j, j+A, ...} group-cyclically and spreads its domain evenly across
// them.
func (f *File) collectiveWriteK(t *sim.Task, totalMB float64, k func()) {
	if totalMB <= 0 {
		k()
		return
	}
	sim.AwaitAll(t, flow.Dones(f.sys.StartWrites(f.collectiveReqs(totalMB))), k)
}

// collectiveReqs builds the per-aggregator two-phase write requests — the
// synchronous domain decomposition of collectiveWriteK.
func (f *File) collectiveReqs(totalMB float64) []lustre.WriteReq {
	layout := f.lf.Layout
	A := len(f.aggLinks)
	R := layout.StripeCount()
	rpc := layout.SizeMB
	if cb := f.cbBufferMB(); rpc > cb {
		rpc = cb
	}
	// All per-aggregator stripe streams open at the same virtual instant,
	// so they are admitted as one batch: a single coalesced rate solve
	// instead of one per stream.
	var reqs []lustre.WriteReq
	add := func(agg int, ost *lustre.OST, mb float64) {
		reqs = append(reqs, lustre.WriteReq{
			Name:   fmt.Sprintf("cw:%s:a%d:o%d", f.name, agg, ost.ID()),
			SizeMB: mb,
			OST:    ost,
			Opts: lustre.WriteOpts{
				Node:   f.aggNodes[agg],
				Class:  cluster.ClassCollective,
				FileID: f.lf.ID,
				RPCMB:  rpc,
				Via:    []*flow.Link{f.aggLinks[agg]},
			},
		})
	}
	domain := totalMB / float64(A)
	if A >= R {
		for j := 0; j < A; j++ {
			add(j, f.sys.OST(layout.OSTs[j%R]), domain)
		}
	} else {
		for j := 0; j < A; j++ {
			owned := (R - j + A - 1) / A // OSTs {j, j+A, ...}
			share := domain / float64(owned)
			for k := j; k < R; k += A {
				add(j, f.sys.OST(layout.OSTs[k]), share)
			}
		}
	}
	return reqs
}

func (f *File) cbBufferMB() float64 {
	if f.hints.CBBufferMB > 0 {
		return f.hints.CBBufferMB
	}
	return f.sys.Platform().CollBufferMB
}

// ReadAllK performs a collective read of sizeMB per rank. The fluid model
// is direction-agnostic, so reads exercise the same aggregator and OST
// service paths as writes; PLFS reads replay each rank's log through its
// index (see plfs.RankLog.ReadK).
func (f *File) ReadAllK(r *mpi.Rank, sizeMB, transferMB float64, k func(error)) {
	if err := f.checkReadAll(sizeMB, transferMB); err != nil {
		k(err)
		return
	}
	t := r.Task()
	if f.driver == DriverPLFS {
		rl := f.logs[r.ID()]
		if rl == nil {
			k(fmt.Errorf("mpiio: rank %d has no PLFS log", r.ID()))
			return
		}
		rl.ReadK(t, r.Node(), sizeMB, func(err error) {
			if err != nil {
				k(err)
				return
			}
			f.comm.BarrierK(r, func() { k(nil) })
		})
		return
	}
	f.comm.AllreduceSumK(r, sizeMB, func(total float64) {
		sig := f.opSignal(r, "readall")
		if f.comm.RankOf(r) == 0 {
			f.collectiveWriteK(t, total, func() {
				sig.Fire()
				k(nil)
			})
			return
		}
		sig.Await(t, func() { k(nil) })
	})
}

func (f *File) checkReadAll(sizeMB, transferMB float64) error {
	if !f.opened {
		return fmt.Errorf("mpiio: ReadAll on %q before Open", f.name)
	}
	if sizeMB < 0 || transferMB <= 0 {
		return fmt.Errorf("mpiio: bad ReadAll size=%v transfer=%v", sizeMB, transferMB)
	}
	return nil
}

// FileID returns the backing Lustre file's identity (its lock domain), or
// 0 for PLFS files whose logs carry per-rank identities.
func (f *File) FileID() int {
	if f.lf == nil {
		return 0
	}
	return f.lf.ID
}

// WriteIndependentK writes sizeMB from this rank without coordination
// (MPI_File_write_at): the rank's region spreads over the file's stripes,
// and because nothing aligns accesses, each writing rank forms its own
// lock domain on every OST it touches — the cross-client extent-lock
// conflicts collective buffering exists to avoid.
func (f *File) WriteIndependentK(r *mpi.Rank, sizeMB, transferMB float64, k func(error)) {
	if !f.opened || f.closed {
		k(fmt.Errorf("mpiio: WriteIndependent on %q before Open or after Close", f.name))
		return
	}
	t := r.Task()
	if f.driver == DriverPLFS {
		rl := f.logs[r.ID()]
		if rl == nil {
			k(fmt.Errorf("mpiio: rank %d has no PLFS log", r.ID()))
			return
		}
		rl.WriteK(t, r.Node(), sizeMB, transferMB, k)
		return
	}
	if sizeMB <= 0 {
		k(nil)
		return
	}
	sim.AwaitAll(t, flow.Dones(f.sys.StartWrites(f.independentReqs(r, sizeMB, transferMB))), func() { k(nil) })
}

// independentReqs builds the per-OST streams of one rank's uncoordinated
// write, each in its own lock domain.
func (f *File) independentReqs(r *mpi.Rank, sizeMB, transferMB float64) []lustre.WriteReq {
	layout := f.lf.Layout
	shares := layout.BytesPerOST(sizeMB)
	rpc := transferMB
	if rpc > layout.SizeMB {
		rpc = layout.SizeMB
	}
	// Distinct pseudo-file ID per rank: independent writers conflict.
	lockDomain := f.lf.ID*1_000_000 + r.ID() + 1
	var reqs []lustre.WriteReq
	for k, mb := range shares {
		if mb <= 0 {
			continue
		}
		reqs = append(reqs, lustre.WriteReq{
			Name:   fmt.Sprintf("iw:%s:r%d:o%d", f.name, r.ID(), layout.OSTs[k]),
			SizeMB: mb,
			OST:    f.sys.OST(layout.OSTs[k]),
			Opts: lustre.WriteOpts{
				Node:   r.Node(),
				Class:  cluster.ClassCollective,
				FileID: lockDomain,
				RPCMB:  rpc,
			},
		})
	}
	return reqs
}

// CloseK closes the file collectively: PLFS ranks flush their index logs,
// rank 0 performs the final metadata update, and all ranks synchronise
// before k runs.
func (f *File) CloseK(r *mpi.Rank, k func()) {
	t := r.Task()
	barriers := func() {
		f.comm.BarrierK(r, func() {
			if f.comm.RankOf(r) == 0 && !f.closed {
				f.sys.MDS().StatK(t, func() {
					f.closed = true
					f.comm.BarrierK(r, k)
				})
				return
			}
			f.comm.BarrierK(r, k)
		})
	}
	if f.driver == DriverPLFS {
		if rl := f.logs[r.ID()]; rl != nil {
			rl.CloseK(t, barriers)
			return
		}
	}
	barriers()
}

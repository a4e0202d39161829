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

	// ranks holds each member's part in the file's collective calls, by
	// comm rank. A rank's calls resume through the file's continuations,
	// one per signature, bound once in NewFile — next (f.resume), nextVal
	// (f.resumeVal) and nextErr (f.resumeErr) — which receive the rank;
	// its step says where it goes next. root is comm rank 0, which leads
	// the open.
	ranks   []fileRank
	next    func(*mpi.Rank)
	nextVal func(*mpi.Rank, float64)
	nextErr func(*mpi.Rank, error)
	root    *mpi.Rank

	openSig *sim.Signal
	op      opSlot
	opened  bool
	closed  bool
}

// fileRank is one rank's part in the file's collective calls.
type fileRank struct {
	step       fileStep
	kind       opKind        // the rank-0-led operation the rank is in
	k          func(error)   // where the rank's OpenK, WriteAllK or ReadAllK call returns
	closeK     func()        // where its CloseK call returns
	transferMB float64       // its WriteAllK transfer size
	log        *plfs.RankLog // its PLFS logs, once opened
}

// fileStep is a fileRank state: what the rank waits on.
type fileStep uint8

const (
	stepOpenWait     fileStep = iota // rank 0 creating the file
	stepMeta                         // rank 0: creating the PLFS container skeleton
	stepLogWait                      // the PLFS container skeleton
	stepLogOpen                      // creating the rank's PLFS logs
	stepOpenBarrier                  // the barrier ending the open
	stepOpSum                        // the reduction opening a rank-0-led operation
	stepOp                           // the rank-0-led operation (rank 0: running it)
	stepLogRead                      // replaying the rank's PLFS log
	stepReturn                       // the last wait of the call
	stepLogClose                     // flushing the rank's PLFS index log
	stepCloseBarrier                 // the barrier opening the close
	stepCloseStat                    // rank 0: the close's metadata update
	stepClosed                       // the barrier ending the close
)

// NewFile prepares a file handle shared by a communicator. It performs no
// simulated work; every rank of comm must then call OpenK.
func NewFile(sys *lustre.System, comm *mpi.Comm, name string, driver Driver, hints Hints) *File {
	f := &File{
		sys:     sys,
		comm:    comm,
		name:    name,
		driver:  driver,
		hints:   hints,
		ranks:   make([]fileRank, comm.Size()),
		openSig: sys.Engine().NewSignalN("open:"+name, -1, comm.Size()-1),
	}
	f.next, f.nextVal, f.nextErr = f.resume, f.resumeVal, f.resumeErr
	return f
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
	cr := f.comm.RankOf(r)
	fr := &f.ranks[cr]
	fr.k = k
	t := r.Task()
	switch {
	case f.driver == DriverPLFS && cr == 0:
		f.container = plfs.NewContainer(f.sys, f.name)
		fr.step = stepMeta
		f.container.CreateMetaK(t, r.Then(f.next))
	case f.driver == DriverPLFS:
		f.awaitLog(r, fr)
	case cr == 0:
		f.root = r
		f.sys.MDS().CreateK(t, f.spec(), f.created)
	default:
		fr.step = stepOpenWait
		f.openSig.Await(t, r.Then(f.next))
	}
}

// created continues rank 0's open of a Lustre or UFS file once the MDS
// has created it: it builds the aggregators, releases the other ranks
// and joins the open's barrier.
func (f *File) created(lf *lustre.File, err error) {
	fr := &f.ranks[0]
	if err != nil {
		f.ret(fr, err)
		return
	}
	f.lf = lf
	f.buildAggregators()
	f.openSig.Fire()
	f.join(f.root, fr)
}

// awaitLog waits for the PLFS container skeleton, then opens the rank's
// logs.
func (f *File) awaitLog(r *mpi.Rank, fr *fileRank) {
	fr.step = stepLogWait
	f.openSig.Await(r.Task(), r.Then(f.next))
}

// join enters the barrier that ends the open.
func (f *File) join(r *mpi.Rank, fr *fileRank) {
	fr.step = stepOpenBarrier
	f.comm.BarrierRankK(r, f.next)
}

// resume continues a rank after a wait that delivers nothing.
func (f *File) resume(r *mpi.Rank) { f.advance(r, 0, nil) }

// resumeVal continues a rank after a reduction.
func (f *File) resumeVal(r *mpi.Rank, v float64) { f.advance(r, v, nil) }

// resumeErr continues a rank after an operation that can fail.
func (f *File) resumeErr(r *mpi.Rank, err error) { f.advance(r, 0, err) }

// advance runs the step after the one the rank waited on, given the value
// or error the wait delivered.
func (f *File) advance(r *mpi.Rank, v float64, err error) {
	cr := f.comm.RankOf(r)
	fr := &f.ranks[cr]
	switch fr.step {
	case stepOpenWait:
		f.join(r, fr)
	case stepMeta:
		f.openSig.Fire()
		f.awaitLog(r, fr)
	case stepLogWait:
		fr.step = stepLogOpen
		f.container.OpenRankK(r.Task(), r.ID(), r.ThenErr(f.nextErr))
	case stepLogOpen:
		if err != nil {
			f.ret(fr, err)
			return
		}
		fr.log = f.container.Log(r.ID())
		f.join(r, fr)
	case stepOpenBarrier:
		f.opened = true
		f.ret(fr, nil)
	case stepOpSum:
		f.lead(r, cr, fr, v)
	case stepOp:
		if cr == 0 {
			f.op.sig.Fire()
		}
		f.ret(fr, err)
	case stepLogRead:
		if err != nil {
			f.ret(fr, err)
			return
		}
		fr.step = stepReturn
		f.comm.BarrierRankK(r, f.next)
	case stepReturn:
		f.ret(fr, err)
	case stepLogClose:
		f.closeBarrier(r, fr)
	case stepCloseBarrier:
		if cr == 0 && !f.closed {
			fr.step = stepCloseStat
			f.sys.MDS().StatK(r.Task(), r.Then(f.next))
			return
		}
		f.finalBarrier(r, fr)
	case stepCloseStat:
		f.closed = true
		f.finalBarrier(r, fr)
	case stepClosed:
		k := fr.closeK
		fr.closeK = nil
		k()
	}
}

// ret returns the rank's OpenK, WriteAllK or ReadAllK call with err.
func (f *File) ret(fr *fileRank, err error) {
	k := fr.k
	fr.k = nil
	k(err)
}

// buildAggregators sets up the collective-buffering dispatch links: one
// aggregator on each distinct compute node of the communicator, bounded by
// the cb_nodes hint. The stripe-aware ad_lustre driver additionally caps
// aggregators at the stripe count (each OST gets a dedicated owner when
// possible) and gains the RPC-pipelining factor for wide stripings; the
// generic ad_ufs driver always uses every node. Capacities carry the
// stripe-size dispatch efficiency and the system's run-to-run jitter,
// drawn afresh for each open.
//
// A communicator keeps one link per node across the files opened on it
// (see aggregators), so a job that opens a file every repetition does not
// add links to the net with each one: an open draws each aggregator's
// capacity and installs it on the node's link, which is idle, since no
// collective write on the communicator outlives the call that made it.
// Files open at once on one communicator therefore share its links, at
// the capacities the latest open drew.
func (f *File) buildAggregators() {
	plat := f.sys.Platform()
	ag := f.aggregators()
	nodes := ag.nodes
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
	for i, n := range nodes {
		cap := flow.Const(rate * f.sys.RNG().Jitter(plat.JitterCV))
		if i < len(ag.links) {
			ag.links[i].SetModel(cap)
			continue
		}
		// Named after the first file that used the link: file names are
		// unique, so link names are too.
		ag.links = append(ag.links, f.sys.Net().NewLink(fmt.Sprintf("agg:%s:%d", f.name, n), cap))
	}
	f.aggNodes = nodes
	f.aggLinks = ag.links[:len(nodes)]
}

// aggregators is a communicator's collective-buffering state, cached on
// it (mpi.Comm.SetAttr) for the files opened on it: its distinct nodes in
// comm-rank order, and the dispatch link of each node an open has used,
// links[i] being nodes[i]'s. Every open takes a prefix of nodes, so links
// grows to the widest open's prefix.
type aggregators struct {
	nodes []int
	links []*flow.Link
}

// aggregators returns the communicator's aggregator state, making it on
// the first open.
func (f *File) aggregators() *aggregators {
	if ag, ok := f.comm.Attr().(*aggregators); ok {
		return ag
	}
	ag := &aggregators{}
	seen := make(map[int]bool)
	for _, wr := range f.comm.WorldRanks() {
		n := f.comm.NodeOfWorldRank(wr)
		if !seen[n] {
			seen[n] = true
			ag.nodes = append(ag.nodes, n)
		}
	}
	f.comm.SetAttr(ag)
	return ag
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
	kind := opWriteAll
	if f.driver == DriverPLFS {
		kind = opPLFSWrite
	}
	f.startOp(r, kind, sizeMB, transferMB, k)
}

// startOp enters a rank-0-led operation: the ranks' volumes are summed,
// then rank 0 runs the operation while the others wait for it (see
// lead).
func (f *File) startOp(r *mpi.Rank, kind opKind, sizeMB, transferMB float64, k func(error)) {
	fr := &f.ranks[f.comm.RankOf(r)]
	fr.step, fr.kind, fr.k, fr.transferMB = stepOpSum, kind, k, transferMB
	f.comm.AllreduceSumK(r, sizeMB, f.nextVal)
}

// lead runs once the operation's volumes are summed to total: rank 0
// starts the operation and fires its signal when it completes; every
// other rank waits on that signal.
func (f *File) lead(r *mpi.Rank, cr int, fr *fileRank, total float64) {
	sig := f.fetchOp(fr.kind)
	fr.step = stepOp
	t := r.Task()
	switch {
	case cr != 0:
		sig.Await(t, r.Then(f.next))
	case fr.kind == opPLFSWrite:
		f.container.BatchWriteK(t, total/float64(f.comm.Size()), fr.transferMB, r.ThenErr(f.nextErr))
	default:
		f.collectiveWriteK(t, total, r.Then(f.next))
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

// opKind names a rank-0-led operation; its signal is named after it.
type opKind uint8

const (
	opWriteAll opKind = iota
	opPLFSWrite
	opReadAll
)

var opKindNames = [...]string{"writeall", "plfswrite", "readall"}

// opSlot is the rendezvous of the file's rank-0-led operations: one
// signal, re-armed for each operation. At most one operation is ever
// outstanding: the next one's reduction needs every rank, and a rank
// reaches it only after fetching the current one's signal — rank 0 only
// after firing it, too. seq counts the operations begun and names each
// one's signal (label kind:file:, id seq, as in writeall:a.rep0:0);
// labels caches those labels by kind.
type opSlot struct {
	sig     *sim.Signal
	seq     int
	fetched int // ranks that have fetched the current operation's signal
	labels  [len(opKindNames)]string
}

// fetchOp returns the signal of the operation the rank is in. The first
// rank to fetch an operation arms the signal under the operation's name;
// the operation is retired when the last rank fetches it, not when rank 0
// fires it: an operation that takes no virtual time completes on rank 0
// before the other ranks' same-instant continuations arrive, and they
// must still find the fired signal.
func (f *File) fetchOp(kind opKind) *sim.Signal {
	o := &f.op
	if o.fetched == 0 {
		if o.labels[kind] == "" {
			o.labels[kind] = opKindNames[kind] + ":" + f.name + ":"
		}
		if o.sig == nil {
			o.sig = f.sys.Engine().NewSignalN(o.labels[kind], o.seq, f.comm.Size()-1)
		} else {
			o.sig.Rearm(o.labels[kind], o.seq)
		}
	}
	if o.fetched++; o.fetched == f.comm.Size() {
		o.fetched = 0
		o.seq++
	}
	return o.sig
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
	f.sys.StartWrites(f.collectiveReqs(totalMB)).Await(t, k)
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
			Node:   f.aggNodes[agg],
			Class:  cluster.ClassCollective,
			FileID: f.lf.ID,
			RPCMB:  rpc,
			Via:    f.aggLinks[agg],
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
	if f.driver != DriverPLFS {
		f.startOp(r, opReadAll, sizeMB, transferMB, k)
		return
	}
	fr := &f.ranks[f.comm.RankOf(r)]
	if fr.log == nil {
		k(fmt.Errorf("mpiio: rank %d has no PLFS log", r.ID()))
		return
	}
	fr.step, fr.k = stepLogRead, k
	fr.log.ReadK(r.Task(), r.Node(), sizeMB, r.ThenErr(f.nextErr))
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
	fr := &f.ranks[f.comm.RankOf(r)]
	if f.driver == DriverPLFS {
		if fr.log == nil {
			k(fmt.Errorf("mpiio: rank %d has no PLFS log", r.ID()))
			return
		}
		fr.log.WriteK(t, r.Node(), sizeMB, transferMB, k)
		return
	}
	if sizeMB <= 0 {
		k(nil)
		return
	}
	fr.step, fr.k = stepReturn, k
	f.sys.StartWrites(f.independentReqs(r, sizeMB, transferMB)).Await(t, r.Then(f.next))
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
			Node:   r.Node(),
			Class:  cluster.ClassCollective,
			FileID: lockDomain,
			RPCMB:  rpc,
		})
	}
	return reqs
}

// CloseK closes the file collectively: PLFS ranks flush their index logs,
// rank 0 performs the final metadata update, and all ranks synchronise
// before k runs.
func (f *File) CloseK(r *mpi.Rank, k func()) {
	fr := &f.ranks[f.comm.RankOf(r)]
	fr.closeK = k
	if f.driver == DriverPLFS && fr.log != nil {
		fr.step = stepLogClose
		fr.log.CloseK(r.Task(), r.Then(f.next))
		return
	}
	f.closeBarrier(r, fr)
}

// closeBarrier enters the barrier after which rank 0 updates the
// metadata.
func (f *File) closeBarrier(r *mpi.Rank, fr *fileRank) {
	fr.step = stepCloseBarrier
	f.comm.BarrierRankK(r, f.next)
}

// finalBarrier enters the barrier that ends the close.
func (f *File) finalBarrier(r *mpi.Rank, fr *fileRank) {
	fr.step = stepClosed
	f.comm.BarrierRankK(r, f.next)
}

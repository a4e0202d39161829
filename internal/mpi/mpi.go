// Package mpi provides a deterministic message-passing abstraction over the
// simulation engine: a world of ranks (one simulated process each, mapped
// to compute nodes like MPI ranks on Cab — CoresPerNode ranks per node),
// communicators with barrier and reduction collectives, and communicator
// splitting. Collective calls must be made by every rank of a
// communicator in the same order, mirroring MPI semantics. Collectives
// charge a logarithmic latency model.
package mpi

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"pfsim/internal/sim"
)

// DefaultCollectiveLatency is the per-tree-stage latency charged by
// collective operations (seconds); roughly an InfiniBand message latency.
const DefaultCollectiveLatency = 2e-6

// World is a set of ranks executing a common body.
type World struct {
	eng    *sim.Engine
	size   int
	nodeOf []int
	// CollectiveLatency is the per-stage latency of collective operations.
	CollectiveLatency float64

	world *Comm
	// left counts the ranks still running; finishedAt is the virtual time
	// the last of them finished.
	left       int
	finishedAt float64
}

// NewWorld creates a world of size ranks packed coresPerNode-to-a-node
// starting at firstNode. Jobs in multi-job experiments use disjoint node
// ranges.
func NewWorld(eng *sim.Engine, size, coresPerNode, firstNode int) *World {
	if size <= 0 || coresPerNode <= 0 {
		panic(fmt.Sprintf("mpi: bad world geometry size=%d cores=%d", size, coresPerNode))
	}
	w := &World{
		eng:               eng,
		size:              size,
		nodeOf:            make([]int, size),
		CollectiveLatency: DefaultCollectiveLatency,
		left:              size,
	}
	for r := 0; r < size; r++ {
		w.nodeOf[r] = firstNode + r/coresPerNode
	}
	ranks := make([]int, size)
	for i := range ranks {
		ranks[i] = i
	}
	w.world = newComm(w, "world", ranks)
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns the world communicator.
func (w *World) Comm() *Comm { return w.world }

// NodeOf returns the compute node hosting a world rank.
func (w *World) NodeOf(rank int) int { return w.nodeOf[rank] }

// Nodes returns the number of distinct nodes the world spans.
func (w *World) Nodes() int {
	return w.nodeOf[w.size-1] - w.nodeOf[0] + 1
}

// FinishedAt returns the virtual time at which the last rank finished,
// or 0 while any rank is still running.
func (w *World) FinishedAt() float64 { return w.finishedAt }

// LaunchTasks starts every rank as an inline engine task at the current
// virtual time. The body is written in continuation-passing style against
// the rank's Task and the K-suffixed collectives, and must arrange for
// done to be called exactly once when the rank's workload is complete.
// FinishedAt reads the time the last rank called it.
func (w *World) LaunchTasks(body func(r *Rank, done func())) {
	for i := 0; i < w.size; i++ {
		rank := &Rank{world: w, id: i}
		rank.resumeK = rank.resume
		rank.task = w.eng.StartTask(0, "rank", i, func(*sim.Task) {
			body(rank, rank.finish)
		})
	}
}

// Rank is one simulated MPI process, running as an inline engine task.
type Rank struct {
	world *World
	id    int
	task  *sim.Task

	// A rank waits on at most one operation at a time: a collective, or
	// an operation it was handed to through Then or ThenErr. k is the
	// continuation the result goes to: a func(), func(float64) or
	// func(*Comm), by collective, or a func(*Rank), func(*Rank, float64)
	// or func(*Rank, error), which receive the rank. While the rank is in
	// a collective, coll is that collective and cr the rank's place in
	// its communicator. resumeK is r.resume, bound once at launch, and
	// resumeErrK r.resumeErr, bound on first use, so parking and resuming
	// allocate nothing.
	coll       *rendezvous
	cr         int
	k          any
	resumeK    func()
	resumeErrK func(error)
}

// ID returns the world rank number.
func (r *Rank) ID() int { return r.id }

// Node returns the hosting compute node.
func (r *Rank) Node() int { return r.world.nodeOf[r.id] }

// Task returns the underlying inline task.
func (r *Rank) Task() *sim.Task { return r.task }

// finish retires the rank; passed to the LaunchTasks body as its
// done continuation.
func (r *Rank) finish() {
	r.task.Finish()
	r.world.left--
	if r.world.left == 0 {
		r.world.finishedAt = r.task.Now()
	}
}

// World returns the rank's world.
func (r *Rank) World() *World { return r.world }

// resume delivers the result of the rank's collective, or the end of
// the wait it was handed to through Then, to its continuation. The last
// rank to arrive at a collective resumes first and fires the
// collective's signal, which releases the others; for them the signal
// has fired already.
func (r *Rank) resume() {
	rv, k := r.coll, r.k
	r.coll, r.k = nil, nil
	if rv == nil {
		k.(func(*Rank))(r)
		return
	}
	rv.sig.Fire()
	switch k := k.(type) {
	case func():
		k()
	case func(float64):
		k(rv.f)
	case func(*Comm):
		k(rv.comms[r.cr])
	case func(*Rank):
		k(r)
	case func(*Rank, float64):
		k(r, rv.f)
	}
}

// resumeErr delivers the outcome of an operation the rank was handed to
// through ThenErr.
func (r *Rank) resumeErr(err error) {
	k := r.k.(func(*Rank, error))
	r.k = nil
	k(r, err)
}

// Then makes k the rank's continuation and returns the rank's resume
// function, bound at launch, for an operation that takes a func()
// continuation — a signal wait, a metadata call: when the operation
// completes, k runs with the rank. One k bound once per caller therefore
// serves every rank without a closure per rank and call. The rank must
// not be waiting on another operation.
func (r *Rank) Then(k func(*Rank)) func() {
	r.hold(k)
	return r.resumeK
}

// ThenErr is Then for an operation whose continuation takes an error:
// k receives the rank and the operation's error.
func (r *Rank) ThenErr(k func(*Rank, error)) func(error) {
	r.hold(k)
	if r.resumeErrK == nil {
		r.bindResumeErr()
	}
	return r.resumeErrK
}

// bindResumeErr binds r.resumeErr once per rank, on its first ThenErr.
func (r *Rank) bindResumeErr() { r.resumeErrK = r.resumeErr }

// hold makes k the rank's pending continuation.
func (r *Rank) hold(k any) {
	if r.k != nil {
		panic(fmt.Sprintf("mpi: rank %d handed to an operation while still waiting on one", r.id))
	}
	r.k = k
}

// Comm is a communicator over a subset of world ranks.
type Comm struct {
	world *World
	label string
	ranks []int // world rank ids, comm-rank order
	// byWorld lists comm ranks in world-rank order, or is nil when that
	// is comm-rank order (the world comm, and most splits).
	byWorld []int

	// pending is the collective some members have entered and others not
	// yet: members call collectives in the same order and none passes one
	// before all have entered it, so there is at most one. calls counts
	// the collectives begun; it numbers their signals, whose names start
	// with collLabel. Collective number calls runs on rvs[calls%2]: a
	// member enters collective k+1 only after resuming from k, and k+2
	// begins only once every member has entered k+1, so by then nothing
	// reads k's rendezvous and k+2 recycles it, contribution vector and
	// signal included.
	pending   *rendezvous
	rvs       [2]*rendezvous
	calls     int
	collLabel string

	// splitVals and splitComms are the contributions and the result of
	// the communicator's latest split (see split).
	splitVals  []float64
	splitComms []*Comm

	attr any // see Attr
}

func newComm(w *World, label string, ranks []int) *Comm {
	c := &Comm{
		world:     w,
		label:     label,
		ranks:     ranks,
		collLabel: label + "-coll-",
	}
	if !sort.IntsAreSorted(ranks) {
		c.byWorld = make([]int, len(ranks))
		for i := range c.byWorld {
			c.byWorld[i] = i
		}
		sort.Slice(c.byWorld, func(a, b int) bool { return ranks[c.byWorld[a]] < ranks[c.byWorld[b]] })
	}
	return c
}

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ranks) }

// Label returns the communicator's diagnostic name.
func (c *Comm) Label() string { return c.label }

// RankOf returns r's rank within the communicator, or -1 if not a member.
// The world and the one-rank splits of file-per-process runs hold
// consecutive world ranks in order, so r's offset from the first member
// is tried first; otherwise the members are searched in world-rank order.
func (c *Comm) RankOf(r *Rank) int {
	if r.world != c.world {
		return -1
	}
	if i := r.id - c.ranks[0]; i >= 0 && i < len(c.ranks) && c.ranks[i] == r.id {
		return i
	}
	lo, hi := 0, len(c.ranks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.ranks[c.inWorldOrder(m)] < r.id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(c.ranks) && c.ranks[c.inWorldOrder(lo)] == r.id {
		return c.inWorldOrder(lo)
	}
	return -1
}

// inWorldOrder returns the comm rank of the i-th member in world-rank
// order.
func (c *Comm) inWorldOrder(i int) int {
	if c.byWorld == nil {
		return i
	}
	return c.byWorld[i]
}

// WorldRanks returns the member world ranks in comm order.
func (c *Comm) WorldRanks() []int {
	out := make([]int, len(c.ranks))
	copy(out, c.ranks)
	return out
}

// NodeOfWorldRank returns the compute node hosting a member world rank.
func (c *Comm) NodeOfWorldRank(wr int) int { return c.world.nodeOf[wr] }

// collOp names a collective operation.
type collOp uint8

const (
	opBarrier collOp = iota
	opMin
	opMax
	opSum
	opSplit
)

var collOpNames = [...]string{"Barrier", "AllreduceMin", "AllreduceMax", "AllreduceSum", "Split"}

func (op collOp) String() string { return collOpNames[op] }

// rendezvous matches one collective call across the communicator. A
// communicator keeps two and alternates between them (see Comm.rvs).
type rendezvous struct {
	op      collOp
	arrived int
	sig     *sim.Signal
	vals    []float64 // contributions by comm rank
	// The result: a reduction's value, or a split's new communicators by
	// comm rank.
	f     float64
	comms []*Comm
}

// collective enters r into the communicator's pending collective, op,
// contributing val; k is the rank's continuation, of the type op
// delivers (see Rank). Every rank but the last to arrive parks on the
// collective's signal. The last arriver computes the result from the
// contributions in comm-rank order, pays the tree latency (one scheduled
// event) and resumes: it fires the signal releasing the others and
// continues before their wake events fire.
func (c *Comm) collective(r *Rank, op collOp, val float64, k any) {
	cr := c.RankOf(r)
	if cr < 0 || r.k != nil || (c.pending != nil && c.pending.op != op) {
		c.refuse(r, op)
	}
	if c.pending == nil {
		c.begin(op)
	}
	rv := c.pending
	rv.vals[cr] = val
	rv.arrived++
	r.coll, r.cr, r.k = rv, cr, k
	if rv.arrived < len(c.ranks) {
		rv.sig.Await(r.task, r.resumeK)
		return
	}
	c.pending = nil
	c.finalize(rv)
	if lat := c.latency(); lat > 0 {
		r.task.Sleep(lat, r.resumeK)
		return
	}
	r.resume()
}

// begin makes op the communicator's pending collective on the next of
// its two rendezvous, re-arming a recycled one's signal under the call's
// number.
func (c *Comm) begin(op collOp) {
	rv := c.rvs[c.calls%2]
	if rv == nil {
		rv = c.newRendezvous()
		c.rvs[c.calls%2] = rv
	} else {
		rv.sig.Rearm(c.collLabel, c.calls)
	}
	rv.op, rv.arrived, rv.comms = op, 0, nil
	c.pending = rv
	c.calls++
}

// newRendezvous allocates one of the communicator's two rendezvous, for
// collective number c.calls, with a signal sized for the n-1 ranks that
// park on it.
func (c *Comm) newRendezvous() *rendezvous {
	n := len(c.ranks)
	return &rendezvous{
		sig:  c.world.eng.NewSignalN(c.collLabel, c.calls, n-1),
		vals: make([]float64, n),
	}
}

// refuse panics on a collective call that breaks the calling rules: a
// rank outside the communicator, a rank already in a collective or
// waiting on another operation, or a collective other than the one the
// other members are in.
func (c *Comm) refuse(r *Rank, op collOp) {
	switch {
	case c.RankOf(r) < 0:
		panic(fmt.Sprintf("mpi: rank %d not in comm %q", r.id, c.label))
	case r.coll != nil:
		panic(fmt.Sprintf("mpi: rank %d called %v on comm %q while still in a collective", r.id, op, c.label))
	case r.k != nil:
		panic(fmt.Sprintf("mpi: rank %d called %v on comm %q while waiting on an operation", r.id, op, c.label))
	default:
		panic(fmt.Sprintf("mpi: rank %d called %v on comm %q, whose pending collective is %v", r.id, op, c.label, c.pending.op))
	}
}

func (c *Comm) latency() float64 {
	n := len(c.ranks)
	if n <= 1 {
		return 0
	}
	stages := math.Ceil(math.Log2(float64(n)))
	return c.world.CollectiveLatency * stages
}

// finalize computes a completed collective's result from its
// contributions.
func (c *Comm) finalize(rv *rendezvous) {
	switch rv.op {
	case opMin:
		min := math.Inf(1)
		for _, x := range rv.vals {
			if x < min {
				min = x
			}
		}
		rv.f = min
	case opMax:
		max := math.Inf(-1)
		for _, x := range rv.vals {
			if x > max {
				max = x
			}
		}
		rv.f = max
	case opSum:
		rv.f = c.sum(rv.vals)
	case opSplit:
		rv.comms = c.split(rv.vals)
	}
}

// sum adds the contributions in world-rank order, which split
// communicators need not share with comm-rank order, so a reduction's
// last bits do not depend on how its communicator was built.
func (c *Comm) sum(vals []float64) float64 {
	sum := 0.0
	if c.byWorld == nil {
		for _, x := range vals {
			sum += x
		}
		return sum
	}
	for _, i := range c.byWorld {
		sum += vals[i]
	}
	return sum
}

// BarrierK runs k once every comm member has arrived.
func (c *Comm) BarrierK(r *Rank, k func()) { c.collective(r, opBarrier, 0, k) }

// AllreduceMinK delivers the minimum contribution to k.
func (c *Comm) AllreduceMinK(r *Rank, v float64, k func(float64)) { c.collective(r, opMin, v, k) }

// AllreduceMaxK delivers the maximum contribution to k.
func (c *Comm) AllreduceMaxK(r *Rank, v float64, k func(float64)) { c.collective(r, opMax, v, k) }

// AllreduceSumK delivers the resuming rank and the sum of contributions
// to k, so that one continuation bound once serves every member.
func (c *Comm) AllreduceSumK(r *Rank, v float64, k func(*Rank, float64)) {
	c.collective(r, opSum, v, k)
}

// BarrierRankK is BarrierK for a continuation that receives the resuming
// rank, so that one continuation bound once serves every member.
func (c *Comm) BarrierRankK(r *Rank, k func(*Rank)) { c.collective(r, opBarrier, 0, k) }

// packSplit encodes color/key into the float contribution losslessly
// (both are small integers in practice; guard anyway).
func packSplit(color, key int) float64 {
	if color < 0 || color > 1<<20 || key < -(1<<20) || key > 1<<20 {
		panic("mpi: Split color/key out of supported range")
	}
	return float64(float64(color)*(1<<21)) + float64(key+(1<<20))
}

// Attr returns the value SetAttr cached on the communicator, or nil.
func (c *Comm) Attr() any { return c.attr }

// SetAttr caches v on the communicator, as MPI_Comm_set_attr does for a
// library layered on MPI: MPI-IO keeps a communicator's aggregator links
// there, so every file opened on it reuses them.
func (c *Comm) SetAttr(v any) { c.attr = v }

// split returns each member's new communicator, by comm rank. When every
// member passes the (color, key) it passed to the communicator's latest
// split, the members get that split's communicators again: a job that
// splits its world the same way every repetition, as file-per-process IOR
// does, builds its communicators once. Members leave a communicator's
// collectives before they enter the next split, so a reused communicator
// has no collective pending.
func (c *Comm) split(vals []float64) []*Comm {
	if c.splitComms != nil && slices.Equal(vals, c.splitVals) {
		return c.splitComms
	}
	c.splitVals = append(c.splitVals[:0], vals...)
	c.splitComms = c.newSplit(vals)
	return c.splitComms
}

// newSplit builds the communicators of a split.
func (c *Comm) newSplit(vals []float64) []*Comm {
	type member struct{ color, key, world, rank int }
	members := make([]member, len(vals))
	for i, pv := range vals {
		col := int(pv / (1 << 21))
		k := int(pv-float64(float64(col)*(1<<21))) - (1 << 20)
		members[i] = member{col, k, c.ranks[i], i}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].color != members[j].color {
			return members[i].color < members[j].color
		}
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].world < members[j].world
	})
	comms := make([]*Comm, len(vals))
	for lo := 0; lo < len(members); {
		hi := lo
		for hi < len(members) && members[hi].color == members[lo].color {
			hi++
		}
		ranks := make([]int, hi-lo)
		for i, m := range members[lo:hi] {
			ranks[i] = m.world
		}
		sub := newComm(c.world, fmt.Sprintf("%s/c%d", c.label, members[lo].color), ranks)
		for _, m := range members[lo:hi] {
			comms[m.rank] = sub
		}
		lo = hi
	}
	return comms
}

// SplitK partitions the communicator by color, ordering each new
// communicator by (key, world rank) — MPI_Comm_split semantics. Every
// member must call SplitK; each receives its sub-communicator through k.
// Unlike the other collectives it allocates: it builds the
// communicators, unless the members repeat the latest split's colors and
// keys, which hands them that split's communicators again.
func (c *Comm) SplitK(r *Rank, color, key int, k func(*Comm)) {
	c.collective(r, opSplit, packSplit(color, key), k)
}

// Package mpi provides a deterministic message-passing abstraction over the
// simulation engine: a world of ranks (one simulated process each, mapped
// to compute nodes like MPI ranks on Cab — CoresPerNode ranks per node),
// communicators with barrier/reduction/gather collectives, and
// communicator splitting. Collective calls must be made by every rank of a
// communicator in the same order, mirroring MPI semantics. Collectives
// charge a logarithmic latency model.
package mpi

import (
	"fmt"
	"math"
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
	done  *sim.Signal
	left  int
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
		done:              eng.NewSignal("world-done"),
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

// Done fires once every rank's body has returned.
func (w *World) Done() *sim.Signal { return w.done }

// LaunchTasks starts every rank as an inline engine task at the current
// virtual time. The body is written in continuation-passing style against
// the rank's Task and the K-suffixed collectives, and must arrange for
// done to be called exactly once when the rank's workload is complete.
// Done fires when every rank has finished.
//
//pfsim:taskctx
func (w *World) LaunchTasks(body func(r *Rank, done func())) {
	for i := 0; i < w.size; i++ {
		rank := &Rank{world: w, id: i}
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
		r.world.done.Fire()
	}
}

// World returns the rank's world.
func (r *Rank) World() *World { return r.world }

// Comm is a communicator over a subset of world ranks.
type Comm struct {
	world *World
	label string
	ranks []int       // world rank ids, comm-rank order
	index map[int]int // world rank → comm rank
	// byWorld lists comm ranks in world-rank order, or is nil when that
	// is comm-rank order (the world comm, and most splits).
	byWorld []int

	seq     []int // comm rank → collective calls issued
	pending map[int]*rendezvous
}

func newComm(w *World, label string, ranks []int) *Comm {
	c := &Comm{
		world:   w,
		label:   label,
		ranks:   ranks,
		index:   make(map[int]int, len(ranks)),
		seq:     make([]int, len(ranks)),
		pending: make(map[int]*rendezvous),
	}
	for i, r := range ranks {
		c.index[r] = i
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
func (c *Comm) RankOf(r *Rank) int {
	if i, ok := c.index[r.id]; ok {
		return i
	}
	return -1
}

// WorldRanks returns the member world ranks in comm order.
func (c *Comm) WorldRanks() []int {
	out := make([]int, len(c.ranks))
	copy(out, c.ranks)
	return out
}

// NodeOfWorldRank returns the compute node hosting a member world rank.
func (c *Comm) NodeOfWorldRank(wr int) int { return c.world.nodeOf[wr] }

// rendezvous matches one collective call across the communicator.
type rendezvous struct {
	arrived int
	sig     *sim.Signal
	vals    []float64 // contributions by comm rank
	result  any
}

// arrive registers one rank's contribution to its next collective and
// reports whether this rank completed the rendezvous (it is then the
// "last arriver" responsible for finalizing and releasing the others).
func (c *Comm) arrive(r *Rank, val float64) (rv *rendezvous, last bool) {
	cr := c.RankOf(r)
	if cr < 0 {
		panic(fmt.Sprintf("mpi: rank %d not in comm %q", r.id, c.label))
	}
	idx := c.seq[cr]
	c.seq[cr]++
	rv = c.pending[idx]
	if rv == nil {
		rv = &rendezvous{
			sig:  c.world.eng.NewSignal(fmt.Sprintf("%s-coll-%d", c.label, idx)),
			vals: make([]float64, len(c.ranks)),
		}
		c.pending[idx] = rv
	}
	rv.vals[cr] = val
	rv.arrived++
	if rv.arrived < len(c.ranks) {
		return rv, false
	}
	delete(c.pending, idx)
	return rv, true
}

// collectiveK is the common engine for synchronising operations: every
// rank contributes a value; the last arriver computes the result via
// finalize (receiving contributions in comm-rank order), pays the tree
// latency (one scheduled event), fires the signal releasing the others,
// and then continues inline before the woken waiters' events fire. The
// result is delivered to the continuation k.
func (c *Comm) collectiveK(r *Rank, val float64, finalize func([]float64) any, k func(any)) {
	rv, last := c.arrive(r, val)
	if !last {
		rv.sig.Await(r.task, func() { k(rv.result) })
		return
	}
	rv.result = finalize(rv.vals)
	release := func() {
		rv.sig.Fire()
		k(rv.result)
	}
	if lat := c.latency(); lat > 0 {
		r.task.Sleep(lat, release)
		return
	}
	release()
}

func (c *Comm) latency() float64 {
	n := len(c.ranks)
	if n <= 1 {
		return 0
	}
	stages := math.Ceil(math.Log2(float64(n)))
	return c.world.CollectiveLatency * stages
}

func finalizeBarrier([]float64) any { return nil }

func finalizeMin(vals []float64) any {
	min := math.Inf(1)
	for _, x := range vals {
		if x < min {
			min = x
		}
	}
	return min
}

func finalizeMax(vals []float64) any {
	max := math.Inf(-1)
	for _, x := range vals {
		if x > max {
			max = x
		}
	}
	return max
}

// finalizeSum sums in world-rank order, which split communicators need
// not share with comm-rank order, so a reduction's last bits do not
// depend on how its communicator was built.
func (c *Comm) finalizeSum(vals []float64) any {
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

// finalizeGather hands the contributions over as they are: the rendezvous
// is retired once finalized, so nothing writes to them afterwards.
func finalizeGather(vals []float64) any { return vals }

// BarrierK runs k once every comm member has arrived.
func (c *Comm) BarrierK(r *Rank, k func()) {
	c.collectiveK(r, 0, finalizeBarrier, func(any) { k() })
}

// AllreduceMinK delivers the minimum contribution to k.
func (c *Comm) AllreduceMinK(r *Rank, v float64, k func(float64)) {
	c.collectiveK(r, v, finalizeMin, func(res any) { k(res.(float64)) })
}

// AllreduceMaxK delivers the maximum contribution to k.
func (c *Comm) AllreduceMaxK(r *Rank, v float64, k func(float64)) {
	c.collectiveK(r, v, finalizeMax, func(res any) { k(res.(float64)) })
}

// AllreduceSumK delivers the sum of contributions to k.
func (c *Comm) AllreduceSumK(r *Rank, v float64, k func(float64)) {
	c.collectiveK(r, v, c.finalizeSum, func(res any) { k(res.(float64)) })
}

// AllGatherK delivers every rank's contribution in comm-rank order to k.
func (c *Comm) AllGatherK(r *Rank, v float64, k func([]float64)) {
	c.collectiveK(r, v, finalizeGather, func(res any) { k(res.([]float64)) })
}

// packSplit encodes color/key into the float contribution losslessly
// (both are small integers in practice; guard anyway).
func packSplit(color, key int) float64 {
	if color < 0 || color > 1<<20 || key < -(1<<20) || key > 1<<20 {
		panic("mpi: Split color/key out of supported range")
	}
	return float64(float64(color)*(1<<21)) + float64(key+(1<<20))
}

// finalizeSplit returns each member's new communicator, by comm rank.
func (c *Comm) finalizeSplit(vals []float64) any {
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
func (c *Comm) SplitK(r *Rank, color, key int, k func(*Comm)) {
	c.collectiveK(r, packSplit(color, key), c.finalizeSplit, func(res any) {
		k(res.([]*Comm)[c.index[r.id]])
	})
}

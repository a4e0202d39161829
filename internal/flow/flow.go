// Package flow implements a fluid network model on top of the sim engine,
// in the style of SimGrid: transfers are flows over a path of links, every
// link has a (possibly stream-count-dependent) capacity in MB/s, and active
// flows receive max-min fair rates computed by progressive filling. When
// the set of flows or a capacity changes, rates are recomputed and the next
// completion event is rescheduled. Contention between I/O jobs — the
// subject of the reproduced paper — is exactly the sharing of OST, server
// and network links between concurrent flows.
//
// # Solver cost
//
// The solver is the hot path of every experiment, so it avoids every
// superlinear cost the naive formulation pays:
//
//   - Component partitioning: max-min fairness only couples flows that
//     share a link, directly or transitively. The network maintains the
//     link-connectivity components of the active flows — union on admit,
//     lazy split/rebuild when a completion may disconnect one — and tracks
//     dirtiness per component, so a change in one file system's traffic
//     re-solves and re-scans only that file system's component, never the
//     whole population. Disjoint components have independent max-min
//     allocations, so the partitioned solve is exact. A rebuild keeps the
//     component, its record and its flow and link arrays, for its first
//     surviving connectivity class and compacts them in place; only
//     classes that split off allocate, so a retirement that leaves its
//     component connected allocates nothing.
//
//   - Per-flow accrual anchors: volume accounting is lazy. Each flow
//     carries an anchor (settledAt, remaining, rate); its remaining volume
//     and its links' carried telemetry are settled only when its rate
//     actually changes, when it completes, or when link telemetry
//     (Link.Carried) is read — never merely because virtual time advanced
//     somewhere else. Flow.Remaining computes its instantaneous value on
//     the fly without touching the anchor. An instant that touches one
//     component settles only the flows whose rates moved, instead of
//     charging every active flow in the network.
//
//   - Same-instant coalescing: flow arrivals and completions do not solve
//     immediately. They update the admission state eagerly and schedule one
//     zero-delay "solver dirty" event, so a 1,024-rank collective that opens
//     all its stripe streams in one virtual instant triggers a single
//     progressive-filling pass per touched component instead of 1,024.
//     Rates are only ever *read* across a positive time interval, and the
//     dirty event fires before virtual time advances, so trajectories are
//     byte-identical to solving on every change.
//
//   - Live-link lists and a per-link flow index: each progressive-filling
//     round makes one pass over the links that still carry an unfixed flow
//     (compacted as they drain), finding the minimum fair share and the
//     saturated links together, then fixes the saturated links' flows
//     through an index built once per solve; rate-capped flows are fixed
//     from a cursor over a list each component keeps sorted, re-sorted
//     only after capped flows join it out of order. A round therefore
//     costs the live links plus the flows it fixes, and a solve with many
//     rate-fixing rounds — one per share level, hundreds on a PLFS storm —
//     no longer pays rounds × (links + unfixed flows).
//
//   - Link-share heap for long solves: a solve still running after a few
//     scan rounds with many live links left builds an indexed min-heap of
//     their fair shares and finishes from it. Each round then re-keys only
//     the links on the paths of the flows the previous round fixed and
//     reads the minimum at the root, so it costs those links' sifts plus
//     the flows it fixes instead of a pass over every live link. The heap
//     finds the scan's minimum bits and saturated set, so the choice moves
//     cost (Stats.LinkVisits, Stats.ShareHeapOps), never rates.
//
//   - Completion heap: the next completion event comes from an indexed
//     min-heap of flow completion times, re-keyed only when a solve
//     assigns a flow a different finish time and rebuilt wholesale when
//     most keys move. Scheduling the next event is a peek at the root
//     instead of a scan over every active flow, and the engine event is
//     moved in place (sim.Engine.Reschedule) rather than cancelled and
//     reposted.
//
// UseReferenceSolver restores the naive behaviour (full link scans over
// the whole network, one solve per change, linear completion scans); the
// property tests use it as the oracle and the benchmarks as the
// before/after baseline. Stats reports solver work for both modes.
//
// Capacity models must depend only on their own link's traffic (as every
// model in this repository does): the partitioned solver re-reads a
// link's capacity only when its component is re-solved.
//
// A Net runs on its engine's goroutine: one simulation is one goroutine,
// and callers that want more cores run independent simulations side by
// side.
package flow

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"pfsim/internal/sim"
)

// epsilonMB is the residual byte count (in MB) below which a freshly
// admitted flow is considered instantaneous.
const epsilonMB = 1e-9

// CapacityModel yields a link's total capacity in MB/s given the number of
// concurrent flows crossing it. Implementations model effects such as disk
// seek thrash, where aggregate throughput degrades as streams are added.
type CapacityModel interface {
	Capacity(streams int) float64
}

// Const is a stream-count-independent capacity in MB/s.
type Const float64

// Capacity implements CapacityModel.
func (c Const) Capacity(int) float64 { return float64(c) }

// Thrash models a resource whose aggregate throughput degrades with
// concurrent streams: Capacity(k) = Base / (1 + Gamma*(k-1)). Gamma = 0 is
// a constant-capacity link; disks under competing streams have Gamma > 0.
type Thrash struct {
	Base  float64 // MB/s with a single stream
	Gamma float64 // degradation per additional stream
}

// Capacity implements CapacityModel.
func (t Thrash) Capacity(streams int) float64 {
	if streams <= 1 {
		return t.Base
	}
	return t.Base / (1 + float64(t.Gamma*float64(streams-1)))
}

// component is one link-connectivity equivalence class of the active
// flows: every flow in it shares a link — directly or through a chain of
// other flows — with the rest, and no flow outside it crosses any of its
// links. Rate solves, dirtiness and accrual settling operate per
// component. Flows are kept in admission (seq) order, which is the order
// progressive filling charges residuals in; link order is numerically
// irrelevant (the solver only takes minima over links and per-link sums),
// but the link-share heap is built in link order and the cost of its
// saturation walk (Stats.LinkVisits) depends on it, so a rebuild lists
// links as a fresh component would. A component outlives retirements:
// the rebuild after one keeps it for its first surviving class (see
// rebuildComponent), and it dies only when merged away or emptied.
//
// A component also keeps its capped flows in the (maxRate, seq) order
// the solve fixes them in (see sortCapped). Caps never change, so the
// order only goes stale when capped flows join: attach appends a flow
// whose cap is no lower than the last kept one (its seq is the largest)
// and otherwise clears sorted, a merge clears it, and the next solve
// sorts afresh (Stats.CappedSorted). Leaving flows keep it sorted: a
// rebuild filters out the flows that finished or split off, so a solve
// after retirements sorts nothing.
type component struct {
	flows  []*Flow // active flows in admission order (finished ones linger until rebuild)
	links  []*Link // links currently carrying this component's flows
	capped []*Flow // the capped flows in (maxRate, seq) order, while sorted holds

	dirty   bool // needs a re-solve at the next flush
	rebuild bool // lost a flow; connectivity must be recomputed before solving
	queued  bool // already on Net.work
	dead    bool // merged away or emptied
	sorted  bool // capped lists exactly the capped flows, in order
}

// Link is a shared resource flows traverse.
type Link struct {
	name  string // the link's name, or its set's prefix when index >= 0
	model CapacityModel
	net   *Net

	active  int        // flows currently crossing the link
	comp    *component // owning component; nil while idle
	compIdx int        // position in comp.links
	carried float64    // MB settled so far (telemetry; see Carried)

	// scratch used during rate computation
	residual  float64
	unfixed   int
	saturated bool // reference solver: saturated this round
	touched   bool // queued on solveCtx.touched for a share re-key

	index int32 // position in its NewLinks set, or -1 for a NewLink link

	// scratch used during component rebuilds (union-find over links)
	dsuParent *Link
	dsuEpoch  int64
	child     *component
}

// Name returns the link's name. A member of a NewLinks set is named its
// set's prefix and its index, formatted here: only reports read names.
func (l *Link) Name() string {
	if l.index < 0 {
		return l.name
	}
	return l.name + strconv.Itoa(int(l.index))
}

// Active reports the number of flows currently crossing the link.
func (l *Link) Active() int { return l.active }

// Carried reports the cumulative MB transported over the link. Accrual is
// lazy, so the read settles the link's in-flight flows up to the current
// instant first; the settle points are driven by rate changes and reads,
// never by the solver mode, so the value is identical in both modes.
func (l *Link) Carried() float64 {
	if l.net != nil {
		l.net.settleLink(l)
	}
	return l.carried
}

// SetModel replaces the capacity model. The link's component is marked
// dirty, so the change takes effect through the coalesced zero-delay solve
// of the current instant (immediately in reference mode); call
// Net.Recompute to force an immediate full settle instead. Changing an
// idle link's model costs nothing until a flow crosses it. Passing the
// model already installed signals an in-place parameter mutation (e.g. an
// OST health change) and triggers the same component-local re-solve.
func (l *Link) SetModel(m CapacityModel) {
	l.model = m
	if l.net == nil || l.comp == nil {
		return
	}
	l.net.markDirty(l.comp)
}

// Model returns the current capacity model.
func (l *Link) Model() CapacityModel { return l.model }

// Flow is an in-progress transfer.
type Flow struct {
	name      string
	remaining float64 // MB, settled as of settledAt
	size      float64 // MB, original
	path      []*Link
	maxRate   float64 // MB/s; <= 0 means unlimited
	rate      float64 // allocation assigned by the most recent solve
	committed float64 // rate in force across real time: the last per-instant commit
	started   float64
	settledAt float64 // accrual anchor: remaining/carried are exact as of this instant
	finishAt  float64
	finished  bool

	net        *Net
	comp       *component
	fixedEpoch int64 // solve epoch that last pinned this flow's rate

	// Completion bookkeeping. due is the absolute time the flow drains at
	// its current rate (+Inf when stalled), computed when the rate last
	// changed; it doubles as the completion-heap key in incremental mode.
	due     float64
	heapIdx int   // position in Net.completions; -1 while not queued
	seq     int64 // admission order, tie-break for equal due times

	// batch is the StartBatch that admitted the flow, which counts it
	// off when it finishes.
	batch *Batch
	// onDone, if set, runs synchronously at completion before the batch's
	// wait can end — used to deregister streams from capacity models so
	// the post-completion rate recomputation sees the updated state.
	onDone func()
}

// Name returns the flow's name.
func (f *Flow) Name() string { return f.name }

// Rate returns the current allocated rate in MB/s. Within a virtual
// instant the value may be stale until the coalesced solve fires; call
// Net.Recompute first when reading rates outside the engine loop.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the MB left to transfer at the current instant,
// including volume accrued at the committed rate since the flow's last
// settle (the read does not perturb the accrual anchor).
func (f *Flow) Remaining() float64 {
	if f.finished || f.net == nil {
		return f.remaining
	}
	left := f.remaining - float64(f.committed*(f.net.eng.Now()-f.settledAt))
	if left < 0 {
		return 0
	}
	return left
}

// Size returns the original transfer size in MB.
func (f *Flow) Size() float64 { return f.size }

// Finished reports completion.
func (f *Flow) Finished() bool { return f.finished }

// Started returns the virtual time the flow was started.
func (f *Flow) Started() float64 { return f.started }

// FinishedAt returns the completion time (0 until finished).
func (f *Flow) FinishedAt() float64 { return f.finishAt }

// Observer receives flow lifecycle callbacks; see Net.Observe. Callbacks
// run synchronously inside the engine, so implementations must not block.
type Observer interface {
	// FlowStarted fires when a flow is admitted (before its first rate
	// assignment; zero-sized flows report with their completion).
	FlowStarted(f *Flow)
	// FlowFinished fires when a flow drains.
	FlowFinished(f *Flow)
}

// Stats counts solver work; see Net.Stats. The visit counters are the
// machine-independent cost metric the solver benchmarks report.
type Stats struct {
	// Solves is the number of solver activations: coalesced per-instant
	// flushes (plus forced Recomputes) in incremental mode, one per change
	// in reference mode.
	Solves int64
	// ComponentsSolved is the number of per-component progressive-filling
	// passes. The reference solver counts each of its global passes as one
	// component — it treats the whole network as a single component.
	ComponentsSolved int64
	// ComponentFlowsScanned is the number of active flows handed to
	// progressive-filling passes (the population each pass initialises and
	// re-fixes). ComponentFlowsScanned/ComponentsSolved is the average
	// population a solve touches: ~the component size under partitioning,
	// the whole active population without it.
	ComponentFlowsScanned int64
	// LinkVisits is the number of link records examined across all passes:
	// one per component link at initialisation, then one per still-live
	// link in every scan round's share-and-saturation pass, and one per
	// heap entry the saturation walk reads in every round a long solve
	// finishes from its link-share heap (the reference solver scans every
	// link of the network twice per round instead).
	LinkVisits int64
	// Coalesced is the number of recompute requests absorbed by an
	// already-pending solve event.
	Coalesced int64
	// Rounds is the number of rate-fixing rounds across all passes.
	Rounds int64
	// FlowsScanned is the number of flow records examined across
	// rate-fixing rounds. The incremental solver examines only the flows it
	// may fix: the saturated links' flow-index entries and the capped flows
	// its cursor passes, so a solve examines each flow about once per
	// bottleneck link it crosses. The reference solver rescans the whole
	// active population every round (Rounds × active flows), which is the
	// cost the benchmarks compare against.
	FlowsScanned int64
	// FlowsSettled is the number of accrual settles: flows whose remaining
	// volume and link telemetry were advanced to the current instant
	// because their committed rate changed, they completed, or a link's
	// carried telemetry was read (Flow.Remaining reads do not settle).
	// The pre-anchor accounting charged every active flow at every
	// positive-dt instant instead; settles are identical in both solver
	// modes (rate trajectories are identical), so the counter measures the
	// accounting cost of the physics, not of the solver mode.
	FlowsSettled int64
	// HeapOps is the number of completion-heap element operations: pushes,
	// pops, removals, per-flow re-keys and per-entry rebuild work. Zero in
	// reference mode, which scans every active flow to find the next
	// completion instead.
	HeapOps int64
	// ShareHeapOps is the number of link-share heap element operations in
	// solves long enough to switch from scanning to the heap: one per live
	// link when the heap is built, then one per re-key or removal of a link
	// whose share the previous round's fixes moved. Zero for solves that
	// finish within the scan rounds, and in reference mode.
	ShareHeapOps int64
	// CappedSorted is the number of capped flows put through a full sort:
	// a solve sorts its component's capped flows only after a merge, or
	// after a capped flow joined below the last kept cap (see component),
	// and then counts the component's whole capped population. Zero in
	// reference mode, which sorts each round's capped batch instead.
	CappedSorted int64
}

// Add folds o's counters into s: the work of several simulations, each
// with a net of its own, summed.
func (s *Stats) Add(o Stats) {
	s.Solves += o.Solves
	s.ComponentsSolved += o.ComponentsSolved
	s.ComponentFlowsScanned += o.ComponentFlowsScanned
	s.LinkVisits += o.LinkVisits
	s.Coalesced += o.Coalesced
	s.Rounds += o.Rounds
	s.FlowsScanned += o.FlowsScanned
	s.FlowsSettled += o.FlowsSettled
	s.HeapOps += o.HeapOps
	s.ShareHeapOps += o.ShareHeapOps
	s.CappedSorted += o.CappedSorted
}

// FlowSpec describes one flow for StartBatch.
type FlowSpec struct {
	// Name labels the flow.
	Name string
	// SizeMB is the transfer volume; zero-sized flows complete immediately.
	SizeMB float64
	// MaxRate optionally caps the flow (MB/s); <= 0 means unlimited.
	MaxRate float64
	// OnDone, if set, runs synchronously at completion, before the
	// batch's wait can end.
	OnDone func()
	// Path is the link path the flow traverses.
	Path []*Link
}

// Net is a fluid network bound to a sim engine.
type Net struct {
	eng       *sim.Engine
	links     []*Link
	linkNames map[string]bool // NewLink's names; duplicates are rejected, as names key telemetry
	linkSets  map[string]int  // NewLinks prefix -> set size

	// activeFlows holds flows in admission order; completed flows linger
	// as tombstones (finished == true) and are compacted once they are
	// half the slice, so retiring stays amortised O(1) without disturbing
	// the admission order the reference solver iterates in.
	activeFlows      []*Flow
	activeCount      int
	finishedInActive int
	activeLinkCount  int

	comps     []*component // live components (dead ones compacted lazily)
	deadComps int
	work      []*component // components queued for the pending flush

	nextEv    *sim.Event
	dirtyEv   *sim.Event // pending coalesced solve at the current instant
	observer  Observer
	reference bool // solve eagerly with full link scans (oracle mode)

	// flushFn and completionFn are the bound-method closures for flushWork
	// and onCompletion, built once in NewNet: the solver schedules them
	// every instant, and a per-schedule method value would put one closure
	// allocation on the zero-alloc steady-state path.
	flushFn      func()
	completionFn func()

	// ctx is the progressive-filling scratch every solve reuses.
	// heapRounds and heapLinks are the rule that switches a component solve
	// from scanning to the link-share heap (see defaultHeapRounds).
	ctx           solveCtx
	heapRounds    int
	heapLinks     int
	solvedScratch []*component
	stats         Stats
	solveEpoch    int64 // stamp of the latest solve; never reused
	dsuEpoch      int64

	completions compHeap    // active flows ordered by (due, seq); incremental mode only
	dueChanged  []dueChange // completion keys moved by the in-progress flush
	doneScratch []*Flow     // onCompletion's batch scratch, reused across instants
	flowSeq     int64       // admission counter feeding Flow.seq
}

// solveCtx is the scratch one progressive-filling pass walks, kept on the
// Net so that every solve reuses its capacity.
type solveCtx struct {
	live   []*Link     // links still carrying an unfixed flow, in component order
	cand   []candidate // the round's saturation candidates
	capped []*Flow     // reference solver: one round's capped batch
	sat    []*Link     // reference solver: the round's saturated links

	// idx is the per-solve flow index, offsets then positions: with
	// off = idx[:len(c.links)+1] and at = idx[len(c.links)+1:],
	// at[off[i]:off[i+1]] are the positions in c.flows of the unfinished
	// flows crossing c.links[i] (i = compIdx).
	idx []int32

	// shares is a long solve's link-share heap and touched the links whose
	// shares the current round's fixes move (see solveComponent).
	shares  shareHeap
	touched []*Link
}

// defaultHeapRounds and defaultHeapLinks are the switch rule from
// scanning to the link-share heap: a component solve that has made
// defaultHeapRounds rounds by scanning its live links, and still has at
// least defaultHeapLinks of them, builds the heap and finishes from it.
// Most solves fix every flow within a handful of rounds, where one pass
// over the live list beats building and keeping a heap. A solve still
// running after that many rounds is in the one-round-per-share-level
// regime, where each rescan pays for every live link and a heap round
// pays only for the links the previous round's fixes touched — a saving
// only when the live list is long. Results are bit-identical either way;
// tests zero both fields to use the heap from the first round, or raise
// heapRounds past any round count to scan only.
const (
	defaultHeapRounds = 8
	defaultHeapLinks  = 32
)

// dueChange stages one completion-heap re-key. Keys are applied one at a
// time (or in bulk via a rebuild) after the flush, never mid-heap-repair,
// so every heap.Fix sees a heap that was valid before its single change.
type dueChange struct {
	f   *Flow
	due float64
}

// compHeap is an indexed min-heap of active flows ordered by completion
// time, ties broken by admission order. It implements container/heap.
type compHeap []*Flow

func (h compHeap) Len() int { return len(h) }
func (h compHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h compHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *compHeap) Push(x any) {
	f := x.(*Flow)
	f.heapIdx = len(*h)
	*h = append(*h, f) // grows to the peak active-flow population, then reuses capacity
}
func (h *compHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	f.heapIdx = -1
	*h = old[:n-1]
	return f
}

// Observe installs an observer (nil to remove).
func (n *Net) Observe(o Observer) { n.observer = o }

// NewNet creates an empty network on eng.
func NewNet(eng *sim.Engine) *Net {
	n := &Net{
		eng:        eng,
		linkNames:  map[string]bool{},
		heapRounds: defaultHeapRounds,
		heapLinks:  defaultHeapLinks,
	}
	n.flushFn = n.flushWork
	n.completionFn = n.onCompletion
	return n
}

// Engine returns the engine the network is bound to.
func (n *Net) Engine() *sim.Engine { return n.eng }

// NewLink adds a link with the given capacity model. Link names key
// telemetry and error reporting, so duplicates are a caller bug: two
// links of one name would silently alias each other's carried-volume
// labels. NewLink panics on a name any link of the net already has, a
// NewLinks member's included.
func (n *Net) NewLink(name string, model CapacityModel) *Link {
	if n.hasLink(name) {
		panic(fmt.Sprintf("flow: duplicate link name %q", name))
	}
	n.linkNames[name] = true
	l := &Link{name: name, model: model, net: n, compIdx: -1, index: -1}
	n.links = append(n.links, l)
	return l
}

// NewLinks adds count links sharing one capacity model (nil when the
// caller installs each link's own with SetModel before use), named
// prefix+"0" through prefix+strconv.Itoa(count-1). The links are one
// allocation and their names are formatted only when read, so a file
// system's thousands of NICs and OSTs cost a few allocations, not several
// per link. NewLinks panics if any of the names is taken, by a NewLink
// link or by a member of an earlier set, the duplicate-name rule of
// NewLink.
func (n *Net) NewLinks(prefix string, count int, model CapacityModel) []*Link {
	if count < 0 || count > math.MaxInt32 {
		panic(fmt.Sprintf("flow: link set %q of %d links", prefix, count))
	}
	if count == 0 {
		return nil
	}
	// A member of one set is a member of another exactly when the longer
	// prefix extends the shorter by a decimal, and that decimal followed
	// by "0", its smallest extension, falls in the shorter prefix's set.
	for p, size := range n.linkSets { //pfsim:orderok — any overlap panics, naming the new set
		if setHas(p+"0", prefix, count) || setHas(prefix+"0", p, size) {
			panic(fmt.Sprintf("flow: link set %q of %d links overlaps the set %q", prefix, count, p))
		}
	}
	for name := range n.linkNames { //pfsim:orderok — any clash panics, naming the new set
		if setHas(name, prefix, count) {
			panic(fmt.Sprintf("flow: link set %q of %d links covers an existing link's name", prefix, count))
		}
	}
	if n.linkSets == nil {
		n.linkSets = map[string]int{}
	}
	n.linkSets[prefix] = count
	slab := make([]Link, count)
	out := make([]*Link, count)
	for i := range slab {
		slab[i] = Link{name: prefix, model: model, net: n, compIdx: -1, index: int32(i)}
		out[i] = &slab[i]
	}
	n.links = append(n.links, out...)
	return out
}

// hasLink reports whether a link with the given name exists on the net.
// A set member's name is its set's prefix followed by a decimal index, so
// each split of the name's trailing digits is looked up as a prefix.
func (n *Net) hasLink(name string) bool {
	if n.linkNames[name] {
		return true
	}
	for k := len(name) - 1; k >= 0 && '0' <= name[k] && name[k] <= '9'; k-- {
		if size, ok := n.linkSets[name[:k]]; ok && setHas(name, name[:k], size) {
			return true
		}
	}
	return false
}

// setHas reports whether name is prefix+strconv.Itoa(i) for some i in
// [0, size).
func setHas(name, prefix string, size int) bool {
	r, ok := strings.CutPrefix(name, prefix)
	if !ok || r == "" || len(r) > 10 || (r[0] == '0' && len(r) > 1) {
		return false
	}
	i := 0
	for _, c := range []byte(r) {
		if c < '0' || c > '9' {
			return false
		}
		i = i*10 + int(c-'0')
	}
	return i < size
}

// ActiveFlows reports the number of unfinished flows.
func (n *Net) ActiveFlows() int { return n.activeCount }

// ActiveLinks reports the number of links currently carrying flows.
func (n *Net) ActiveLinks() int { return n.activeLinkCount }

// Components reports the number of live link-connectivity components.
func (n *Net) Components() int { return len(n.comps) - n.deadComps }

// Stats returns the accumulated solver work counters.
func (n *Net) Stats() Stats { return n.stats }

// ResetStats zeroes the solver work counters.
func (n *Net) ResetStats() { n.stats = Stats{} }

// UseReferenceSolver switches the network to the naive solver: one full
// progressive-filling pass over every link in the network on every flow
// arrival, completion and capacity change, with no same-instant coalescing,
// no component partitioning and a linear scan for the next completion. It
// exists as the correctness oracle for the partitioned solver and as the
// baseline the solver benchmarks measure against; simulations produce
// byte-identical results in either mode. Switching with flows in flight
// settles pending work under the outgoing mode and rebuilds the completion
// heap, so the mode change is safe at any instant.
func (n *Net) UseReferenceSolver(on bool) {
	if on == n.reference {
		return
	}
	if n.dirtyEv != nil || len(n.work) > 0 {
		n.Recompute()
	}
	n.reference = on
	n.dueChanged = n.dueChanged[:0]
	for i := range n.completions {
		n.completions[i].heapIdx = -1
		n.completions[i] = nil
	}
	n.completions = n.completions[:0]
	if !on {
		// Completion keys are maintained in both modes (fix updates due on
		// every rate change), so the heap rebuilds directly from them.
		for _, f := range n.activeFlows {
			if f.finished {
				continue
			}
			f.heapIdx = len(n.completions)
			n.completions = append(n.completions, f)
		}
		heap.Init(&n.completions)
		n.stats.HeapOps += int64(len(n.completions))
		n.scheduleNext()
	}
}

// Start admits a one-flow batch — a transfer of sizeMB over path with an
// optional per-flow rate cap (maxRate <= 0 means unlimited) — and returns
// its flow. Zero-sized flows complete at the current instant.
func (n *Net) Start(name string, sizeMB, maxRate float64, path ...*Link) *Flow {
	return n.StartBatch([]FlowSpec{{Name: name, SizeMB: sizeMB, MaxRate: maxRate, Path: path}}).flows[0]
}

// Batch is the flows one StartBatch admitted, and the one wait on all of
// them: an I/O operation completes when its slowest stream drains. The
// flows hold consecutive admission numbers, so those that finish at the
// batch's last instant retire together, and the wait ends as the last of
// them does. A deadlock report names the wait after the batch's first
// flow, which names the operation, not the flow that stalled.
type Batch struct {
	flows []*Flow
	one   [1]*Flow    // backs flows for a batch of one
	left  int         // flows admitted with a volume and not yet finished
	done  *sim.Signal // fires when left reaches 0
}

// Flows returns the batch's flows in admission order.
func (b *Batch) Flows() []*Flow { return b.flows }

// Await runs k once every flow of the batch has finished: at once if all
// have, else when the last one drains, with t parked until then.
func (b *Batch) Await(t *sim.Task, k func()) { b.done.Await(t, k) }

// finish counts one of the batch's flows finished.
func (b *Batch) finish() {
	if b.left--; b.left == 0 {
		b.done.Fire()
	}
}

// StartBatch admits a set of flows in one operation — the one way flows
// enter the network: collectives open all their stripe streams at once
// (two-phase writes, PLFS log storms, file-per-process fans). The batch
// requests a single coalesced solve per touched component, so its cost is
// O(flows) bookkeeping plus one progressive-filling pass per component
// regardless of batch width. Flows are admitted (and observers notified)
// in spec order.
func (n *Net) StartBatch(specs []FlowSpec) *Batch {
	b := &Batch{}
	name := ""
	if len(specs) > 0 {
		name = specs[0].Name
	}
	b.done = n.eng.NewSignal(name)
	b.flows = b.one[:]
	if len(specs) != 1 {
		b.flows = make([]*Flow, len(specs))
	}
	for i := range specs {
		b.flows[i] = n.admit(b, &specs[i])
	}
	if b.left == 0 {
		b.done.Fire()
	}
	return b
}

// admit adds one flow of batch b at the current instant: component
// membership is unioned eagerly, the rate solve is deferred to the
// coalesced dirty event (performed immediately in reference mode).
func (n *Net) admit(b *Batch, sp *FlowSpec) *Flow {
	if sp.SizeMB < 0 || math.IsNaN(sp.SizeMB) || math.IsInf(sp.SizeMB, 1) {
		panic(fmt.Sprintf("flow: bad size %v for %q", sp.SizeMB, sp.Name))
	}
	if math.IsNaN(sp.MaxRate) || math.IsInf(sp.MaxRate, 0) {
		panic(fmt.Sprintf("flow: bad rate cap %v for %q", sp.MaxRate, sp.Name))
	}
	n.flowSeq++
	f := &Flow{
		name:      sp.Name,
		remaining: sp.SizeMB,
		size:      sp.SizeMB,
		path:      sp.Path,
		maxRate:   sp.MaxRate,
		started:   n.eng.Now(),
		settledAt: n.eng.Now(),
		net:       n,
		batch:     b,
		onDone:    sp.OnDone,
		due:       math.Inf(1),
		heapIdx:   -1,
		seq:       n.flowSeq,
	}
	if sp.SizeMB <= epsilonMB {
		f.finished = true
		f.finishAt = n.eng.Now()
		if f.onDone != nil {
			f.onDone()
		}
		if n.observer != nil {
			n.observer.FlowStarted(f)
			n.observer.FlowFinished(f)
		}
		return f
	}
	if len(sp.Path) == 0 && sp.MaxRate <= 0 {
		panic(fmt.Sprintf("flow: %q has no path and no rate cap; would complete instantaneously", sp.Name))
	}
	b.left++
	n.activeFlows = append(n.activeFlows, f)
	n.activeCount++
	for _, l := range f.path {
		if l.active == 0 {
			n.activeLinkCount++
		}
		l.active++
	}
	n.attach(f)
	if !n.reference {
		// A +Inf key sinks to the heap's bottom for free; the coalesced
		// solve assigns the real completion time.
		heap.Push(&n.completions, f)
		n.stats.HeapOps++
	}
	n.markDirty(f.comp)
	if n.observer != nil {
		n.observer.FlowStarted(f)
	}
	return f
}

// attach places a freshly admitted flow in a component: the union of its
// path links' components, merged if the flow bridges several, or a new
// component when all its links were idle. Path-less capped flows get a
// singleton component of their own.
func (n *Net) attach(f *Flow) {
	var target *component
	for _, l := range f.path {
		c := l.comp
		if c == nil || c == target {
			continue
		}
		if target == nil {
			target = c
			continue
		}
		target = n.merge(target, c)
	}
	if target == nil {
		target = &component{sorted: true}
		n.addComp(target)
	}
	f.comp = target
	target.flows = append(target.flows, f) // f.seq is the largest: order kept
	if f.maxRate > 0 && target.sorted {
		// f's seq is the largest too, so a cap no lower than the last
		// kept one extends the order; a lower one leaves it to a sort.
		if k := len(target.capped); k == 0 || target.capped[k-1].maxRate <= f.maxRate {
			target.capped = append(target.capped, f) // grows to the component's peak capped population, then reuses capacity
		} else {
			target.sorted = false
		}
	}
	for _, l := range f.path {
		if l.comp == nil {
			l.comp = target
			l.compIdx = len(target.links)
			target.links = append(target.links, l)
		}
	}
}

// merge folds the smaller component into the larger, keeping the flow list
// in admission order (a sorted merge on seq) so progressive filling
// charges residuals in exactly the order a monolithic solve would.
func (n *Net) merge(a, b *component) *component {
	if len(a.flows) < len(b.flows) {
		a, b = b, a
	}
	merged := make([]*Flow, 0, len(a.flows)+len(b.flows))
	i, j := 0, 0
	for i < len(a.flows) && j < len(b.flows) {
		if a.flows[i].seq < b.flows[j].seq {
			merged = append(merged, a.flows[i])
			i++
		} else {
			merged = append(merged, b.flows[j])
			j++
		}
	}
	merged = append(merged, a.flows[i:]...)
	merged = append(merged, b.flows[j:]...)
	a.flows = merged
	for _, f := range b.flows {
		f.comp = a
	}
	for _, l := range b.links {
		l.comp = a
		l.compIdx = len(a.links)
		a.links = append(a.links, l)
	}
	if b.dirty {
		a.dirty = true
	}
	if b.rebuild {
		a.rebuild = true
	}
	a.sorted = false
	b.dead = true
	b.flows, b.links, b.capped = nil, nil, nil
	n.deadComps++
	return a
}

// addComp registers a new live component, compacting the dead entries out
// of the registry once they dominate it.
func (n *Net) addComp(c *component) {
	if n.deadComps > 32 && n.deadComps*2 >= len(n.comps) {
		w := 0
		for _, old := range n.comps {
			if !old.dead {
				n.comps[w] = old
				w++
			}
		}
		for i := w; i < len(n.comps); i++ {
			n.comps[i] = nil
		}
		n.comps = n.comps[:w]
		n.deadComps = 0
	}
	n.comps = append(n.comps, c)
}

// markDirty requests a rate solve for the component at the current virtual
// instant. In reference mode the rates re-solve immediately (and
// globally); in incremental mode the solve waits for the flush. Either
// way, one zero-delay event per instant commits accounting — settles,
// completion keys, the next completion event — after all same-instant
// changes have been applied. Committing once per instant (against the
// final rates) is what keeps the lazily accrued volume arithmetic, and
// with it every completion time, bit-identical across modes: the eager
// reference solves assign transient mid-instant rates, but no real time
// passes under them, so they must not move accrual anchors.
func (n *Net) markDirty(c *component) {
	c.dirty = true
	n.queueWork(c)
	if n.reference {
		n.assignRatesReference()
	}
}

// queueWork puts a component on the pending-flush queue and arms the
// coalesced zero-delay flush event.
func (n *Net) queueWork(c *component) {
	if !c.queued {
		c.queued = true
		n.work = append(n.work, c) // grows to the peak dirty-component count, then reuses capacity
	}
	if n.dirtyEv != nil {
		if !n.reference {
			n.stats.Coalesced++
		}
		return
	}
	n.dirtyEv = n.eng.Schedule(0, n.flushFn)
}

// flushWork is the coalesced per-instant flush: split components that lost
// flows, re-solve every dirty component (incremental mode; reference mode
// solved eagerly at each change), commit the accounting against the
// instant's final rates, then reschedule the completion event.
func (n *Net) flushWork() {
	n.dirtyEv = nil
	n.flushRebuilds()
	if n.reference {
		for _, c := range n.work {
			c.queued = false
			c.dirty = false
		}
		n.work = n.work[:0]
		n.commitReference()
		n.scheduleNext()
		return
	}
	n.stats.Solves++
	solved := n.solvedScratch[:0]
	for i := 0; i < len(n.work); i++ {
		c := n.work[i]
		c.queued = false
		if c.dead || !c.dirty {
			continue
		}
		c.dirty = false
		solved = append(solved, c)
	}
	n.work = n.work[:0]
	n.solveAndCommit(solved)
	n.scheduleNext()
}

// solveAndCommit runs one progressive-filling pass per component, then
// commits every solved flow. The commit runs after every solve, in
// work-queue order: within each component flows commit in admission
// order, so per-link carried accrual, completion re-keys and telemetry sum
// in the same order as the reference pass over the whole population. cs
// is the solved scratch; it is cleared and kept for the next flush.
func (n *Net) solveAndCommit(cs []*component) {
	for _, c := range cs {
		n.solveComponent(c)
	}
	for _, c := range cs {
		for _, f := range c.flows {
			n.commit(f)
		}
	}
	clear(cs)
	n.solvedScratch = cs[:0]
}

// commitReference is the reference solver's per-instant accounting pass:
// every active flow whose allocation ended the instant at a new rate is
// settled and re-keyed. O(active flows) by design — the naive baseline.
func (n *Net) commitReference() {
	for _, f := range n.activeFlows {
		if !f.finished {
			n.commit(f)
		}
	}
}

// commit finalises one flow's instant: if the rate the solver assigned
// differs from the rate that was in force, the flow settles (charging the
// elapsed interval at the old rate), adopts the new rate for the time
// ahead, and recomputes its completion time. Flows whose allocation ended
// an instant where it began — including those a transient mid-instant
// reference solve wobbled — are untouched, anchors and keys intact.
func (n *Net) commit(f *Flow) {
	if f.rate == f.committed || f.finished {
		return
	}
	n.settle(f)
	f.committed = f.rate
	due := math.Inf(1)
	if f.rate > 1e-12 {
		due = n.eng.Now() + f.remaining/f.rate
	}
	if due == f.due {
		return
	}
	if n.reference {
		f.due = due
		return
	}
	n.dueChanged = append(n.dueChanged, dueChange{f, due}) // grows to the peak per-flush churn, then reuses capacity
}

// flushRebuilds recomputes connectivity for every queued component that
// lost a flow, splitting it into its surviving components; children join
// the work queue dirty. Appending while iterating is deliberate — children
// never carry the rebuild flag, so the loop terminates.
func (n *Net) flushRebuilds() {
	for i := 0; i < len(n.work); i++ {
		c := n.work[i]
		if !c.dead && c.rebuild {
			n.rebuildComponent(c)
		}
	}
}

// rebuildComponent splits a component after retirements: a union-find pass
// over the surviving flows' links rediscovers connectivity. The class of
// the first surviving flow keeps the component — its record, and its flow
// and link arrays, compacted in place — and every other class becomes a
// fresh component, so a retirement that leaves the component connected
// allocates nothing. Either way a class lists its flows in admission
// order and its links in first appearance over those flows' paths,
// exactly as a fresh component would. Every class is dirty by
// construction — a retired flow freed capacity on its links, and (by
// connectivity of the original component) every surviving class contains
// at least one such link. The kept component stays where it is on the
// work queue; split-off ones join its tail.
func (n *Net) rebuildComponent(c *component) {
	c.rebuild = false
	n.dsuEpoch++
	epoch := n.dsuEpoch
	for _, f := range c.flows {
		if f.finished {
			continue
		}
		var root *Link
		for _, l := range f.path {
			if l.dsuEpoch != epoch {
				l.dsuEpoch = epoch
				l.dsuParent = l
				l.child = nil
			}
			r := findRoot(l)
			if root == nil {
				root = r
			} else if r != root {
				r.dsuParent = root
			}
		}
	}
	// Every listed link carries a surviving flow (idle ones were
	// detached), so each is re-listed below. The kept class's flows and
	// links are subsets of the old lists, which leaves room to rebuild
	// both in place.
	for _, l := range c.links {
		l.comp = nil
	}
	oldLinks := len(c.links)
	c.links = c.links[:0]
	kept := 0
	for _, f := range c.flows {
		if f.finished {
			continue
		}
		var root *Link
		if len(f.path) > 0 {
			root = findRoot(f.path[0])
		}
		if kept > 0 && (root == nil || root.child != c) {
			n.splitOff(f, root)
			continue
		}
		if root != nil {
			root.child = c
		}
		f.comp = c
		c.flows[kept] = f // kept <= the flow's index: order kept
		kept++
		for _, l := range f.path {
			if l.comp != c {
				l.comp = c
				l.compIdx = len(c.links)
				c.links = c.links[:l.compIdx+1]
				c.links[l.compIdx] = l
			}
		}
	}
	clear(c.flows[kept:])
	clear(c.links[len(c.links):oldLinks])
	c.flows = c.flows[:kept]
	if kept == 0 {
		c.dead = true
		c.dirty = false
		c.flows, c.links, c.capped = nil, nil, nil
		n.deadComps++
		return
	}
	// The kept class's capped flows are the sorted list's members still
	// claiming c: retire cleared a finished flow's component, and splitOff
	// moved every other class's flows to their own, unsorted, components.
	w := 0
	for _, f := range c.capped {
		if f.comp == c {
			c.capped[w] = f
			w++
		}
	}
	clear(c.capped[w:])
	c.capped = c.capped[:w]
	c.dirty = true
}

// splitOff moves f, a surviving flow outside the kept class, to its own
// class's component (the class of root, or f alone when it has no path):
// the class's first flow allocates the component, dirty and pre-queued
// at the work queue's tail, and each flow appends itself and its links
// in rebuild order. It is the only part of a rebuild that allocates: a
// split-off class's component record and lists, which the retirement
// that split it pays for.
func (n *Net) splitOff(f *Flow, root *Link) {
	var child *component
	if root != nil {
		child = root.child
	}
	if child == nil {
		child = &component{dirty: true, queued: true}
		n.addComp(child)
		n.work = append(n.work, child)
		if root != nil {
			root.child = child
		}
	}
	f.comp = child
	child.flows = append(child.flows, f) // rebuild visits flows in admission order
	for _, l := range f.path {
		if l.comp != child {
			l.comp = child
			l.compIdx = len(child.links)
			child.links = append(child.links, l)
		}
	}
}

// findRoot is union-find lookup with path halving.
func findRoot(l *Link) *Link {
	for l.dsuParent != l {
		l.dsuParent = l.dsuParent.dsuParent
		l = l.dsuParent
	}
	return l
}

// settle advances one flow's accrual anchor to the current instant,
// charging its volume at the committed rate in force since the last settle
// and accruing its links' carried telemetry. Settle points are committed
// rate changes, completions and telemetry reads — all independent of the
// solver mode, so the chunking of the floating-point accrual arithmetic
// (and therefore remaining, carried and every derived completion time) is
// bit-identical across modes.
func (n *Net) settle(f *Flow) {
	now := n.eng.Now()
	if now == f.settledAt {
		return
	}
	n.stats.FlowsSettled++
	moved := f.committed * (now - f.settledAt)
	f.settledAt = now
	if moved <= 0 {
		return
	}
	if moved > f.remaining {
		moved = f.remaining
	}
	f.remaining -= moved
	for _, l := range f.path {
		l.carried += moved
	}
}

// settleLink settles every in-flight flow crossing the link, bringing its
// carried telemetry up to the current instant.
func (n *Net) settleLink(link *Link) {
	c := link.comp
	if c == nil {
		return
	}
	for _, f := range c.flows {
		if f.finished {
			continue
		}
		for _, l := range f.path {
			if l == link {
				n.settle(f)
				break
			}
		}
	}
}

// Recompute forces a full settle at the current instant: pending component
// rebuilds are applied, every live component is re-solved (the whole
// network, in reference mode), the accounting commits against the fresh
// rates, and the next completion event is rescheduled, absorbing any
// pending coalesced flush. Flow arrival, completion and capacity changes
// recompute automatically; Recompute remains for callers that mutate
// capacity-model state in place (e.g. OST health) or need fresh rates
// mid-instant.
func (n *Net) Recompute() {
	if n.dirtyEv != nil {
		n.eng.Cancel(n.dirtyEv)
		n.dirtyEv = nil
	}
	n.flushRebuilds()
	for _, c := range n.work {
		c.queued = false
		c.dirty = false
	}
	n.work = n.work[:0]
	if n.reference {
		n.assignRatesReference()
		n.commitReference()
	} else {
		n.stats.Solves++
		live := n.solvedScratch[:0]
		for _, c := range n.comps {
			if c.dead {
				continue
			}
			c.dirty = false
			live = append(live, c)
		}
		n.solveAndCommit(live)
	}
	n.scheduleNext()
}

// solveComponent performs progressive filling over one component:
//  1. every carrying link's residual capacity is its model capacity for the
//     current stream count;
//  2. repeatedly find the tightest constraint — either a link's fair share
//     (residual / unfixed flows) or a flow's own rate cap — and fix the
//     affected flows at that rate;
//  3. continue until every flow's rate is fixed.
//
// Only the component's links and flows are touched: flows elsewhere keep
// the rates (and completion keys) of their last solve, which is exact
// because disjoint components cannot constrain each other.
//
// A round costs the still-live links plus the flows it fixes. The
// initialisation pass builds a per-link flow index (solveCtx.idx) and a
// live-link list; each round makes one pass over the live links,
// compacting out those with no unfixed flow, that finds both the minimum
// share and the saturation candidates — links within the saturation
// tolerance of the running minimum, re-checked against the final one. The
// saturated links' flows are then fixed through the index. A solve that
// outlasts the switch rule (Net.heapRounds, Net.heapLinks) builds a
// link-share heap from the live list instead and finishes from it: each
// heap round re-keys the links the previous round's fixes touched, takes
// the minimum share from the root and collects the saturated set with a
// walk pruned at the tolerance — the same minimum bits and the same set
// the scan finds. Every flow a bottleneck round fixes gets the same rate,
// so each link's residual receives the same sequence of subtractions in
// any fix order. Rate-capped flows are fixed from a cursor over the
// component's kept (cap, admission) order (see component), sorted afresh
// only after capped flows joined it out of order, in exactly the batches
// and order the reference solver fixes them in (see sortCapped), so the residual
// arithmetic is bit-identical to the reference solver's monolithic pass
// restricted to this component.
// Reference mode shares none of this machinery (assignRatesReference): it
// is the oracle, so a defect in the component, live-list or index
// bookkeeping cannot cancel out of the inc-vs-ref property tests.
func (n *Net) solveComponent(c *component) {
	ctx := &n.ctx
	n.solveEpoch++
	epoch := n.solveEpoch
	links := c.links
	n.stats.ComponentsSolved++
	n.stats.LinkVisits += int64(len(links))
	// The flow index: count each link's unfinished flows into off by
	// compIdx, turn the counts into bucket ends, then fill in reverse, which
	// leaves off[i] at bucket i's start and every bucket in admission order.
	nl := len(links) + 1
	off := slices.Grow(ctx.idx[:0], nl)[:nl] // grows to the peak component size, then reuses capacity
	clear(off)
	resort := !c.sorted
	if resort {
		c.capped = c.capped[:0]
	}
	left := 0
	for _, f := range c.flows {
		if f.finished {
			continue
		}
		left++
		if resort && f.maxRate > 0 {
			c.capped = append(c.capped, f) // grows to the component's peak capped population, then reuses capacity
		}
		for _, l := range f.path {
			off[l.compIdx]++
		}
	}
	if resort {
		slices.SortFunc(c.capped, cmpCapped)
		c.sorted = true
		n.stats.CappedSorted += int64(len(c.capped))
	}
	capped := c.capped
	n.stats.ComponentFlowsScanned += int64(left)
	live := ctx.live[:0]
	end := int32(0)
	for i, l := range links {
		k := off[i]
		l.residual = l.model.Capacity(l.active)
		l.unfixed = int(k)
		end += k
		off[i] = end
		if k > 0 {
			live = append(live, l)
		}
	}
	off[len(links)] = end
	idx := slices.Grow(off, int(end))[:nl+int(end)]
	off, at := idx[:nl], idx[nl:]
	for p := len(c.flows) - 1; p >= 0; p-- {
		f := c.flows[p]
		if f.finished {
			continue
		}
		for _, l := range f.path {
			off[l.compIdx]--
			at[off[l.compIdx]] = int32(p)
		}
	}
	next := 0 // every capped flow before next is fixed

	cand := ctx.cand[:0]
	heaped := false
	for round := 0; left > 0; round++ {
		n.stats.Rounds++
		minShare, limit := math.Inf(1), math.Inf(1)
		cand = cand[:0]
		if !heaped && round >= n.heapRounds && len(live) >= n.heapLinks {
			n.stats.ShareHeapOps += ctx.buildShares(live, len(links))
			heaped = true
		}
		if heaped {
			// The heap holds every link with an unfixed flow, keyed by its
			// share as of the last round's fixes, so the root is the
			// minimum the scan would find, and a walk that stops below
			// entries above the limit collects exactly its saturated set.
			n.stats.ShareHeapOps += ctx.rekeyShares()
			if h := ctx.shares.at; len(h) > 0 {
				minShare = h[0].share
				limit = float64(minShare*(1+1e-12)) + 1e-15
				cand = append(cand, candidate{links[h[0].link], minShare})
				visits := 1
				for i := 0; i < len(cand); i++ {
					first := 2*int(ctx.shares.pos[cand[i].l.compIdx]) + 1
					for c := first; c < first+2 && c < len(h); c++ {
						visits++
						if e := h[c]; e.share <= limit {
							cand = append(cand, candidate{links[e.link], e.share})
						}
					}
				}
				n.stats.LinkVisits += int64(visits)
			}
		} else {
			n.stats.LinkVisits += int64(len(live))
			w := 0
			for _, l := range live {
				if l.unfixed == 0 {
					continue
				}
				live[w] = l
				w++
				share := l.share()
				if share < minShare {
					minShare = share
					limit = float64(minShare*(1+1e-12)) + 1e-15
				}
				// The limit only falls as the scan goes on, so a link rejected
				// here is never saturated; candidates are re-checked below.
				if share <= limit {
					cand = append(cand, candidate{l, share})
				}
			}
			live = live[:w]
		}
		// Fix rate-capped flows whose cap is at or below the share. Every
		// capped flow the cursor has passed is fixed, so the batch is
		// exactly the unfixed capped flows with maxRate <= minShare.
		before := left
		for next < len(capped) && capped[next].maxRate <= minShare {
			f := capped[next]
			next++
			n.stats.FlowsScanned++
			if f.fixedEpoch != epoch {
				fixFlow(f, f.maxRate, epoch)
				left--
				if heaped {
					ctx.touch(f)
				}
			}
		}
		if left < before {
			continue
		}
		if math.IsInf(minShare, 1) {
			// No link constrains the remaining flows, and the cursor has
			// fixed every capped flow: only uncapped flows on links of
			// infinite capacity are left.
			panic("flow: unconstrained flow in rate assignment")
		}
		// Saturate bottleneck links and fix their flows at the fair share.
		for _, s := range cand {
			if s.share > limit {
				continue
			}
			ps := at[off[s.l.compIdx]:off[s.l.compIdx+1]]
			n.stats.FlowsScanned += int64(len(ps))
			for _, p := range ps {
				if f := c.flows[p]; f.fixedEpoch != epoch {
					fixFlow(f, minShare, epoch)
					left--
					if heaped {
						ctx.touch(f)
					}
				}
			}
		}
		if left == before {
			panic("flow: progressive filling made no progress")
		}
	}
	for _, l := range ctx.touched {
		l.touched = false
	}
	ctx.touched = ctx.touched[:0]
	ctx.shares.at = ctx.shares.at[:0]
	ctx.cand = cand[:0]
	ctx.live = live[:0]
	ctx.idx = idx[:0]
}

// share is the link's fair share of its residual capacity among its
// unfixed flows; a residual that rounding drove below zero counts as zero.
func (l *Link) share() float64 {
	res := l.residual
	if res < 0 {
		res = 0
	}
	return res / float64(l.unfixed)
}

// shareHeap is a min-heap of one component's links keyed by fair share.
// A solve builds it from its live links once scanning has run long enough
// (Net.heapRounds, Net.heapLinks), then keeps it current by re-keying
// only the links whose residual or unfixed count the last round's fixes
// moved. Keys are recomputed from the link exactly as the scan computes
// them, so the root holds the scan's minimum bits. Entries name links by
// compIdx and pos maps a compIdx back to its entry, so the heap holds no
// pointers for sifts to write through.
type shareHeap struct {
	at  []shareEntry
	pos []int32 // by compIdx: the link's position in at
}

type shareEntry struct {
	share float64
	link  int32 // compIdx
}

// up and down restore the heap order from position i, moving each
// displaced entry's position with it.
func (h *shareHeap) up(i int) {
	at, pos := h.at, h.pos
	e := at[i]
	for i > 0 {
		p := (i - 1) / 2
		if at[p].share <= e.share {
			break
		}
		at[i] = at[p]
		pos[at[i].link] = int32(i)
		i = p
	}
	at[i] = e
	pos[e.link] = int32(i)
}

func (h *shareHeap) down(i int) {
	at, pos := h.at, h.pos
	e := at[i]
	for {
		c := 2*i + 1
		if c >= len(at) {
			break
		}
		if r := c + 1; r < len(at) && at[r].share < at[c].share {
			c = r
		}
		if e.share <= at[c].share {
			break
		}
		at[i] = at[c]
		pos[at[i].link] = int32(i)
		i = c
	}
	at[i] = e
	pos[e.link] = int32(i)
}

// buildShares heapifies the live links that still carry an unfixed flow;
// nLinks is the component's link count. It returns the heap operations
// it made, one per entry.
func (ctx *solveCtx) buildShares(live []*Link, nLinks int) int64 {
	h := &ctx.shares
	h.pos = slices.Grow(h.pos[:0], nLinks)[:nLinks]
	at := h.at[:0]
	for _, l := range live {
		if l.unfixed > 0 {
			at = append(at, shareEntry{l.share(), int32(l.compIdx)})
		}
	}
	h.at = at
	for i, e := range at {
		h.pos[e.link] = int32(i)
	}
	for i := len(at)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return int64(len(at))
}

// touch queues a just-fixed flow's links for a share re-key.
func (ctx *solveCtx) touch(f *Flow) {
	for _, l := range f.path {
		if !l.touched {
			l.touched = true
			ctx.touched = append(ctx.touched, l)
		}
	}
}

// rekeyShares brings the touched links' heap keys up to date: a link left
// with no unfixed flow leaves the heap, any other sifts to its new share.
// The sift goes either way: fixing a flow at or below a link's share never
// lowers the link's exact share, but (r-m)/(u-1) can round an ulp below r/u.
// It returns the heap operations it made, one per touched link.
func (ctx *solveCtx) rekeyShares() int64 {
	h := &ctx.shares
	for _, l := range ctx.touched {
		l.touched = false
		i := int(h.pos[l.compIdx])
		if l.unfixed == 0 {
			last := len(h.at) - 1
			h.at[i] = h.at[last]
			h.at = h.at[:last]
			if i == last {
				continue
			}
			h.pos[h.at[i].link] = int32(i)
		} else {
			h.at[i].share = l.share()
		}
		if i > 0 && h.at[i].share < h.at[(i-1)/2].share {
			h.up(i)
		} else {
			h.down(i)
		}
	}
	ops := int64(len(ctx.touched))
	ctx.touched = ctx.touched[:0]
	return ops
}

// candidate is a link whose fair share was within the saturation
// tolerance of the running minimum when the round's scan reached it.
type candidate struct {
	l     *Link
	share float64
}

// cmpCapped orders capped flows by ascending (maxRate, seq), the order
// sortCapped documents. It is a package-level function so that
// slices.SortFunc allocates nothing.
func cmpCapped(a, b *Flow) int {
	if a.maxRate != b.maxRate {
		if a.maxRate < b.maxRate {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.seq, b.seq)
}

// sortCapped orders the reference solver's per-round capped batch by
// ascending (maxRate, seq) — a strict total order (seq is unique), so the
// result is identical to any other correct sort of the same keys; the
// incremental solver keeps each component's capped flows in the same
// order (cmpCapped, see component). The ordering matters for bit-exactness:
// fair shares are non-decreasing across rounds, so fixing each round's
// capped batch in cap order makes the overall capped sequence globally
// cap-sorted — invariant under how rounds partition it, and therefore
// identical between a component-local solve and the reference solver's
// monolithic rounds (whose share milestones interleave other
// components'). Fixing in raw admission order would make the residual
// subtraction order — and with it the last ulps of later shares — depend
// on the round structure. An in-place insertion sort avoids sort.Slice's
// per-call closure allocation; batches are small (often 0–2 flows).
func sortCapped(fs []*Flow) {
	for i := 1; i < len(fs); i++ {
		f := fs[i]
		j := i - 1
		for j >= 0 && (fs[j].maxRate > f.maxRate || (fs[j].maxRate == f.maxRate && fs[j].seq > f.seq)) {
			fs[j+1] = fs[j]
			j--
		}
		fs[j+1] = f
	}
}

// assignRatesReference is the naive progressive-filling pass, preserved as
// the correctness oracle and cost baseline: every link in the network is
// scanned (idle ones and other components' included) and every round
// rescans the whole active population instead of a flow index. The
// rate-fixing order matches the partitioned path — capped flows in
// (cap, admission) order, bottleneck flows in admission order — so results
// are bit-identical while the implementations stay independent.
func (n *Net) assignRatesReference() {
	links := n.links
	ctx := &n.ctx
	n.solveEpoch++
	epoch := n.solveEpoch
	n.stats.Solves++
	n.stats.ComponentsSolved++
	n.stats.ComponentFlowsScanned += int64(n.activeCount)
	n.stats.LinkVisits += int64(len(links))
	for _, l := range links {
		l.residual = l.model.Capacity(l.active)
		l.unfixed = 0
		l.saturated = false
	}
	unfixedCount := 0
	for _, f := range n.activeFlows {
		if f.finished {
			continue
		}
		unfixedCount++
		for _, l := range f.path {
			l.unfixed++
		}
	}
	sat := ctx.sat[:0]
	for unfixedCount > 0 {
		n.stats.Rounds++
		n.stats.FlowsScanned += int64(n.activeCount)
		minShare := math.Inf(1)
		n.stats.LinkVisits += int64(len(links))
		for _, l := range links {
			if l.unfixed == 0 {
				continue
			}
			res := l.residual
			if res < 0 {
				res = 0
			}
			if share := res / float64(l.unfixed); share < minShare {
				minShare = share
			}
		}
		// Fix rate-capped flows whose cap is at or below the share, in
		// (cap, admission) order — see sortCapped for why the order matters.
		capped := ctx.capped[:0]
		for _, f := range n.activeFlows {
			if f.finished || f.fixedEpoch == epoch || f.maxRate <= 0 || f.maxRate > minShare {
				continue
			}
			capped = append(capped, f)
		}
		if len(capped) > 0 {
			sortCapped(capped)
			for _, f := range capped {
				fixFlow(f, f.maxRate, epoch)
				unfixedCount--
			}
			for i := range capped {
				capped[i] = nil
			}
			ctx.capped = capped[:0]
			continue
		}
		ctx.capped = capped[:0]
		if math.IsInf(minShare, 1) {
			// Only path-less capped flows remain; their caps exceeded every
			// share constraint — fix them at their cap.
			for _, f := range n.activeFlows {
				if f.finished || f.fixedEpoch == epoch {
					continue
				}
				r := f.maxRate
				if r <= 0 {
					panic("flow: unconstrained flow in rate assignment")
				}
				fixFlow(f, r, epoch)
				unfixedCount--
			}
			ctx.sat = sat[:0]
			return
		}
		// Saturate bottleneck links and fix their flows at the fair share.
		n.stats.LinkVisits += int64(len(links))
		for _, l := range links {
			if l.unfixed == 0 {
				continue
			}
			res := l.residual
			if res < 0 {
				res = 0
			}
			if res/float64(l.unfixed) <= float64(minShare*(1+1e-12))+1e-15 {
				l.saturated = true
				sat = append(sat, l)
			}
		}
		progressed := false
		for _, f := range n.activeFlows {
			if f.finished || f.fixedEpoch == epoch {
				continue
			}
			onBottleneck := false
			for _, l := range f.path {
				if l.saturated {
					onBottleneck = true
					break
				}
			}
			if onBottleneck {
				fixFlow(f, minShare, epoch)
				unfixedCount--
				progressed = true
			}
		}
		for _, l := range sat {
			l.saturated = false
		}
		sat = sat[:0]
		if !progressed {
			panic("flow: progressive filling made no progress")
		}
	}
	ctx.sat = sat[:0]
}

// fixFlow pins a flow's rate for the solve identified by epoch and
// charges it against its path's residuals. Accounting is untouched here:
// the per-instant commit settles the flow and re-keys its completion only
// if the rate it ends the instant with differs from the one in force, so
// flows whose allocation is unmoved — untouched components, or transient
// mid-instant wobbles — keep their anchors and heap keys bit-for-bit.
// Epochs come from one counter and are never reused, so a stamp left by
// an earlier solve can never masquerade as this one's.
func fixFlow(f *Flow, rate float64, epoch int64) {
	f.fixedEpoch = epoch
	for _, l := range f.path {
		l.residual -= rate
		l.unfixed--
	}
	f.rate = rate
}

// scheduleNext arranges the next completion event at the earliest time any
// active flow drains. Stalled flows (rate ~ 0) never complete on their own;
// if every flow stalls the engine's deadlock detector reports the hang.
//
// Incremental mode applies the flush's staged re-keys to the completion
// heap (one heap.Fix per moved flow, or a single rebuild when at least
// half the keys moved) and peeks the root; the engine event is moved in
// place via Reschedule. Completion times are absolute anchors
// (settle time + remaining/rate), identical in both modes, so the event
// time is bit-identical to the reference scan. Reference mode keeps the
// naive linear scan with cancel-and-repost.
func (n *Net) scheduleNext() {
	if n.reference {
		if n.nextEv != nil {
			n.eng.Cancel(n.nextEv)
			n.nextEv = nil
		}
		at := math.Inf(1)
		for _, f := range n.activeFlows {
			if f.finished {
				continue
			}
			if f.due < at {
				at = f.due
			}
		}
		if math.IsInf(at, 1) {
			return
		}
		n.nextEv = n.eng.ScheduleAt(at, n.completionFn)
		return
	}
	if k := len(n.dueChanged); k > 0 {
		if k*2 >= len(n.completions) {
			for _, dc := range n.dueChanged {
				dc.f.due = dc.due
			}
			heap.Init(&n.completions)
			n.stats.HeapOps += int64(len(n.completions))
		} else {
			for _, dc := range n.dueChanged {
				dc.f.due = dc.due
				heap.Fix(&n.completions, dc.f.heapIdx)
				n.stats.HeapOps++
			}
		}
		for i := range n.dueChanged {
			n.dueChanged[i] = dueChange{}
		}
		n.dueChanged = n.dueChanged[:0]
	}
	if len(n.completions) == 0 || math.IsInf(n.completions[0].due, 1) {
		if n.nextEv != nil {
			n.eng.Cancel(n.nextEv)
			n.nextEv = nil
		}
		return
	}
	// Re-sequence every flush, exactly as cancel-and-repost would: the
	// completion event's order among same-instant events must not depend
	// on the solver mode, or downstream admission order — and with it the
	// residual arithmetic — could diverge.
	at := n.completions[0].due
	if !n.eng.Reschedule(n.nextEv, at) {
		n.nextEv = n.eng.ScheduleAt(at, n.completionFn)
	}
}

// onCompletion retires every flow whose completion time has arrived
// (batching simultaneous completions, in admission order), counts each
// off its batch, ending the wait of a batch whose last flow it is, and
// requests a recompute for the touched components — coalesced with any
// same-instant arrivals the completions trigger.
func (n *Net) onCompletion() {
	n.nextEv = nil
	now := n.eng.Now()
	done := n.doneScratch[:0]
	if n.reference {
		for _, f := range n.activeFlows {
			if !f.finished && f.due <= now {
				done = append(done, f)
			}
		}
	} else {
		// Equal dues pop in admission (seq) order — the same order the
		// reference scan collects them in.
		for len(n.completions) > 0 && n.completions[0].due <= now {
			f := heap.Pop(&n.completions).(*Flow)
			n.stats.HeapOps++
			done = append(done, f)
		}
	}
	if len(done) == 0 {
		n.scheduleNext()
		return
	}
	for _, f := range done {
		// Final settle: the flow carries exactly its residual volume, so
		// cumulative link telemetry sums to the exact flow sizes.
		n.stats.FlowsSettled++
		if f.remaining > 0 {
			for _, l := range f.path {
				l.carried += f.remaining
			}
			f.remaining = 0
		}
		f.settledAt = now
		f.finished = true
		f.finishAt = now
		n.retire(f)
	}
	n.compactActive()
	for _, f := range done {
		if f.onDone != nil {
			f.onDone()
		}
	}
	if n.observer != nil {
		for _, f := range done {
			n.observer.FlowFinished(f)
		}
	}
	for _, f := range done {
		f.batch.finish()
	}
	// retire queued each touched component for rebuild, which armed the
	// coalesced flush event; reference mode additionally re-solves the
	// survivors' rates eagerly, as it does for every change.
	if n.reference {
		n.assignRatesReference()
	}
	for i := range done {
		done[i] = nil
	}
	n.doneScratch = done[:0]
}

// retire removes a drained flow from its links and the active set, and
// marks its component for a lazy connectivity rebuild. The flow has left
// the completion heap already: onCompletion popped it, or, in reference
// mode, it was never in it.
func (n *Net) retire(f *Flow) {
	for _, l := range f.path {
		l.active--
		if l.active == 0 {
			n.activeLinkCount--
			n.detachLink(l)
		}
	}
	if c := f.comp; c != nil {
		f.comp = nil
		c.rebuild = true
		n.queueWork(c)
	}
	n.activeCount--
	n.finishedInActive++
}

// detachLink removes an idle link from its component (order-insensitive
// swap remove; link order never affects the solve numerically).
func (n *Net) detachLink(l *Link) {
	c := l.comp
	if c == nil {
		return
	}
	last := len(c.links) - 1
	moved := c.links[last]
	c.links[l.compIdx] = moved
	moved.compIdx = l.compIdx
	c.links[last] = nil
	c.links = c.links[:last]
	l.comp = nil
	l.compIdx = -1
}

// compactActive drops completed-flow tombstones from the admission-ordered
// active list once they are half of it, keeping retirement amortised O(1).
func (n *Net) compactActive() {
	if n.finishedInActive < 16 || n.finishedInActive*2 < len(n.activeFlows) {
		return
	}
	w := 0
	for _, f := range n.activeFlows {
		if !f.finished {
			n.activeFlows[w] = f
			w++
		}
	}
	for i := w; i < len(n.activeFlows); i++ {
		n.activeFlows[i] = nil
	}
	n.activeFlows = n.activeFlows[:w]
	n.finishedInActive = 0
}

// CheckInvariants verifies the current rate allocation and solver state:
// every active flow has a non-negative fixed rate no greater than its cap,
// no link carries more than its capacity (within tolerance), the component
// partition matches the links the active flows actually cross, accrual
// anchors are consistent, and (in incremental mode) the completion heap is
// coherent. Any pending coalesced work is flushed first so the settled
// allocation is checked. It returns nil when consistent; tests call it
// after topology changes.
func (n *Net) CheckInvariants() error {
	if n.dirtyEv != nil || len(n.work) > 0 {
		n.Recompute()
	}
	now := n.eng.Now()
	// loads is order-safe as long as it is never ranged: it is filled in
	// admission order and read only by direct indexing from the n.links
	// slice loop below (maporder would flag any future range over it).
	loads := make(map[*Link]float64)
	live := 0
	for _, f := range n.activeFlows {
		if f.finished {
			continue
		}
		live++
		if f.fixedEpoch == 0 {
			// fix stamps the solve epoch (always >= 1) on every flow it
			// pins; an unstamped active flow means a dirty-flag bug skipped
			// its component's solve entirely.
			return fmt.Errorf("flow: %q was never solved", f.name)
		}
		if f.rate != f.committed {
			return fmt.Errorf("flow: %q rate %v not committed (accrual rate %v) after flush",
				f.name, f.rate, f.committed)
		}
		if f.maxRate > 0 && f.rate > f.maxRate*(1+1e-9) {
			return fmt.Errorf("flow: %q rate %v exceeds cap %v", f.name, f.rate, f.maxRate)
		}
		if f.settledAt > now || f.remaining < 0 {
			return fmt.Errorf("flow: %q accrual anchor inconsistent (settledAt %v, now %v, remaining %v)",
				f.name, f.settledAt, now, f.remaining)
		}
		if c := f.comp; c == nil || c.dead {
			return fmt.Errorf("flow: %q has no live component", f.name)
		}
		for _, l := range f.path {
			loads[l] += f.rate
			if l.comp != f.comp {
				return fmt.Errorf("flow: %q crosses link %q outside its component", f.name, l.Name())
			}
		}
	}
	if live != n.activeCount {
		return fmt.Errorf("flow: active count %d but %d live flows listed", n.activeCount, live)
	}
	activeLinks := 0
	for _, l := range n.links {
		cap := l.model.Capacity(l.active)
		if load := loads[l]; load > float64(cap*(1+1e-6))+1e-9 {
			return fmt.Errorf("flow: link %q oversubscribed: %v > %v", l.Name(), load, cap)
		}
		inComp := l.comp != nil && !l.comp.dead &&
			l.compIdx >= 0 && l.compIdx < len(l.comp.links) && l.comp.links[l.compIdx] == l
		if (l.active > 0) != inComp {
			return fmt.Errorf("flow: link %q active=%d but component membership %v", l.Name(), l.active, inComp)
		}
		if l.active > 0 {
			activeLinks++
		}
	}
	if activeLinks != n.activeLinkCount {
		return fmt.Errorf("flow: active-link count %d, counted %d", n.activeLinkCount, activeLinks)
	}
	if err := n.checkComponents(); err != nil {
		return err
	}
	return n.checkHeap()
}

// maxMinTol is CheckMaxMin's tolerance, relative to the compared rate or
// capacity and also applied in absolute MB/s: progressive filling
// accumulates rounding in link residuals, and its saturation test admits
// shares within 1e-12 of the round's minimum.
const maxMinTol = 1e-9

// CheckMaxMin verifies that the current allocation is max-min fair by the
// bottleneck characterisation (Bertsekas & Gallager, Data Networks): every
// active flow either runs at its own cap or crosses a bottleneck link — one
// whose flows' rates sum to its capacity for the current stream count, and
// on which no flow's rate exceeds its own. The check does not depend on
// which solver assigned the rates, so unlike CheckInvariants it rejects a
// feasible but unfair allocation such as all zeros. One pass computes
// every link's load and largest rate, so it costs O(Σ path). Any pending
// coalesced work is flushed first.
func (n *Net) CheckMaxMin() error {
	if n.dirtyEv != nil || len(n.work) > 0 {
		n.Recompute()
	}
	type linkLoad struct{ sum, max float64 }
	// loads is filled and read by direct indexing only, never ranged.
	loads := make(map[*Link]linkLoad)
	for _, f := range n.activeFlows {
		if f.finished {
			continue
		}
		for _, l := range f.path {
			ll := loads[l]
			ll.sum += f.rate
			ll.max = math.Max(ll.max, f.rate)
			loads[l] = ll
		}
	}
	for _, f := range n.activeFlows {
		if f.finished || (f.maxRate > 0 && f.rate >= float64(f.maxRate*(1-maxMinTol))-maxMinTol) {
			continue
		}
		bottleneck := false
		for _, l := range f.path {
			ll := loads[l]
			capacity := l.model.Capacity(l.active)
			if ll.sum >= float64(capacity*(1-maxMinTol))-maxMinTol && ll.max <= float64(f.rate*(1+maxMinTol))+maxMinTol {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return fmt.Errorf("flow: %q at rate %v is below its cap %v and crosses no bottleneck link",
				f.name, f.rate, f.maxRate)
		}
	}
	return nil
}

// checkComponents verifies the component partition: live components hold
// exactly the live flows (each once, in admission order), their links
// point back at them, a kept capped-flow order is what a fresh sort of
// the component's capped flows gives, and no settled component is left
// dirty or pending rebuild.
func (n *Net) checkComponents() error {
	seen := 0
	dead := 0
	for _, c := range n.comps {
		if c.dead {
			dead++
			continue
		}
		if c.dirty || c.rebuild || c.queued {
			return fmt.Errorf("flow: component with %d flows still dirty/rebuild/queued after flush", len(c.flows))
		}
		if len(c.flows) == 0 {
			return fmt.Errorf("flow: empty live component")
		}
		var prev int64 = -1
		for _, f := range c.flows {
			if f.finished {
				return fmt.Errorf("flow: finished flow %q lingers in a settled component", f.name)
			}
			if f.comp != c {
				return fmt.Errorf("flow: %q listed in a component it does not claim", f.name)
			}
			if f.seq <= prev {
				return fmt.Errorf("flow: component flows out of admission order at %q", f.name)
			}
			prev = f.seq
			seen++
		}
		if c.sorted {
			var fresh []*Flow
			for _, f := range c.flows {
				if f.maxRate > 0 {
					fresh = append(fresh, f)
				}
			}
			slices.SortFunc(fresh, cmpCapped)
			if !slices.Equal(fresh, c.capped) {
				return fmt.Errorf("flow: component with %d flows keeps %d capped flows out of (cap, admission) order or membership; a fresh sort gives %d",
					len(c.flows), len(c.capped), len(fresh))
			}
		}
		for _, l := range c.links {
			if l.comp != c {
				return fmt.Errorf("flow: link %q listed in a component it does not claim", l.Name())
			}
			if l.active == 0 {
				return fmt.Errorf("flow: idle link %q lingers in a component", l.Name())
			}
		}
	}
	if dead != n.deadComps {
		return fmt.Errorf("flow: dead-component count %d, counted %d", n.deadComps, dead)
	}
	if seen != n.activeCount {
		return fmt.Errorf("flow: components hold %d flows for %d active", seen, n.activeCount)
	}
	return nil
}

// checkHeap verifies the completion heap in incremental mode: it holds
// exactly the active flows, every entry knows its own index, the heap
// property holds under (due, seq), and each key is consistent with the
// flow's accrual anchor — settledAt + remaining/rate within floating-point
// tolerance (telemetry settles may re-anchor a flow without re-keying it,
// shifting the reconstruction by ulps), or +Inf when stalled.
func (n *Net) checkHeap() error {
	if n.reference {
		if len(n.completions) != 0 {
			return fmt.Errorf("flow: reference solver holds %d completion-heap entries", len(n.completions))
		}
		return nil
	}
	if len(n.completions) != n.activeCount {
		return fmt.Errorf("flow: completion heap has %d entries for %d active flows",
			len(n.completions), n.activeCount)
	}
	for i, f := range n.completions {
		if f.heapIdx != i {
			return fmt.Errorf("flow: %q at heap position %d claims heapIdx %d", f.name, i, f.heapIdx)
		}
		if i > 0 {
			p := n.completions[(i-1)/2]
			if f.due < p.due || (f.due == p.due && f.seq < p.seq) {
				return fmt.Errorf("flow: heap order violated at position %d (%q due %v under %q due %v)",
					i, f.name, f.due, p.name, p.due)
			}
		}
		want := math.Inf(1)
		if f.committed > 1e-12 {
			want = f.settledAt + f.remaining/f.committed
		}
		if math.IsInf(want, 1) != math.IsInf(f.due, 1) ||
			(!math.IsInf(want, 1) && math.Abs(f.due-want) > 1e-6*(1+math.Abs(want))) {
			return fmt.Errorf("flow: %q completion key %v, want ~%v (rate %v, remaining %v, settledAt %v)",
				f.name, f.due, want, f.committed, f.remaining, f.settledAt)
		}
	}
	return nil
}

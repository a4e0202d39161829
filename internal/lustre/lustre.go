// Package lustre simulates a Lustre parallel file system: a metadata
// server that assigns object storage targets (OSTs) to files at creation
// time, striped file layouts, and a fluid-network topology (client NICs →
// backbone → object storage servers → OSTs) whose OST links carry
// class-aware capacity models. It is the substrate on which the paper's
// contention experiments run.
package lustre

import (
	"fmt"

	"pfsim/internal/cluster"
	"pfsim/internal/flow"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

// System is one simulated Lustre installation bound to an engine and a
// fluid network of its own. Build a fresh System per experiment
// repetition: per-OST jitter is drawn at build time, which gives
// realistic run-to-run variance.
type System struct {
	plat *cluster.Platform
	eng  *sim.Engine
	net  *flow.Net

	backbone *flow.Link
	nics     []*flow.Link
	osss     []*flow.Link
	osts     []OST
	thrash   thrashTable

	mds     *MDS
	rng     *stats.RNG
	fileSeq int
	// rebuildSeq hands out negative synthetic file IDs for rebuild
	// streams (see StartRebuild); real files get positive IDs.
	rebuildSeq int
}

// NewSystem builds the simulated file system and network topology for plat
// on a private fluid network. The rng drives OST allocation and service
// jitter; fork it per repetition. NICs, OSS links and OSTs are built as
// one slab each, their names formatted only when read, so a build costs a
// few dozen allocations however large the platform.
func NewSystem(eng *sim.Engine, plat *cluster.Platform, rng *stats.RNG) (*System, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	net := flow.NewNet(eng)
	s := &System{
		plat:   plat,
		eng:    eng,
		net:    net,
		rng:    rng,
		thrash: thrashTable{plat: plat},
	}
	s.backbone = net.NewLink("backbone", flow.Const(plat.BackboneMBs))
	s.nics = net.NewLinks("nic", plat.Nodes, flow.Const(plat.NICMBs))
	s.osss = net.NewLinks("oss", plat.OSSs, flow.Const(plat.OSSMBs))
	// Every OST link gets a model of its own, with its own jitter draw.
	links := net.NewLinks("ost", plat.OSTs, nil)
	models := make([]ostModel, plat.OSTs)
	s.osts = make([]OST, plat.OSTs)
	for i := range s.osts {
		m := &models[i]
		*m = ostModel{sys: s, jitter: rng.Jitter(plat.JitterCV), health: 1, stale: true}
		links[i].SetModel(m)
		s.osts[i] = OST{id: i, oss: plat.OSSOf(i), link: links[i], model: m, sys: s}
	}
	s.mds = newMDS(s)
	return s, nil
}

// MustNewSystem is NewSystem, panicking on configuration errors. Intended
// for tests and examples with known-good platforms.
func MustNewSystem(eng *sim.Engine, plat *cluster.Platform, rng *stats.RNG) *System {
	s, err := NewSystem(eng, plat, rng)
	if err != nil {
		panic(err)
	}
	return s
}

// Platform returns the platform description the system was built from.
func (s *System) Platform() *cluster.Platform { return s.plat }

// Engine returns the simulation engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// Net returns the fluid network.
func (s *System) Net() *flow.Net { return s.net }

// MDS returns the metadata server.
func (s *System) MDS() *MDS { return s.mds }

// RNG returns the system's random source.
func (s *System) RNG() *stats.RNG { return s.rng }

// OST returns target i.
func (s *System) OST(i int) *OST { return &s.osts[i] }

// NumOSTs returns the OST population (Dtotal).
func (s *System) NumOSTs() int { return len(s.osts) }

// NIC returns the injection link of a compute node. Out-of-range nodes are
// a caller bug (placement validation happens in ior.Config.Validate); an
// earlier revision silently wrapped them with a modulo, which aliased two
// distinct nodes onto one NIC and hid the error.
func (s *System) NIC(node int) *flow.Link {
	if node < 0 || node >= len(s.nics) {
		panic(fmt.Sprintf("lustre: node %d out of range [0,%d)", node, len(s.nics)))
	}
	return s.nics[node]
}

// Backbone returns the shared I/O network link.
func (s *System) Backbone() *flow.Link { return s.backbone }

// OSSLink returns the link of object storage server i.
func (s *System) OSSLink(i int) *flow.Link { return s.osss[i] }

// OST is one object storage target.
type OST struct {
	id    int
	oss   int
	link  *flow.Link
	model *ostModel
	sys   *System
}

// ID returns the OST index (0..Dtotal-1).
func (o *OST) ID() int { return o.id }

// OSS returns the index of the hosting object storage server.
func (o *OST) OSS() int { return o.oss }

// Link returns the OST's network link.
func (o *OST) Link() *flow.Link { return o.link }

// ActiveJobs returns the number of distinct jobs (files) with streams
// currently open on this OST — the live counterpart of the paper's OST
// load.
func (o *OST) ActiveJobs() int { return len(o.model.jobs) }

// ActiveStreams returns the number of active streams on this OST.
func (o *OST) ActiveStreams() int { return int(o.model.totalStreams) }

// SetHealth scales the OST's service capacity by factor (1 = healthy,
// 0.1 = badly degraded, 0 = failed). Degradation injection models ailing
// storage targets — RAID rebuilds, dying disks — whose effect on striped
// jobs the contention metrics otherwise miss. The change applies to
// in-flight transfers at the current instant: the OST link's solver
// component re-solves once, in the instant's coalesced flush, however many
// OSTs change health in it, and an idle OST costs nothing until a flow
// crosses it.
func (o *OST) SetHealth(factor float64) {
	if factor < 0 {
		factor = 0
	}
	o.model.health = factor
	o.model.stale = true
	o.link.SetModel(o.model)
}

// Health returns the current health factor.
func (o *OST) Health() float64 { return o.model.health }

// ostModel implements flow.CapacityModel with class- and job-aware
// degradation:
//
//	capacity = jitter * meanEffBase / penalty(jobs)
//
// where meanEffBase averages each active stream's class base bandwidth
// scaled by its RPC-size efficiency, jobs counts distinct files with
// active streams (streams of one collective job are coordinated and do
// not self-interfere), and penalty blends each present class's thrash
// curve (see cluster.ClassParams.Penalty, tabulated per system by
// thrashTable) weighted by its job share.
//
// The jobs are a short list, one entry per (class, file) with streams on
// the OST, so counting a stream in or out allocates nothing once the list
// has grown to the OST's peak job count. A solve reads the capacity of
// every OST its component crosses, but the value moves only when a stream
// joins or leaves the OST or its health changes, so the model keeps it
// until JoinStream, LeaveStream or SetHealth marks it stale.
type ostModel struct {
	sys          *System
	jitter       float64
	health       float64 // degradation factor; 1 = healthy
	sumEffBase   float64
	capacity     float64 // Capacity's value while stale is false
	jobs         []ostJob
	classJobs    [3]int32 // jobs by class
	totalStreams int32
	stale        bool
}

// ostJob is one (class, file) pair with streams on an OST.
type ostJob struct {
	fileID  int
	class   int32
	streams int32
}

// Capacity implements flow.CapacityModel. The streams argument (the link's
// raw flow count) is ignored in favour of the registered stream state,
// which carries class and job identity.
func (m *ostModel) Capacity(int) float64 {
	if m.stale {
		m.capacity, m.stale = m.compute(), false
	}
	return m.capacity
}

// compute evaluates the capacity formula from the registered streams.
func (m *ostModel) compute() float64 {
	if m.totalStreams == 0 {
		// Idle link: report the best single-stream service rate; harmless
		// since no flow crosses the link.
		return m.health * m.jitter * m.sys.plat.Class[cluster.ClassSequential].BaseMBs
	}
	meanBase := m.sumEffBase / float64(m.totalStreams)
	jobs := len(m.jobs)
	denom := 0.0
	for c, jc := range m.classJobs {
		if jc == 0 {
			continue
		}
		share := float64(jc) / float64(jobs)
		denom += float64(share * m.sys.thrash.penalty(c, jobs))
	}
	if denom < 1 {
		denom = 1
	}
	return m.health * m.jitter * meanBase / denom
}

// job returns the index of the (class, fileID) entry in m.jobs, or -1.
// A batch adds a job's streams back to back, so the search runs from the
// latest entry.
func (m *ostModel) job(class cluster.StreamClass, fileID int) int {
	for i := len(m.jobs) - 1; i >= 0; i-- {
		if j := &m.jobs[i]; j.fileID == fileID && j.class == int32(class) {
			return i
		}
	}
	return -1
}

// thrashTable tabulates cluster.ClassParams.Penalty by stream class and
// job count for one system: every OST capacity solve reads a penalty, and
// the log-append class's curve is a math.Pow per read. Rows grow to the
// largest job count an OST has seen, each entry computed once by Penalty
// itself, so a read returns Penalty's bits.
type thrashTable struct {
	plat *cluster.Platform
	rows [3][]float64 // rows[class][jobs]
}

// penalty returns plat.Class[class].Penalty(float64(jobs)).
func (t *thrashTable) penalty(class, jobs int) float64 {
	row := t.rows[class]
	if jobs >= len(row) {
		for len(row) <= jobs {
			row = append(row, t.plat.Class[class].Penalty(float64(len(row))))
		}
		t.rows[class] = row
	}
	return row[jobs]
}

// Stream is a registered I/O stream on an OST. Registration makes the
// OST's capacity model aware of the stream's class and owning job before
// its flow starts; Remove must be called when the transfer ends. A
// stream is the flow.DoneHook of its flow in StartWrites, so the flow's
// completion removes it.
type Stream struct {
	ost     *OST
	class   cluster.StreamClass
	fileID  int
	effBase float64
	removed bool
}

// addStream registers st, a record the caller provides, as a stream of
// the given class for file fileID writing RPCs of rpcMB to this OST; a
// batch that opens many streams keeps them in one slab. Callers must
// trigger a network recompute (starting a flow does so automatically).
func (o *OST) addStream(st *Stream, class cluster.StreamClass, fileID int, rpcMB float64) {
	*st = Stream{ost: o, class: class, fileID: fileID, effBase: o.JoinStream(class, fileID, rpcMB)}
}

// JoinStream registers a stream as addStream does, but keeps no record
// of it: it returns the stream's service base, which the caller hands to
// LeaveStream with the stream's class and file when it ends.
func (o *OST) JoinStream(class cluster.StreamClass, fileID int, rpcMB float64) (effBase float64) {
	m := o.model
	if i := m.job(class, fileID); i >= 0 {
		m.jobs[i].streams++
	} else {
		m.jobs = append(m.jobs, ostJob{fileID: fileID, class: int32(class), streams: 1}) // grows to the OST's peak job count
		m.classJobs[class]++
	}
	m.totalStreams++
	cp := &m.sys.plat.Class[class]
	eff := float64(cp.BaseMBs * cp.Efficiency(rpcMB))
	m.sumEffBase += eff
	m.stale = true
	return eff
}

// LeaveStream deregisters a stream JoinStream registered.
func (o *OST) LeaveStream(class cluster.StreamClass, fileID int, effBase float64) {
	m := o.model
	i := m.job(class, fileID)
	if m.jobs[i].streams--; m.jobs[i].streams == 0 {
		last := len(m.jobs) - 1
		m.jobs[i] = m.jobs[last]
		m.jobs = m.jobs[:last]
		m.classJobs[class]--
	}
	m.totalStreams--
	m.sumEffBase -= effBase
	if m.totalStreams == 0 {
		m.sumEffBase = 0 // clear float residue
	}
	m.stale = true
}

// Remove deregisters the stream; removing twice is a no-op.
func (st *Stream) Remove() {
	if st.removed {
		return
	}
	st.removed = true
	st.ost.LeaveStream(st.class, st.fileID, st.effBase)
}

// FlowDone implements flow.DoneHook: the stream's flow has drained.
func (st *Stream) FlowDone() { st.Remove() }

// WriteReq describes one OST-bound transfer stream for StartWrites.
type WriteReq struct {
	// Name labels the flow.
	Name string
	// SizeMB is the transfer volume.
	SizeMB float64
	// OST is the target the stream writes to.
	OST *OST
	// Node is the compute node issuing the transfer.
	Node int
	// Class is the stream class for the OST service model.
	Class cluster.StreamClass
	// FileID identifies the owning file (lock/job domain).
	FileID int
	// RPCMB is the request size seen by the OST.
	RPCMB float64
	// MaxRate optionally caps the stream (MB/s); <= 0 = uncapped.
	MaxRate float64
	// Via optionally prepends a link to the path (e.g. an aggregator's
	// dispatch link); nil for none.
	Via *flow.Link
}

// StartWrites registers a stream on each request's OST, then admits the
// flows as one flow.Net.StartBatch, so an operation that opens its stripe
// streams at once costs one coalesced rate solve and completes once.
// Each stream is its flow's flow.DoneHook, so streams deregister as their
// flows complete. The streams, the flow specs and the paths (each
// request's Via link, then node NIC → backbone → hosting OSS → OST) are
// one slab each per batch, so a stream costs only its flow's record.
func (s *System) StartWrites(reqs []WriteReq) *flow.Batch {
	specs := make([]flow.FlowSpec, len(reqs))
	streams := make([]Stream, len(reqs))
	hops := 4 * len(reqs)
	for i := range reqs {
		if reqs[i].Via != nil {
			hops++
		}
	}
	links := make([]*flow.Link, 0, hops)
	for i := range reqs {
		rq := &reqs[i]
		st := &streams[i]
		rq.OST.addStream(st, rq.Class, rq.FileID, rq.RPCMB)
		from := len(links)
		if rq.Via != nil {
			links = append(links, rq.Via)
		}
		links = append(links, s.NIC(rq.Node), s.backbone, s.osss[rq.OST.oss], rq.OST.link)
		specs[i] = flow.FlowSpec{
			Name:    rq.Name,
			SizeMB:  rq.SizeMB,
			MaxRate: rq.MaxRate,
			OnDone:  st,
			Path:    links[from:len(links):len(links)],
		}
	}
	return s.net.StartBatch(specs)
}

// StreamSnapshot reports, per OST, the number of distinct active jobs —
// used to derive live collision statistics during contended runs.
func (s *System) StreamSnapshot() []int {
	out := make([]int, len(s.osts))
	for i := range s.osts {
		out[i] = s.osts[i].ActiveJobs()
	}
	return out
}

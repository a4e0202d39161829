package lustre

import (
	"fmt"

	"pfsim/internal/sim"
)

// StripeSpec carries the layout parameters a file is created with —
// the knobs the ad_lustre MPI-IO driver exposes as hints.
type StripeSpec struct {
	// Count is the stripe count (striping_factor); 0 selects the system
	// default.
	Count int
	// SizeMB is the stripe size in MB (striping_unit); 0 selects the
	// system default.
	SizeMB float64
	// OffsetOST pins the first stripe to a specific OST (stripe_offset
	// hint); -1 requests random placement. With a pinned offset the
	// remaining stripes follow consecutively, matching Lustre's behaviour.
	OffsetOST int
}

// DefaultSpec returns the spec used when files are created without hints.
func DefaultSpec() StripeSpec { return StripeSpec{OffsetOST: -1} }

// Layout records the OSTs backing a file and its stripe size.
type Layout struct {
	OSTs   []int
	SizeMB float64
}

// StripeCount returns the number of OSTs in the layout.
func (l Layout) StripeCount() int { return len(l.OSTs) }

// OSTForStripe returns the OST holding stripe index i (round-robin).
func (l Layout) OSTForStripe(i int) int { return l.OSTs[i%len(l.OSTs)] }

// BytesPerOST distributes a file of totalMB across the layout in whole
// stripes, round-robin from stripe zero: the first (stripes mod count)
// OSTs carry one extra stripe, the final partial stripe lands after them.
// The returned slice is indexed like l.OSTs and sums to totalMB.
func (l Layout) BytesPerOST(totalMB float64) []float64 {
	out := make([]float64, len(l.OSTs))
	for i := range out {
		out[i] = l.BytesOnOST(i, totalMB)
	}
	return out
}

// BytesOnOST returns BytesPerOST(totalMB)[i] without building the slice.
func (l Layout) BytesOnOST(i int, totalMB float64) float64 {
	if totalMB <= 0 {
		return 0
	}
	n := len(l.OSTs)
	full := int(totalMB / l.SizeMB)
	rem := totalMB - float64(float64(full)*l.SizeMB)
	perOST := full / n
	if i < full%n {
		perOST++
	}
	mb := float64(float64(perOST) * l.SizeMB)
	if rem > 0 && i == full%n {
		mb += rem
	}
	return mb
}

// File is a created file with its layout.
type File struct {
	ID     int
	Layout Layout
}

// MDS is the metadata server: a single-service-point resource that
// allocates OSTs to new files. Allocation is random without replacement
// (lscratchc assigns targets "at random, based on current usage, to
// maintain an approximately even capacity"), or consecutive from a pinned
// offset when the stripe_offset hint is used.
//
// The server is one FIFO slot, so its operations complete in call order.
// CreateK therefore queues each call's spec and continuation in its own
// FIFO, and the one continuation it hands the slot, created, bound once,
// serves the head: a create allocates only its file and its OST list.
type MDS struct {
	sys *System
	res *sim.Resource

	pending   sim.FIFO[mdsCreate] // CreateK calls holding or waiting for the slot, in call order
	createdFn func()              // m.created

	creates int
}

// mdsCreate is one CreateK call waiting for its service to end: the
// normalised spec and the caller's continuation.
type mdsCreate struct {
	spec StripeSpec
	k    func(*File, error)
}

// newMDS builds the metadata server of sys.
func newMDS(sys *System) *MDS {
	m := &MDS{sys: sys, res: sys.eng.NewResource("mds", 1)}
	m.createdFn = m.created
	return m
}

// Creates reports the number of files created (telemetry).
func (m *MDS) Creates() int { return m.creates }

// normalizeSpec fills system defaults into spec and validates it against
// the platform limits — CreateK's synchronous prefix, before any service
// time is charged.
func (m *MDS) normalizeSpec(spec StripeSpec) (StripeSpec, error) {
	plat := m.sys.plat
	if spec.Count == 0 {
		spec.Count = plat.DefaultStripeCount
	}
	if spec.SizeMB == 0 {
		spec.SizeMB = plat.DefaultStripeSizeMB
	}
	if spec.Count < 0 || spec.Count > plat.MaxStripeCount {
		return spec, fmt.Errorf("lustre: stripe count %d outside 1..%d", spec.Count, plat.MaxStripeCount)
	}
	if spec.SizeMB < 0 {
		return spec, fmt.Errorf("lustre: negative stripe size %v", spec.SizeMB)
	}
	if spec.OffsetOST >= plat.OSTs {
		return spec, fmt.Errorf("lustre: stripe offset %d beyond %d OSTs", spec.OffsetOST, plat.OSTs)
	}
	return spec, nil
}

// allocate draws the new file's layout. It must run only after the MDS
// service time has been charged: the RNG draw position in the run's
// deterministic stream is part of the simulated behaviour.
func (m *MDS) allocate(spec StripeSpec) *File {
	plat := m.sys.plat
	var osts []int
	if spec.OffsetOST >= 0 {
		osts = make([]int, spec.Count)
		for i := range osts {
			osts[i] = (spec.OffsetOST + i) % plat.OSTs
		}
	} else {
		osts = m.sys.rng.SampleWithoutReplacement(plat.OSTs, spec.Count)
	}
	m.sys.fileSeq++
	m.creates++
	return &File{
		ID:     m.sys.fileSeq,
		Layout: Layout{OSTs: osts, SizeMB: spec.SizeMB},
	}
}

// CreateK allocates a layout for a new file, charging the caller the
// metadata service time, and delivers the file to k. The spec is
// normalised against system defaults and validated against the
// platform's stripe limit; a spec error is delivered synchronously,
// before any service time is charged and before the call is queued, so
// it reaches k and no other caller. A create that passes validation
// never fails: k receives an error only synchronously.
func (m *MDS) CreateK(t *sim.Task, spec StripeSpec, k func(*File, error)) {
	spec, err := m.normalizeSpec(spec)
	if err != nil {
		k(nil, err)
		return
	}
	m.pending.Push(mdsCreate{spec: spec, k: k})
	m.res.UseTask(t, m.sys.plat.MDSOpTime, m.createdFn)
}

// created ends the service of the oldest pending create: the slot
// completes operations in call order, stats included, so the head of
// pending is the create whose service ended.
func (m *MDS) created() {
	c := m.pending.Pop()
	c.k(m.allocate(c.spec), nil)
}

// StatK models a cheap metadata query (open of an existing file, unlink,
// etc.): k runs after one metadata service time.
func (m *MDS) StatK(t *sim.Task, k func()) {
	m.res.UseTask(t, m.sys.plat.MDSOpTime, k)
}

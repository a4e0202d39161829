// Package trace records what a simulation did: every transfer's lifetime
// and achieved bandwidth, per-link carried volume, and a coarse timeline
// of aggregate throughput. It plays the role that application I/O tracing
// tools (such as the authors' RIOT framework, refs [16,17] of the paper)
// play on real systems: explaining *why* a run achieved the bandwidth it
// did. Install a Recorder on a flow network before running the engine,
// then query or export the trace.
package trace

import (
	"fmt"
	"io"
	"sort"

	"pfsim/internal/flow"
)

// Record is one completed transfer.
type Record struct {
	Name    string
	Start   float64 // virtual seconds
	End     float64
	SizeMB  float64
	MeanMBs float64 // SizeMB / (End-Start); 0 for instantaneous flows
}

// Recorder captures flow lifecycles from a network. The zero value is
// ready to use after Attach.
//
// Concurrency is sampled at instant boundaries: within one virtual
// instant the interleaving of start and finish callbacks depends on the
// solver mode (the incremental solver batches completions where the
// reference solver retires them eagerly), so the old per-callback peak
// could transiently differ between modes. The per-instant count — flows
// open at entry plus flows started during the instant, which includes
// everything that finishes at it — is order-independent, so both solvers
// report identical telemetry.
type Recorder struct {
	records []Record
	open    int     // settled open count after the last callback
	maxOpen int     // peak per-instant concurrency over committed instants
	curT    float64 // instant currently being accumulated
	atEntry int     // open count when curT began
	started int     // flows started during curT
}

// Attach installs the recorder on a network (replacing any observer).
func (r *Recorder) Attach(n *flow.Net) { n.Observe(r) }

// sample commits the finished instant's concurrency when the clock moves.
func (r *Recorder) sample(t float64) {
	if t > r.curT {
		if alive := r.atEntry + r.started; alive > r.maxOpen {
			r.maxOpen = alive
		}
		r.curT = t
		r.atEntry = r.open
		r.started = 0
	}
}

// FlowStarted implements flow.Observer.
func (r *Recorder) FlowStarted(f *flow.Flow) {
	r.sample(f.Started())
	r.open++
	r.started++
}

// FlowFinished implements flow.Observer.
func (r *Recorder) FlowFinished(f *flow.Flow) {
	r.sample(f.FinishedAt())
	r.open--
	rec := Record{
		Name:   f.Name(),
		Start:  f.Started(),
		End:    f.FinishedAt(),
		SizeMB: f.Size(),
	}
	if d := rec.End - rec.Start; d > 0 {
		rec.MeanMBs = rec.SizeMB / d
	}
	r.records = append(r.records, rec)
}

// Records returns the completed transfers in completion order.
func (r *Recorder) Records() []Record {
	out := make([]Record, len(r.records))
	copy(out, r.records)
	return out
}

// Len returns the number of completed transfers.
func (r *Recorder) Len() int { return len(r.records) }

// MaxConcurrent returns the peak number of flows alive at any virtual
// instant: flows open when the instant began plus flows started during it
// (a flow finishing at an instant was alive at it; an instantaneous flow
// counts at its one instant). The count is identical in both solver
// modes. The still-accumulating current instant is included.
func (r *Recorder) MaxConcurrent() int {
	if alive := r.atEntry + r.started; alive > r.maxOpen {
		return alive
	}
	return r.maxOpen
}

// TotalMB returns the volume moved by completed transfers.
func (r *Recorder) TotalMB() float64 {
	sum := 0.0
	for _, rec := range r.records {
		sum += rec.SizeMB
	}
	return sum
}

// Makespan returns the span from the first start to the last completion
// (0 when empty).
func (r *Recorder) Makespan() (start, end float64) {
	if len(r.records) == 0 {
		return 0, 0
	}
	start, end = r.records[0].Start, r.records[0].End
	for _, rec := range r.records[1:] {
		if rec.Start < start {
			start = rec.Start
		}
		if rec.End > end {
			end = rec.End
		}
	}
	return start, end
}

// Slowest returns the n transfers with the lowest mean bandwidth — the
// stragglers that explain a contended run's tail.
func (r *Recorder) Slowest(n int) []Record {
	out := r.Records()
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanMBs != out[j].MeanMBs {
			return out[i].MeanMBs < out[j].MeanMBs
		}
		return out[i].Name < out[j].Name
	})
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}

// Timeline integrates aggregate achieved throughput over fixed buckets of
// width dt seconds. Bucket b covers [b*dt, (b+1)*dt); the rows run from
// the bucket holding the first transfer's start (returned as first) to
// the bucket holding the last completion, so a run that starts late
// reports no empty lead-in. Each transfer contributes its mean rate
// across its lifetime — a fluid approximation consistent with the
// simulator itself.
func (r *Recorder) Timeline(dt float64) (first int, rates []float64) {
	if dt <= 0 || len(r.records) == 0 {
		return 0, nil
	}
	start, end := r.Makespan()
	first = int(start / dt)
	rates = make([]float64, int(end/dt)+1-first)
	for _, rec := range r.records {
		if rec.End <= rec.Start {
			continue
		}
		last := min(int(rec.End/dt), first+len(rates)-1)
		for b := int(rec.Start / dt); b <= last; b++ {
			bStart := float64(float64(b) * dt)
			bEnd := bStart + dt
			overlap := minF(rec.End, bEnd) - maxF(rec.Start, bStart)
			if overlap > 0 {
				rates[b-first] += rec.MeanMBs * overlap / dt
			}
		}
	}
	return first, rates
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// WriteCSV exports the records as CSV (name,start,end,size_mb,mean_mbs).
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "name,start_s,end_s,size_mb,mean_mbs"); err != nil {
		return err
	}
	for _, rec := range r.records {
		if _, err := fmt.Fprintf(w, "%s,%.6f,%.6f,%.3f,%.3f\n",
			rec.Name, rec.Start, rec.End, rec.SizeMB, rec.MeanMBs); err != nil {
			return err
		}
	}
	return nil
}

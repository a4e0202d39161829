package main

import (
	"container/heap"
	"math/rand/v2"
	"runtime"
	"time"
)

// referenceCalibration is what calibrate measures on the reference
// machine (a 2-vCPU Sapphire Rapids KVM guest) when no other tenant
// contends for its caches and memory bandwidth.
const referenceCalibration = 0.12

// calibrate times a fixed kernel shaped like the simulator's hot loop —
// a pointer min-heap of small events, popped and refilled with fresh
// allocations over a working set larger than a core's private cache — and
// returns its seconds. The heap is collected before and after, so the
// kernel and the unit after it start from the same heap state.
//
// The benchmark exists to compare two versions of pfsim on one machine,
// but a shared host is not one machine over time: co-tenants' cache and
// memory-bandwidth contention comes in phases of tens of seconds to
// minutes that slow the simulator by up to 1.8x while leaving pure
// arithmetic untouched, and a run is too short to average them out.
// The kernel slows with the same phases, so a timing scaled by
// referenceCalibration / calibrate() reads as seconds on the quiet
// reference machine. The kernel is part of the benchmark, so no change
// to pfsim moves it.
func calibrate() float64 {
	runtime.GC()
	t0 := time.Now()
	calKernel()
	d := time.Since(t0).Seconds()
	runtime.GC()
	return d
}

func calKernel() {
	rng := rand.New(rand.NewPCG(1, 2))
	h := &calHeap{}
	for i := range calLive {
		heap.Push(h, &calEvent{at: rng.Float64(), seq: i})
	}
	for i := range calChurn {
		ev := heap.Pop(h).(*calEvent)
		heap.Push(h, &calEvent{at: ev.at + rng.Float64(), seq: i})
	}
}

// calibrationPeriod is how often a run recalibrates: after the first unit
// that ends this long after the previous calibration. Each unit is scaled
// by the calibrations nearest it, so a long iteration is tracked through
// the phases it spans.
const calibrationPeriod = time.Second

// calibratedClock scales timings by the calibration runs on either side
// of them.
type calibratedClock struct {
	last    float64   // seconds of the latest calibration
	at      time.Time // when it finished
	runs    []float64 // every calibration's seconds
	pending []pendingTiming
}

// pendingTiming is raw seconds waiting for the calibration that closes
// its interval, to be scaled and added to *dst.
type pendingTiming struct {
	dst *float64
	d   float64
}

func newCalibratedClock() *calibratedClock {
	c := &calibratedClock{}
	c.calibrate()
	return c
}

// add records d raw seconds, added to *dst once the next calibration has
// scaled them.
func (c *calibratedClock) add(dst *float64, d float64) {
	c.pending = append(c.pending, pendingTiming{dst, d})
}

// due reports whether calibrationPeriod has passed since the last
// calibration.
func (c *calibratedClock) due() bool { return time.Since(c.at) >= calibrationPeriod }

// calibrate runs the kernel and scales every pending timing by the mean of
// this calibration and the previous one.
func (c *calibratedClock) calibrate() {
	now := calibrate()
	if c.runs == nil {
		c.last = now
	}
	scale := referenceCalibration / ((c.last + now) / 2)
	for _, p := range c.pending {
		*p.dst += p.d * scale
	}
	c.pending = c.pending[:0]
	c.last, c.at = now, time.Now()
	c.runs = append(c.runs, now)
}

// calLive and calChurn size the kernel: about 25 MB of live events, a
// quarter of them replaced. A working set this size tracks the
// simulator's slowdowns; one of a quarter the size tracked them half as
// well.
const (
	calLive  = 400_000
	calChurn = 100_000
)

type calEvent struct {
	at  float64
	seq int
	_   [4]int // pads the event to 48 bytes, a small simulator object
}

type calHeap []*calEvent

func (h calHeap) Len() int { return len(h) }
func (h calHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h calHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)   { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

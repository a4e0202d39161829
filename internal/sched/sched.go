// Package sched simulates a batch scheduler in front of the shared file
// system: jobs queue for compute nodes, run their I/O workloads on the
// simulated Lustre installation, and contend with whoever else is
// running. It turns the paper's fixed four-job scenario into a general
// multi-tenant model — the "average I/O workload" the conclusion argues
// purchasing decisions should be made against.
package sched

import (
	"fmt"
	"math"
	"sort"

	"pfsim/internal/cluster"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

// Submission is a job entering the queue at a given virtual time.
type Submission struct {
	Cfg      ior.Config
	SubmitAt float64
}

// Completed describes one finished job.
type Completed struct {
	Cfg       ior.Config
	Result    *ior.Result
	FirstNode int
	Submit    float64
	Start     float64
	End       float64
}

// Wait is the time spent queued.
func (c Completed) Wait() float64 { return c.Start - c.Submit }

// RunTime is the execution time.
func (c Completed) RunTime() float64 { return c.End - c.Start }

// Slowdown is turnaround over run time (1 = no queueing delay).
func (c Completed) Slowdown() float64 {
	rt := c.RunTime()
	if rt <= 0 {
		return 1
	}
	return (c.End - c.Submit) / rt
}

// Options configures the scheduler.
type Options struct {
	// Backfill lets later jobs start when the queue head does not fit —
	// EASY-style without reservations (jobs here are short relative to
	// queue dynamics).
	Backfill bool
	// Seed overrides the platform seed for the underlying system.
	Seed uint64
}

// Run executes the submissions on plat under FCFS (optionally with
// backfill) and returns completions in finish order plus the makespan.
func Run(plat *cluster.Platform, subs []Submission, opt Options) ([]Completed, float64, error) {
	if len(subs) == 0 {
		return nil, 0, fmt.Errorf("sched: no submissions")
	}
	seed := plat.Seed
	if opt.Seed != 0 {
		seed = opt.Seed
	}
	eng := sim.NewEngine()
	sys, err := lustre.NewSystem(eng, plat, stats.NewRNG(seed).Fork(0x5ced))
	if err != nil {
		return nil, 0, err
	}
	s := &state{
		plat:  plat,
		eng:   eng,
		sys:   sys,
		free:  make([]bool, plat.Nodes),
		opt:   opt,
		total: len(subs),
	}
	for i := range s.free {
		s.free[i] = true
	}
	ordered := append([]Submission(nil), subs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].SubmitAt < ordered[j].SubmitAt })
	for i, sub := range ordered {
		if math.IsNaN(sub.SubmitAt) || math.IsInf(sub.SubmitAt, 1) {
			return nil, 0, fmt.Errorf("sched: job %d: SubmitAt %v must be finite", i, sub.SubmitAt)
		}
		if err := sub.Cfg.Validate(plat); err != nil {
			return nil, 0, fmt.Errorf("sched: job %d: %w", i, err)
		}
		sub := sub
		eng.Schedule(sub.SubmitAt, func() {
			s.queue = append(s.queue, &queued{sub: sub, submit: eng.Now()})
			s.dispatch()
		})
	}
	if err := eng.Run(); err != nil {
		return nil, 0, fmt.Errorf("sched: %w", err)
	}
	if s.err != nil {
		return nil, 0, s.err
	}
	if len(s.done) != s.total {
		return nil, 0, fmt.Errorf("sched: %d of %d jobs completed", len(s.done), s.total)
	}
	return s.done, eng.Now(), nil
}

type queued struct {
	sub    Submission
	submit float64
}

type state struct {
	plat  *cluster.Platform
	eng   *sim.Engine
	sys   *lustre.System
	free  []bool
	queue []*queued
	done  []Completed
	opt   Options
	total int
	err   error
}

// dispatch starts every queue entry that can run under the policy.
func (s *state) dispatch() {
	for {
		started := false
		for i, q := range s.queue {
			if i > 0 && !s.opt.Backfill {
				break // strict FCFS: only the head may start
			}
			nodes := s.plat.NodesFor(q.sub.Cfg.NumTasks)
			first, ok := s.firstFit(nodes)
			if !ok {
				if i == 0 && !s.opt.Backfill {
					return
				}
				continue
			}
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.start(q, first, nodes)
			started = true
			break
		}
		if !started {
			return
		}
	}
}

// firstFit finds the lowest contiguous block of free nodes.
func (s *state) firstFit(n int) (int, bool) {
	run := 0
	for i, f := range s.free {
		if f {
			run++
			if run == n {
				return i - n + 1, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

func (s *state) start(q *queued, first, nodes int) {
	for i := first; i < first+nodes; i++ {
		s.free[i] = false
	}
	cfg := q.sub.Cfg
	cfg.FirstNode = first
	rj, err := ior.StartJob(s.sys, cfg)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		s.eng.Stop()
		return
	}
	startAt := s.eng.Now()
	// A completion subscription rather than a watcher process: the job's
	// Done signal reschedules the dispatcher directly, so the scheduler
	// holds no parked goroutine per running job.
	rj.Done.OnFired(func() {
		if rj.Err() != nil && s.err == nil {
			s.err = rj.Err()
		}
		for i := first; i < first+nodes; i++ {
			s.free[i] = true
		}
		s.done = append(s.done, Completed{
			Cfg:       cfg,
			Result:    rj.Result,
			FirstNode: first,
			Submit:    q.submit,
			Start:     startAt,
			End:       s.eng.Now(),
		})
		s.dispatch()
	})
}

// Summary aggregates queueing metrics for a completed schedule.
type Summary struct {
	Makespan     float64
	MeanWait     float64
	MaxWait      float64
	MeanSlowdown float64
}

// Summarise computes queue metrics over completions.
func Summarise(done []Completed, makespan float64) Summary {
	s := Summary{Makespan: makespan}
	if len(done) == 0 {
		return s
	}
	for _, c := range done {
		w := c.Wait()
		s.MeanWait += w
		if w > s.MaxWait {
			s.MaxWait = w
		}
		s.MeanSlowdown += c.Slowdown()
	}
	s.MeanWait /= float64(len(done))
	s.MeanSlowdown /= float64(len(done))
	return s
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"pfsim/internal/cluster"
	"pfsim/internal/experiments"
	"pfsim/internal/flow"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
	"pfsim/internal/scenariofile"
	"pfsim/internal/sim"
	"pfsim/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.
type span struct {
	Name      string  `json:"name"`
	Start     float64 `json:"start_s"`
	End       float64 `json:"end_s"`
	Parent    int     `json:"parent"` // index of the enclosing span, -1 for none
	Iteration int     `json:"iteration"`
}

// counts is the work one traced iteration did, read from the counters the
// layers expose. Every field repeats exactly from iteration to iteration.
type counts struct {
	events, pendingPeak, liveTasksPeak int64
	solver                             flow.Stats
	mdsCreates, jobs, baselineSims     int64
}

// tracer keeps spans in memory and counts work through the engine's poll
// hook and the solver and MDS counters. Its span method is safe on a nil
// tracer, which is how untraced iterations run.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 when none
	iters []counts

	// The simulation being watched: shards of one run share an engine and
	// a solver, so these are read once per simulation, in collect.
	eng     *sim.Engine
	net     *flow.Net
	systems []*lustre.System
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// span opens a span and returns the func that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.open, Iteration: len(t.iters) - 1})
	t.open = id
	return func() {
		t.spans[id].End = t.now()
		t.open = t.spans[id].Parent
	}
}

// beginIteration starts a new iteration's counts and its root span, and
// returns the func that closes the span.
func (t *tracer) beginIteration() func() {
	t.iters = append(t.iters, counts{})
	return t.span("iteration")
}

func (t *tracer) cur() *counts { return &t.iters[len(t.iters)-1] }

// watch is the instrument hook: it counts every fired event and tracks
// the event queue's and the live task population's peaks.
func (t *tracer) watch(sys *lustre.System) {
	if eng := sys.Engine(); eng != t.eng {
		t.eng, t.net = eng, sys.Net()
		c := t.cur()
		eng.SetPoll(1, func() {
			c.events++
			c.pendingPeak = max(c.pendingPeak, int64(eng.Pending()))
			c.liveTasksPeak = max(c.liveTasksPeak, int64(eng.LiveTasks()))
		})
	}
	t.systems = append(t.systems, sys)
}

// collect reads the counters of the simulation that just returned.
func (t *tracer) collect() {
	if t.net == nil {
		return
	}
	c := t.cur()
	s := t.net.Stats()
	c.solver.Solves += s.Solves
	c.solver.ComponentsSolved += s.ComponentsSolved
	c.solver.ComponentFlowsScanned += s.ComponentFlowsScanned
	c.solver.LinkVisits += s.LinkVisits
	c.solver.Coalesced += s.Coalesced
	c.solver.Rounds += s.Rounds
	c.solver.FlowsScanned += s.FlowsScanned
	c.solver.FlowsSettled += s.FlowsSettled
	c.solver.HeapOps += s.HeapOps
	for _, sys := range t.systems {
		c.mdsCreates += int64(sys.MDS().Creates())
	}
	t.eng, t.net, t.systems = nil, nil, t.systems[:0]
}

// runFile runs one scenario file as scenariofile.Run does, split into
// its public steps so parsing, compiling, the contended simulation and
// the solo baselines are separate spans. Assertions are not evaluated:
// the untraced iteration did that, and the digests must match it.
func (t *tracer) runFile(d doc) (*scenariofile.Result, error) {
	done := t.span("scenariofile.parse")
	f, err := scenariofile.Parse(d.data, d.name)
	done()
	if err != nil {
		return nil, err
	}
	done = t.span("scenariofile.compile")
	var (
		plat  *cluster.Platform
		scens []workload.Scenario
	)
	err = f.Validate()
	if err == nil {
		plat, err = f.BuildPlatform()
	}
	if err == nil {
		scens, err = f.BuildScenarios()
	}
	done()
	if err != nil {
		return nil, err
	}

	res := &scenariofile.Result{File: f, Platform: plat}
	opts := workload.RunOptions{Parallelism: 1}
	done = t.span("workload.contended")
	var holders []*workload.Result
	if f.Sharded() {
		res.Sharded, err = workload.RunShardedWith(plat, scens, opts, func(i int, sys *lustre.System) {
			f.InstrumentShard(i)(sys)
			t.watch(sys)
		})
		if err == nil {
			holders = res.Sharded.Shards
		}
	} else {
		res.Mono, err = workload.RunScenarioWith(plat, scens[0], opts, f.InstrumentShard(-1), t.watch)
		holders = []*workload.Result{res.Mono}
	}
	t.collect()
	done()
	if err != nil {
		return nil, err
	}
	for _, h := range holders {
		t.cur().jobs += int64(len(h.Jobs))
	}
	if needsBaselines(f) {
		done = t.span("runner.baseline")
		err = t.baselines(plat, holders)
		done()
	}
	return res, err
}

// needsBaselines mirrors the scenario-file rule: the file's baselines key,
// or any assertion that reads slowdowns.
func needsBaselines(f *scenariofile.File) bool {
	if f.Baselines != nil {
		return *f.Baselines
	}
	set := func(b scenariofile.Bound) bool { return b.HasMin || b.HasMax }
	if set(f.Assert.MeanSlowdown) || set(f.Assert.MaxSlowdown) {
		return true
	}
	for _, j := range f.Assert.Jobs {
		if set(j.Slowdown) {
			return true
		}
	}
	return false
}

// baselines runs one solo simulation per distinct job shape of each
// result, as the scenario-file runner does, and fills in slowdowns.
func (t *tracer) baselines(plat *cluster.Platform, holders []*workload.Result) error {
	for _, h := range holders {
		cfgs := h.SoloConfigs()
		byCfg := make(map[ior.Config]*ior.Result, len(cfgs))
		for _, cfg := range cfgs {
			solo, err := workload.RunScenario(plat, workload.Scenario{
				Jobs: []workload.Job{{Workload: workload.IORJob{Cfg: cfg}}},
			}, 0, t.watch)
			t.collect()
			if err != nil {
				return fmt.Errorf("solo baseline for %q: %w", cfg.Label, err)
			}
			t.cur().baselineSims++
			byCfg[cfg] = solo.Jobs[0].IOR
		}
		h.ApplySolo(byCfg)
	}
	return nil
}

// spanSeconds is the median over iterations of the summed duration of the
// spans with this name.
func (t *tracer) spanSeconds(name string) float64 {
	per := make([]float64, len(t.iters))
	for _, s := range t.spans {
		if s.Name == name {
			per[s.Iteration] += s.End - s.Start
		}
	}
	return median(per)
}

// countsRepeat reports whether every traced iteration did the same work.
func (t *tracer) countsRepeat() bool {
	for _, c := range t.iters[1:] {
		if c != t.iters[0] {
			return false
		}
	}
	return true
}

// addMetrics adds the span times and work counts. Metrics a workload
// cannot reach read 0: experiment spans on scenario workloads, and the
// engine and solver counts of paper artefacts, whose simulations take no
// instrument hook.
func (t *tracer) addMetrics(rep *report) {
	c := t.iters[0]
	contended, baseline := t.spanSeconds("workload.contended"), t.spanSeconds("runner.baseline")
	rep.add("scenariofile.parse_s", t.spanSeconds("scenariofile.parse"), "s")
	rep.add("scenariofile.compile_s", t.spanSeconds("scenariofile.compile"), "s")
	rep.add("workload.contended_s", contended, "s")
	rep.add("workload.jobs", float64(c.jobs), "count")
	rep.add("runner.baseline_s", baseline, "s")
	rep.add("runner.baseline_sims", float64(c.baselineSims), "count")
	for _, id := range append(experiments.IDs(), experiments.ExtraIDs()...) {
		rep.add("experiments."+id+"_s", t.spanSeconds("experiments."+id), "s")
	}
	rep.add("sim.events", float64(c.events), "count")
	eventsPerS := 0.0
	if simTime := contended + baseline; simTime > 0 {
		eventsPerS = float64(c.events) / simTime
	}
	rep.add("sim.events_per_s", eventsPerS, "1/s")
	rep.add("sim.pending_peak", float64(c.pendingPeak), "count")
	rep.add("sim.live_tasks_peak", float64(c.liveTasksPeak), "count")
	s := c.solver
	rep.add("flow.solves", float64(s.Solves), "count")
	rep.add("flow.components_solved", float64(s.ComponentsSolved), "count")
	perSolve := 0.0
	if s.ComponentsSolved > 0 {
		perSolve = float64(s.ComponentFlowsScanned) / float64(s.ComponentsSolved)
	}
	rep.add("flow.comp_flows_per_solve", perSolve, "flows")
	rep.add("flow.link_visits", float64(s.LinkVisits), "count")
	rep.add("flow.rounds", float64(s.Rounds), "count")
	rep.add("flow.flows_scanned", float64(s.FlowsScanned), "count")
	rep.add("flow.flows_settled", float64(s.FlowsSettled), "count")
	rep.add("flow.heap_ops", float64(s.HeapOps), "count")
	rep.add("flow.coalesced", float64(s.Coalesced), "count")
	rep.add("lustre.mds_creates", float64(c.mdsCreates), "count")
}

// write saves the spans as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

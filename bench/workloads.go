package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/template"

	"pfsim/internal/cluster"
	"pfsim/internal/experiments"
	"pfsim/internal/lustre"
	"pfsim/internal/scenariofile"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
	"pfsim/internal/workload"
)

//go:embed workloads/*.yaml
var templates embed.FS

// config is what one benchmark invocation was asked to do.
type config struct {
	root    string  // repository root: holds scenarios/ and bench/
	seed    uint64  // seed for the generated workloads
	seconds float64 // seconds of measured iterations
	small   bool    // shrunken inputs for the smoke test; recorded digests do not apply
	outDir  string  // where a traced run writes its spans and CPU profile
}

// benchWorkload is one named set of inputs and how to run it.
type benchWorkload struct {
	name string
	// seeded workloads draw their inputs from -seed; the others are fixed
	// inputs calibrated to their own seeds, so their digests never change.
	seeded bool
	// procs is the GOMAXPROCS the workload runs at.
	procs int
	load  func(cfg config) (runner, error)
}

// runner executes one workload's units.
type runner interface {
	// setup does one pass of the work that precedes simulation: parse,
	// validate and compile every document, or build a simulated system and
	// look up every experiment.
	setup() error
	// size is the number of units in one iteration.
	size() int
	// run runs unit i. tr is nil for untraced iterations.
	run(i int, tr *tracer) unit
}

// iterate runs every unit of one iteration.
func iterate(r runner, tr *tracer) []unit {
	out := make([]unit, r.size())
	for i := range out {
		out[i] = r.run(i, tr)
	}
	return out
}

// unit is the outcome of one independently checked piece of an
// iteration: one scenario file or one experiment.
type unit struct {
	name   string
	digest string // SHA-256 over the unit's physics outputs
	err    error  // failed to run, or failed its assertion block
}

// pairWidth is the pool width of the paper artefacts: two workers, or one
// per core on a smaller machine.
var pairWidth = min(2, runtime.NumCPU())

var workloads = []benchWorkload{
	{name: "corpus", procs: 1, load: loadCorpus},
	{name: "plfs-storm", seeded: true, procs: 1, load: templateLoader("plfs-storm")},
	{name: "shard-fleet", seeded: true, procs: 1, load: templateLoader("shard-fleet")},
	{name: "paper-artefacts", procs: pairWidth, load: loadPaper},
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// doc is one scenario document and the name it is parsed under.
type doc struct {
	name string
	data []byte
}

// loadCorpus reads the committed scenario corpus. The shrunken variant
// keeps it whole: the corpus is already small.
func loadCorpus(cfg config) (runner, error) {
	paths, err := filepath.Glob(filepath.Join(cfg.root, "scenarios", "*.yaml"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no scenario files under %s", filepath.Join(cfg.root, "scenarios"))
	}
	docs := make([]doc, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(cfg.root, p)
		if err != nil {
			return nil, err
		}
		docs[i] = doc{filepath.ToSlash(rel), data}
	}
	return &scenarioRunner{docs: docs}, nil
}

// templateLoader loads a generated workload: the template under
// workloads/ rendered with the seed, so the simulator only ever sees the
// rendered document.
func templateLoader(name string) func(config) (runner, error) {
	return func(cfg config) (runner, error) {
		data, err := render(name, cfg.seed, cfg.small)
		if err != nil {
			return nil, err
		}
		return &scenarioRunner{docs: []doc{{"bench/workloads/" + name + ".yaml", data}}}, nil
	}
}

// render expands workloads/<name>.yaml. The template sees .Seed and
// .Small, and `seeds n` yields n distinct non-zero seeds derived from
// .Seed, one per generator that needs its own stream.
func render(name string, seed uint64, small bool) ([]byte, error) {
	src, err := templates.ReadFile("workloads/" + name + ".yaml")
	if err != nil {
		return nil, err
	}
	t, err := template.New(name).Option("missingkey=error").Funcs(template.FuncMap{
		"seeds": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				// splitmix64 of (seed, i), kept below 2^31 so every YAML
				// integer reader takes it.
				z := seed + uint64(i+1)*0x9e3779b97f4a7c15
				z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
				z = (z ^ z>>27) * 0x94d049bb133111eb
				out[i] = (z^z>>31)&(1<<31-1) | 1
			}
			return out
		},
	}).Parse(string(src))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	data := struct {
		Seed  uint64
		Small bool
	}{seed, small}
	if err := t.Execute(&buf, data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// scenarioRunner runs scenario documents through the scenario-file front
// door at solver width 1.
type scenarioRunner struct {
	docs []doc
}

func (r *scenarioRunner) setup() error {
	for _, d := range r.docs {
		f, err := scenariofile.Parse(d.data, d.name)
		if err != nil {
			return err
		}
		if err := f.Validate(); err != nil {
			return err
		}
		if _, err := f.BuildPlatform(); err != nil {
			return err
		}
		if _, err := f.BuildScenarios(); err != nil {
			return err
		}
	}
	return nil
}

func (r *scenarioRunner) size() int { return len(r.docs) }

func (r *scenarioRunner) run(i int, tr *tracer) unit {
	d := r.docs[i]
	var (
		res *scenariofile.Result
		err error
	)
	if tr == nil {
		res, err = runFile(d)
	} else {
		res, err = tr.runFile(d)
	}
	u := unit{name: d.name, err: err}
	if err == nil {
		u.digest = scenarioDigest(res)
		if !res.Passed() {
			u.err = fmt.Errorf("assertions failed: %s", strings.Join(res.Failures, "; "))
		}
	}
	return u
}

// runFile is the untraced path: exactly what pfsim-scenario run does.
func runFile(d doc) (*scenariofile.Result, error) {
	f, err := scenariofile.Parse(d.data, d.name)
	if err != nil {
		return nil, err
	}
	return scenariofile.Run(f, scenariofile.RunOptions{Parallelism: 1})
}

// loadPaper selects the registered experiments. The shrunken variant runs
// quick mode over the cheapest artefacts only.
func loadPaper(cfg config) (runner, error) {
	ids := append(experiments.IDs(), experiments.ExtraIDs()...)
	opt := experiments.Options{Parallelism: pairWidth}
	if cfg.small {
		ids = []string{"table3", "figure2", "table8", "extension-readback"}
		opt.Quick = true
	}
	return &paperRunner{ids: ids, opt: opt, outcomes: map[string]*experiments.Outcome{}}, nil
}

// paperRunner regenerates the paper's artefacts in process.
type paperRunner struct {
	ids      []string
	opt      experiments.Options
	outcomes map[string]*experiments.Outcome // the latest iteration's
}

// setup builds what every experiment's simulations start from — the
// platform and a simulated system on it — and looks up every experiment.
func (r *paperRunner) setup() error {
	plat := cluster.Cab()
	if _, err := lustre.NewSystem(sim.NewEngine(), plat, stats.NewRNG(plat.Seed)); err != nil {
		return err
	}
	for _, id := range r.ids {
		if _, ok := experiments.Lookup(id); !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
	}
	return nil
}

func (r *paperRunner) size() int { return len(r.ids) }

func (r *paperRunner) run(i int, tr *tracer) unit {
	id := r.ids[i]
	run, ok := experiments.Lookup(id)
	if !ok {
		return unit{name: id, err: fmt.Errorf("unknown experiment %q", id)}
	}
	done := tr.span("experiments." + id)
	o, err := run(r.opt)
	done()
	if err != nil {
		return unit{name: id, err: err}
	}
	r.outcomes[id] = o
	return unit{name: id, digest: outcomeDigest(o)}
}

// paperError is the mean |measured/paper − 1|·100 over the comparisons
// of the paper's own artefacts whose paper value is non-zero. Extras are
// left out: their "paper" values are thresholds, not measurements.
func paperError(outcomes map[string]*experiments.Outcome) (pct float64, n int) {
	for _, id := range experiments.IDs() {
		o := outcomes[id]
		if o == nil {
			continue
		}
		for _, c := range o.Comparisons {
			if c.Paper != 0 {
				pct += math.Abs(c.Measured/c.Paper-1) * 100
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return pct / float64(n), n
}

// digester hashes physics outputs bit for bit.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) f(x float64) { d.u(math.Float64bits(x)) }
func (d *digester) i(x int)     { d.u(uint64(x)) }
func (d *digester) u(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}
func (d *digester) s(x string) {
	d.i(len(x))
	io.WriteString(d.h, x)
}
func (d *digester) ints(xs []int) {
	d.i(len(xs))
	for _, x := range xs {
		d.i(x)
	}
}
func (d *digester) floats(xs []float64) {
	d.i(len(xs))
	for _, x := range xs {
		d.f(x)
	}
}
func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// scenarioDigest covers a scenario run's physics: makespans, and per job
// its write and read samples, start and finish times, slowdown figures
// and OST layouts. Solver work counters and assertion verdicts are left
// out, so a change that makes the solver do less work for the same
// results keeps the digest.
func scenarioDigest(res *scenariofile.Result) string {
	d := newDigester()
	d.f(res.Makespan())
	if res.Sharded != nil {
		for _, sh := range res.Sharded.Shards {
			d.f(sh.Makespan)
		}
	}
	res.EachJob(func(shard int, jr *workload.JobResult) {
		d.i(shard)
		d.s(jr.Label)
		d.f(jr.StartAt)
		d.f(jr.FinishedAt)
		d.f(jr.SoloMBs)
		d.f(jr.Slowdown)
		d.floats(jr.IOR.Write.Values())
		d.floats(jr.IOR.Read.Values())
		d.i(len(jr.IOR.LayoutOSTs))
		for _, l := range jr.IOR.LayoutOSTs {
			d.ints(l)
		}
		d.i(len(jr.IOR.PLFS))
		for _, a := range jr.IOR.PLFS {
			d.i(a.Dtotal)
			d.i(len(a.JobOSTs))
			for _, l := range a.JobOSTs {
				d.ints(l)
			}
		}
	})
	return d.sum()
}

// outcomeDigest covers an experiment's rendered output: its tables, the
// paper-vs-measured comparison table and its notes.
func outcomeDigest(o *experiments.Outcome) string {
	d := newDigester()
	d.s(o.ID)
	for _, t := range o.Tables {
		d.s(t.String())
	}
	d.s(o.ComparisonTable().String())
	for _, n := range o.Notes {
		d.s(n)
	}
	return d.sum()
}

// Package experiments regenerates every table and figure of the
// reproduced paper on the simulated platform. Each experiment returns an
// Outcome holding the rendered table, paper-vs-measured comparisons and
// notes; the cmd tools, the root benchmark harness and EXPERIMENTS.md all
// share these implementations.
package experiments

import (
	"context"
	"fmt"
	"math"

	"pfsim/internal/cluster"
	"pfsim/internal/core"
	"pfsim/internal/ior"
	"pfsim/internal/pool"
	"pfsim/internal/refdata"
	"pfsim/internal/report"
	"pfsim/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Plat is the simulated platform (nil selects cluster.Cab()).
	Plat *cluster.Platform
	// Quick trades repetitions and written volume for speed; shapes are
	// preserved. Benchmarks use Quick, cmd/experiments the full setting.
	Quick bool
	// Parallelism fans an experiment's independent simulations across
	// this many workers (1 = serial; values below one select GOMAXPROCS,
	// the default). Every simulation is deterministic in isolation, so
	// regenerated artefacts are byte-identical at any parallelism.
	Parallelism int
}

// each runs fn(0..n-1) across the experiment's worker pool. Callers keep
// per-index state and render tables serially afterwards, so outputs do
// not depend on completion order.
func (o Options) each(n int, fn func(i int) error) error {
	return pool.Run(context.Background(), o.Parallelism, n, fn)
}

func (o Options) platform() *cluster.Platform {
	if o.Plat != nil {
		return o.Plat
	}
	return cluster.Cab()
}

func (o Options) reps(full int) int {
	if o.Quick && full > 2 {
		return 2
	}
	return full
}

func (o Options) segments(full int) int {
	if o.Quick {
		return full / 4
	}
	return full
}

// Comparison pairs a paper value with the simulator's measurement.
type Comparison struct {
	Metric   string
	Paper    float64
	Measured float64
}

// Ratio returns measured/paper (0 when the paper value is 0).
func (c Comparison) Ratio() float64 {
	if c.Paper == 0 {
		return 0
	}
	return c.Measured / c.Paper
}

// Outcome is the result of one experiment.
type Outcome struct {
	// ID is the paper artefact ("figure1", "table5", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Tables hold the regenerated content.
	Tables []*report.Table
	// Comparisons summarise paper-vs-measured for the headline values.
	Comparisons []Comparison
	// Notes document deviations and modelling caveats.
	Notes []string
	// Work counts the simulations the experiment ran and their summed
	// solver and engine work (zero for the analytic tables).
	Work workload.Work
}

// ComparisonTable renders the outcome's comparisons.
func (o *Outcome) ComparisonTable() *report.Table {
	t := report.NewTable("Paper vs measured", "Metric", "Paper", "Measured", "Ratio")
	for _, c := range o.Comparisons {
		t.AddRow(c.Metric, c.Paper, c.Measured, fmt.Sprintf("%.2f", c.Ratio()))
	}
	return t
}

// Runner regenerates one paper artefact.
type Runner func(Options) (*Outcome, error)

// registryEntry orders the catalogue as the artefacts appear in the paper.
type registryEntry struct {
	id string
	fn Runner
}

var registry = []registryEntry{
	{"figure1", Figure1},
	{"table3", Table3},
	{"table4", Table4},
	{"figure2", Figure2},
	{"figure3", Figure3},
	{"table5", Table5},
	{"table6", Table6},
	{"figure5", Figure5},
	{"table7", Table7},
	{"table8", Table8},
	{"table9", Table9},
}

// extras are ablations and extensions beyond the paper's artefacts.
var extras = []registryEntry{
	{"ablation-aggcap", AblationAggregatorCap},
	{"ablation-thrash", AblationThrash},
	{"extension-ga", ExtensionGATuner},
	{"extension-readback", ExtensionReadback},
	{"extension-widestriping", ExtensionWideStriping},
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// ExtraIDs lists the ablation/extension identifiers.
func ExtraIDs() []string {
	out := make([]string, len(extras))
	for i, e := range extras {
		out[i] = e.id
	}
	return out
}

// Lookup returns the runner for an artefact or extra id.
func Lookup(id string) (Runner, bool) {
	for _, e := range registry {
		if e.id == id {
			return e.fn, true
		}
	}
	for _, e := range extras {
		if e.id == id {
			return e.fn, true
		}
	}
	return nil, false
}

// loadTable renders an analytic load table against its paper counterpart.
func loadTable(title string, fs core.FileSystem, r int, paper []refdata.LoadRow) (*report.Table, []Comparison) {
	t := report.NewTable(title, "Jobs", "Dinuse", "Dreq", "Dload", "paper Dinuse", "paper Dload")
	rows := core.LoadTable(fs, r, len(paper))
	var comps []Comparison
	for i, row := range rows {
		p := paper[i]
		t.AddRow(row.Jobs, row.Dinuse, row.Dreq, row.Dload, p.Dinuse, p.Dload)
		if row.Jobs == len(paper) {
			comps = append(comps,
				Comparison{fmt.Sprintf("Dinuse at n=%d", row.Jobs), p.Dinuse, row.Dinuse},
				Comparison{fmt.Sprintf("Dload at n=%d", row.Jobs), p.Dload, row.Dload})
		}
	}
	return t, comps
}

// Table3 regenerates Table III: OST usage and load on lscratchc with each
// job requesting 160 stripes (Equations 2-4).
func Table3(opt Options) (*Outcome, error) {
	fs := coreFS(opt.platform())
	t, comps := loadTable("Table III: Dtotal=480, R=160", fs, 160, refdata.TableIII)
	return &Outcome{
		ID:          "table3",
		Title:       "OST load for n jobs × 160 stripes (lscratchc)",
		Tables:      []*report.Table{t},
		Comparisons: comps,
	}, nil
}

// Table4 regenerates Table IV (R = 64).
func Table4(opt Options) (*Outcome, error) {
	fs := coreFS(opt.platform())
	t, comps := loadTable("Table IV: Dtotal=480, R=64", fs, 64, refdata.TableIV)
	return &Outcome{
		ID:          "table4",
		Title:       "OST load for n jobs × 64 stripes (lscratchc)",
		Tables:      []*report.Table{t},
		Comparisons: comps,
	}, nil
}

// Table6 regenerates Table VI: the Stampede prediction (Dtotal=160,
// R=128).
func Table6(Options) (*Outcome, error) {
	fs := core.Stampede()
	t, comps := loadTable("Table VI: Stampede, Dtotal=160, R=128", fs, 128, refdata.TableVI)
	o := &Outcome{
		ID:          "table6",
		Title:       "Predicted OST load on Stampede (Behzad et al. tuning)",
		Tables:      []*report.Table{t},
		Comparisons: comps,
	}
	o.Notes = append(o.Notes,
		"With only 3 simultaneous tuned tasks, Stampede's OSTs serve 2-3 jobs each on average.")
	return o, nil
}

func coreFS(plat *cluster.Platform) core.FileSystem {
	return core.FileSystem{
		Name:           plat.Name,
		TotalOSTs:      plat.OSTs,
		MaxStripeCount: plat.MaxStripeCount,
	}
}

// workOf sums the work behind an experiment's results; nil entries, runs
// quick mode skipped, count nothing.
func workOf(results ...*workload.Result) workload.Work {
	var w workload.Work
	for _, r := range results {
		if r != nil {
			w.Add(r.Work)
		}
	}
	return w
}

// meanOf averages a float slice (0 for empty).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// within reports |a-b| <= frac*|b|.
func within(a, b, frac float64) bool {
	return math.Abs(a-b) <= frac*math.Abs(b)
}

// runContendedSweep runs Section V's four contended 1,024-process jobs,
// each striped over r OSTs of 128 MB.
func runContendedSweep(opt Options, r int, reps int) (*workload.Result, error) {
	base := ior.PaperConfig(1024)
	base.Label = fmt.Sprintf("contend-r%d", r)
	base.SegmentCount = opt.segments(100)
	base.Reps = reps
	base.Hints.StripingFactor = r
	base.Hints.StripingUnitMB = 128
	return workload.RunScenario(opt.platform(), workload.Contended(base, 4), 0)
}

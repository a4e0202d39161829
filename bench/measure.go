package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// recorded pins the outputs of the default seed: every unit's digest and
// the paper-artefacts accuracy. A change to the simulated physics changes
// a digest and fails the run; refresh with -update-digests after an
// intentional model change.
type recorded struct {
	Seed             uint64                       `json:"seed"`
	PaperErrorPct    float64                      `json:"paper_error_pct"`
	PaperComparisons int                          `json:"paper_comparisons"`
	Digests          map[string]map[string]string `json:"digests"`
}

//go:embed digests.json
var recordedJSON []byte

// paperErrorSlack is how far paper_error_pct may rise above its recorded
// value, in percentage points, before the run counts as failed.
const paperErrorSlack = 0.1

func loadRecorded() (recorded, error) {
	var rec recorded
	if err := json.Unmarshal(recordedJSON, &rec); err != nil {
		return rec, fmt.Errorf("digests.json: %w", err)
	}
	return rec, nil
}

// expectedDigests returns the recorded digests a run must match, or nil
// when none apply: shrunken inputs, or a generated workload away from the
// recorded seed.
func (rec recorded) expectedDigests(w benchWorkload, cfg config) map[string]string {
	if cfg.small || (w.seeded && cfg.seed != rec.Seed) {
		return nil
	}
	if d := rec.Digests[w.name]; d != nil {
		return d
	}
	return map[string]string{} // nothing recorded: every unit fails
}

// prepare pins the workload's GOMAXPROCS and loads its inputs.
func prepare(w benchWorkload, cfg config) (runner, recorded, error) {
	rec, err := loadRecorded()
	if err != nil {
		return nil, rec, err
	}
	runtime.GOMAXPROCS(w.procs)
	r, err := w.load(cfg)
	return r, rec, err
}

// runMeasured is the end-to-end measurement, tracing off: set-up time,
// wall time and peak RSS per iteration, and the correctness accounting.
// Each iteration is preceded by a set-up round, so set-up is sampled
// across the whole run. Timings are put on the reference machine's scale
// (see calibrate), and each metric is the median over the run's
// iterations.
func runMeasured(w benchWorkload, cfg config) (*report, error) {
	r, rec, err := prepare(w, cfg)
	if err != nil {
		return nil, err
	}
	type sample struct{ setup, wall, rawWall, rss float64 }
	var samples []*sample
	var iters [][]unit
	passes := 0
	clock := newCalibratedClock()
	for start := time.Now(); len(iters) == 0 || time.Since(start).Seconds() < cfg.seconds; {
		s := &sample{}
		samples = append(samples, s)
		round, n, err := setupRound(r)
		if err != nil {
			return nil, err
		}
		clock.add(&s.setup, round)
		passes += n
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		units := make([]unit, r.size())
		for i := range units {
			t0 := time.Now()
			units[i] = r.run(i, nil)
			d := time.Since(t0).Seconds()
			s.rawWall += d
			clock.add(&s.wall, d)
			if i < len(units)-1 && clock.due() {
				clock.calibrate()
			}
		}
		iters = append(iters, units)
		if s.rss, err = peakRSSMB(); err != nil {
			return nil, err
		}
		if clock.due() {
			clock.calibrate()
		}
	}
	clock.calibrate()

	col := func(f func(*sample) float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = f(s)
		}
		return out
	}
	rss := col(func(s *sample) float64 { return s.rss })
	rep := newReport(w.name)
	rep.add("setup_s", median(col(func(s *sample) float64 { return s.setup })), "s")
	rep.notes["setup_s"] = fmt.Sprintf("median of %d rounds, %d passes", len(samples), passes)
	rep.add("wall_s", median(col(func(s *sample) float64 { return s.wall })), "s")
	rep.notes["wall_s"] = fmt.Sprintf("median of %d iterations; unscaled %.4g, median calibration %.4g of %d",
		len(samples), median(col(func(s *sample) float64 { return s.rawWall })), median(clock.runs), len(clock.runs))
	rep.add("peak_rss_mb", median(rss), "MB")
	rep.notes["peak_rss_mb"] = fmt.Sprintf("median of %d iterations, highest %.4g", len(rss), slices.Max(rss))
	account(rep, iters, rec.expectedDigests(w, cfg))
	if pr, ok := r.(*paperRunner); ok {
		checkPaperError(rep, pr, rec, cfg)
	}
	return rep, nil
}

// minRoundPasses and minRoundTime bound one set-up round from below: tiny
// set-ups run many passes so a round's median is not one timer tick.
const (
	minRoundPasses = 5
	minRoundTime   = 20 * time.Millisecond
)

// setupRound repeats the runner's set-up pass and returns the median pass
// time and the number of passes.
func setupRound(r runner) (float64, int, error) {
	var ts []float64
	for start := time.Now(); len(ts) < minRoundPasses || time.Since(start) < minRoundTime; {
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return 0, 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), len(ts), nil
}

// account charges every unit of every iteration: a unit fails if it
// errored or failed its assertions, if its digest differs from the first
// iteration's, or if it differs from the recorded digest (when expected
// is non-nil).
func account(rep *report, iters [][]unit, expected map[string]string) {
	for k, units := range iters {
		for i, u := range units {
			rep.attempted++
			switch first := iters[0][i].digest; {
			case u.err != nil:
				rep.fail("%s (iteration %d): %v", u.name, k, u.err)
			case u.digest != first:
				rep.fail("%s (iteration %d): digest %.12s differs from iteration 0's %.12s", u.name, k, u.digest, first)
			case expected != nil && u.digest != expected[u.name]:
				rep.fail("%s (iteration %d): digest %.12s, recorded %.12q", u.name, k, u.digest, expected[u.name])
			}
		}
	}
}

// checkPaperError reports paper_error_pct and counts it as one more unit,
// failed when the error rose more than paperErrorSlack points above the
// record.
func checkPaperError(rep *report, pr *paperRunner, rec recorded, cfg config) {
	pct, n := paperError(pr.outcomes)
	rep.add("paper_error_pct", pct, "%")
	rep.notes["paper_error_pct"] = fmt.Sprintf("%d comparisons; recorded %.2f over %d", n, rec.PaperErrorPct, rec.PaperComparisons)
	if cfg.small {
		return
	}
	rep.attempted++
	if pct > rec.PaperErrorPct+paperErrorSlack || n != rec.PaperComparisons {
		rep.fail("paper_error_pct %.4f over %d comparisons, recorded %.2f over %d", pct, n, rec.PaperErrorPct, rec.PaperComparisons)
	}
}

// runTraced is the per-layer measurement. Untraced iterations run for the
// first half of the configured seconds: they give the digests every traced
// iteration must reproduce and the wall time the tracing overhead is
// measured against. Traced iterations run for the second half under a
// CPU profile.
func runTraced(w benchWorkload, cfg config) (*report, error) {
	r, rec, err := prepare(w, cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var iters [][]unit
	var untraced []float64
	for start := time.Now(); len(iters) == 0 || time.Since(start).Seconds() < cfg.seconds/2; {
		t0 := time.Now()
		iters = append(iters, iterate(r, nil))
		untraced = append(untraced, time.Since(t0).Seconds())
	}

	profPath := filepath.Join(cfg.outDir, w.name+".pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	tr := newTracer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var walls []float64
	for start := time.Now(); len(walls) == 0 || time.Since(start).Seconds() < cfg.seconds/2; {
		done := tr.beginIteration()
		t0 := time.Now()
		iters = append(iters, iterate(r, tr))
		walls = append(walls, time.Since(t0).Seconds())
		done()
	}
	runtime.ReadMemStats(&after)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	shares, err := profileShares(profPath)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.outDir, w.name+".json"), w.name, cfg.seed); err != nil {
		return nil, err
	}

	rep := newReport(w.name)
	n := float64(len(walls))
	tr.addMetrics(rep)
	rep.add("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/n/(1<<20), "MB")
	rep.add("runtime.gc_cycles", float64(after.NumGC-before.NumGC)/n, "count")
	for _, l := range cpuLayers {
		rep.add(l+".cpu_frac", shares[l], "ratio")
	}
	rep.add("trace.overhead_frac", slices.Min(walls)/slices.Min(untraced)-1, "ratio")
	rep.notes["trace.overhead_frac"] = fmt.Sprintf("fastest of %d traced iterations against fastest of %d untraced", len(walls), len(untraced))

	account(rep, iters, rec.expectedDigests(w, cfg))
	rep.attempted++
	if !tr.countsRepeat() {
		rep.fail("per-iteration work counters differ between traced iterations")
	}
	return rep, nil
}

// resetPeakRSS returns the unused heap to the system and restarts the
// kernel's resident-set high-water mark, so the next peakRSSMB reads the
// peak of what runs in between. One iteration's peak is steadier than the
// whole run's: the run's is the worst of many garbage-collector timings.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// updateDigests runs every workload once at the recorded seed and
// rewrites bench/digests.json with the new digests and accuracy.
func updateDigests(cfg config) error {
	rec, err := loadRecorded()
	if err != nil {
		return err
	}
	cfg.seed = rec.Seed
	rec.Digests = map[string]map[string]string{}
	for _, w := range workloads {
		r, _, err := prepare(w, cfg)
		if err != nil {
			return err
		}
		digests := map[string]string{}
		for _, u := range iterate(r, nil) {
			if u.err != nil {
				return fmt.Errorf("%s: %s: %w", w.name, u.name, u.err)
			}
			digests[u.name] = u.digest
		}
		rec.Digests[w.name] = digests
		if pr, ok := r.(*paperRunner); ok {
			rec.PaperErrorPct, rec.PaperComparisons = paperError(pr.outcomes)
		}
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.root, "bench", "digests.json"), append(out, '\n'), 0o644)
}

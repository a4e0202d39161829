package pfsim

import "pfsim/internal/scenariofile"

// ScenarioFile is a parsed declarative scenario: platform selection, a
// fleet of workloads (hand-listed or generator-expanded), a timed
// fault/chaos timeline, and a self-checking assertion block. Files are
// YAML (a deterministic subset) or JSON; see the README's "Declarative
// scenarios" section for the schema.
type ScenarioFile = scenariofile.File

// ScenarioFileResult is the outcome of running a ScenarioFile: the
// simulation results plus the assertion verdict (Passed / Failures).
type ScenarioFileResult = scenariofile.Result

// LoadScenarioFile reads, parses and statically validates a scenario
// file. Malformed documents — unknown keys, negative or NaN event
// times, events past the horizon, health factors outside [0, 1] — are
// rejected here, before any simulation runs.
func LoadScenarioFile(path string) (*ScenarioFile, error) {
	return scenariofile.Load(path)
}

// ParseScenarioFile parses an in-memory scenario document; name labels
// the document in error messages.
func ParseScenarioFile(data []byte, name string) (*ScenarioFile, error) {
	return scenariofile.Parse(data, name)
}

// RunScenarioFile executes a declarative scenario file: the fleet is
// expanded and simulated with the fault timeline compiled onto engine
// hooks, solo baselines run when an assertion needs slowdown figures,
// and the assertion block is evaluated. The Runner's seed, context and
// parallelism apply: a monolithic file's contended run is one simulation
// on the calling goroutine, a sharded file's shards are one simulation
// each, and shards and solo baselines fan across the worker pool, with
// byte-identical results at any width. Whether baselines run is the
// file's choice (its `baselines` key, or automatically when an
// assertion reads slowdowns) — WithoutSlowdowns does not override it.
// An error means the file failed to validate or simulate; assertion
// failures are reported in the result, not as errors.
func (r *Runner) RunScenarioFile(f *ScenarioFile) (*ScenarioFileResult, error) {
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	return scenariofile.Run(f, r.runOptions())
}

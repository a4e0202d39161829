//go:build race

package pfsim

// raceEnabled reports whether the race detector instruments this build.
// TestWorkCounters skips under it (the instrumentation allocates), and so
// do the determinism rules' tests (see raceSkip).
const raceEnabled = true

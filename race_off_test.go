//go:build !race

package pfsim

// raceEnabled reports whether the race detector instruments this build;
// TestWorkCounters skips under it (the instrumentation allocates).
const raceEnabled = false

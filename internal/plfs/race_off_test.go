//go:build !race

package plfs

// raceEnabled reports whether the race detector instruments this build;
// allocation-count tests skip under it (the instrumentation allocates).
const raceEnabled = false

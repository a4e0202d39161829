//go:build !race

package ior_test

// raceEnabled reports whether the race detector instruments this build;
// allocation-count tests skip under it (the instrumentation allocates).
const raceEnabled = false

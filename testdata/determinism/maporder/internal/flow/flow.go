// Package flow holds maporder's cases, shaped like the simulator's
// packages: map ranges are flagged unless audited, and the non-map ranges
// the real code uses (slices, arrays of maps) stay silent. It also holds
// the directive cases.
package flow

import "sort"

type link struct{ name string }

type loadMap map[*link]float64

func sumLoads(loads map[*link]float64) float64 {
	total := 0.0
	for _, v := range loads { // want `range over map loads iterates in nondeterministic order`
		total += v
	}
	return total
}

func sumNamed(loads loadMap) float64 {
	total := 0.0
	for _, v := range loads { // want `range over map loads`
		total += v
	}
	return total
}

func sortedNames(loads map[string]float64) []string {
	names := make([]string, 0, len(loads))
	//pfsim:orderok — keys are collected then sorted before any use
	for name := range loads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func countJobs(classJobs [3]map[int]int) int {
	n := 0
	for c := range classJobs { // array range, not a map range
		n += len(classJobs[c])
	}
	return n
}

func slices(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func trailing(m map[int]int) int {
	n := 0
	for range m { //pfsim:orderok — pure cardinality count
		n++
	}
	return n
}

// A directive that suppresses nothing is a finding: a stale audit outlives
// the code it audited, and a misspelt one audits nothing.
func staleAudit(xs []int) int {
	n := 0
	//pfsim:orderok — a slice range needs no audit // want `//pfsim:orderok suppresses no finding`
	for range xs {
		n++
	}
	return n
}

func misspeltAudit(m map[int]int) int {
	n := 0
	//pfsim:ordreok — misspelt, so the range stays flagged // want `unknown directive //pfsim:ordreok`
	for range m { // want `range over map m`
		n++
	}
	return n
}

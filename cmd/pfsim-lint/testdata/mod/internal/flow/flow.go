// Package flow carries one deliberate violation per clock/map rule so
// the golden test pins pfsim-lint's output format and ordering.
package flow

import "time"

func slowest(loads map[string]float64) string {
	worst, at := 0.0, ""
	for name, v := range loads {
		if v > worst {
			worst, at = v, name
		}
	}
	_ = time.Now()
	return at
}

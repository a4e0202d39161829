// Package tool shows barego applies outside internal/ too: cmd tools
// must not detach goroutines nothing joins.
package tool

func progress(tick func()) {
	go tick() // want `bare go statement outside internal/pool escapes pool ownership`
}

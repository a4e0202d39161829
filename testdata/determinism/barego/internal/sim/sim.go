// Package sim holds one of barego's cases: the engine dispatches tasks
// inline and owns no goroutines, so a go statement here is flagged like
// anywhere else outside the pool.
package sim

func dispatch(body func()) {
	go body() // want `bare go statement outside internal/pool escapes pool ownership`
}

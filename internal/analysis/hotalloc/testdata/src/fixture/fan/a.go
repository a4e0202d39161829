// Package fan exercises closures handed to an executor: a function
// literal folds into its lexically enclosing declaration, so work
// dispatched through a worker-pool fan-out stays on the hot path
// even though the executor calls it through a plain func value.
package fan

var scratch []int

// fan is a minimal executor, calling fn through a func-typed value the
// graph cannot resolve.
func fan(workers int, fn func(worker int)) {
	for w := 0; w < workers; w++ {
		fn(w)
	}
}

// Flush fans work out — the closure bodies and everything they call
// stay on the hot path; the literal itself is an allocation.
//
//pfsim:hotpath
func Flush(items []int) {
	//pfsim:allocok audited fan-out closure: fixed per-flush floor
	fan(2, func(w int) {
		for range items {
			grow(w)
		}
	})
	fan(2, func(w int) { // want `function literal allocates a closure`
		_ = w
	})
}

// grow runs inside the (suppressed) closure: still hot.
func grow(w int) {
	scratch = append(scratch, w) // want `append may grow its backing array on the hot path \(reached from //pfsim:hotpath Flush\)`
}

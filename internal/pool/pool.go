// Package pool runs a batch of independent work items across a bounded
// set of workers. It is the execution substrate behind the public Runner:
// every item is an isolated single-threaded simulation, so fanning items
// over GOMAXPROCS cores changes wall-clock time but never results.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalises a requested parallelism: values below one select
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Progress wraps a (done, total) callback with a counter for use from
// pool workers. Each invocation of the returned func counts one completed
// item and reports it; the callback runs under the counter's lock, so
// calls are serialised and arrive in done order. A nil fn yields a no-op.
func Progress(total int, fn func(done, total int)) func() {
	if fn == nil {
		return func() {}
	}
	var mu sync.Mutex
	done := 0
	return func() {
		mu.Lock()
		defer mu.Unlock()
		done++
		fn(done, total)
	}
}

// Run executes fn(0), ..., fn(n-1) with at most workers goroutines in
// flight. Each item runs exactly once unless a context cancellation or an
// error at a lower index is observed first, in which case unstarted items
// are skipped. Run returns ctx.Err() if the context was cancelled,
// otherwise the lowest-index error, otherwise nil. A nil ctx never
// cancels. Items are claimed in index order and an error skips only
// higher indices, so every item below the lowest failing one runs: the
// error returned is the same at every width.
//
// Callers guarantee fn(i) touches only state owned by item i (or
// synchronises itself); under that contract the combined results are
// independent of workers, so parallel and serial runs are byte-identical.
func Run(ctx context.Context, workers, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if workers = Workers(workers); workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var lowest atomic.Int64 // the lowest failed index, n while none has
	lowest.Store(int64(n))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= lowest.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(int(i)); err != nil {
					errs[i] = err
					for l := lowest.Load(); i < l; l = lowest.Load() {
						if lowest.CompareAndSwap(l, i) {
							break
						}
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

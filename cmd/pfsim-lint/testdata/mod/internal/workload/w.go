// Package workload carries the goroutine violation for the golden test.
package workload

func launch(jobs []func()) {
	for _, j := range jobs {
		go j()
	}
}

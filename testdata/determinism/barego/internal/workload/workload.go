// Package workload holds barego's cases: goroutines spawned outside the
// pool are flagged unless audited.
package workload

func launch(jobs []func()) {
	for _, j := range jobs {
		go j() // want `bare go statement outside internal/pool escapes pool ownership`
	}
}

func spawnAudited(j func()) chan struct{} {
	done := make(chan struct{})
	//pfsim:goroutineok — joined by the caller via done before any sim state is read
	go func() {
		j()
		close(done)
	}()
	return done
}

// Package sim holds wallclock's cases: wall-clock reads and global RNG
// draws are flagged, explicitly seeded sources and pure time values are
// not.
package sim

import (
	"math/rand/v2"
	mrand "math/rand/v2"
	"time"
)

func clock() float64 {
	t := time.Now() // want `time.Now reads or waits on the wall clock`
	return float64(t.Unix())
}

func wait() {
	time.Sleep(time.Millisecond) // want `time.Sleep reads or waits on the wall clock`
}

func elapsed(since time.Time) time.Duration {
	return time.Since(since) // want `time.Since reads or waits on the wall clock`
}

func pureValues() time.Duration {
	// Duration arithmetic and epoch construction are pure values: legal.
	return 3 * time.Second
}

func globalDraw() float64 {
	return rand.Float64() // want `math/rand/v2.Float64 draws from the globally-seeded RNG`
}

func renamedDraw() int {
	return mrand.IntN(10) // want `math/rand/v2.IntN draws from the globally-seeded RNG`
}

func seeded(seed uint64) float64 {
	r := rand.New(rand.NewPCG(seed, seed^1)) // explicit source: legal
	return r.Float64()
}

func audited() int64 {
	//pfsim:wallclockok — coarse log timestamp, never reaches sim state
	return time.Now().UnixNano()
}

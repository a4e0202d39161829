// Package clean breaks no rule, though all three apply under internal/:
// it shows that silence is the default.
package clean

func Sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// Package other is outside internal/, where maporder does not apply: map
// ranges here are legal.
package other

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

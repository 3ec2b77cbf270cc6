//go:build !amd64

package vecmath

// Non-amd64 builds always take the pure-Go path; results are identical
// by construction, just without the 4-wide throughput.
const hasKernels = false

func jitterAccumRow4(acc, prof *float64, avg float64, n int, base uint64, t0 int, spill *int32) int {
	panic("unreachable")
}

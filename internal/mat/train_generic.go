//go:build !amd64

package mat

// Portable stubs: without the amd64 kernels the training loops run
// entirely scalar.

func simdRank1Into(dst, a, b []float64) int { return 0 }

func simdAdamInto(p, m, v, g []float64, c *AdamCoeffs) int { return 0 }

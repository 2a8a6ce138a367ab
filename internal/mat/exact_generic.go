//go:build !amd64

package mat

// Portable stubs: without the amd64 kernels every exact transcendental
// runs the scalar loops in fused.go.

func simdExpInto(dst, src []float64) int { return 0 }

func simdSigmoidInto(dst, src []float64) int { return 0 }

func simdTanhInto(dst, src []float64) int { return 0 }

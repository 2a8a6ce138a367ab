//go:build amd64

package mat

import "math"

// SIMD dispatch for the exact transcendental kernels (see exact_amd64.s):
// vector lanes of math.Exp's FMA path and of math.Tanh that agree with the
// standard library on every input bit for bit. They ride simdGEMMLevel —
// the same CPUID detection and AOVLIS_NOSIMD escape hatch as the forward
// GEMM — and additionally need exactFMA: math.Exp takes its FMA path only
// where its useFMA holds, so the kernels run only there (pinned by the
// parity tests in exact_amd64_test.go).

//go:noescape
func expAVX512(dst, src *float64, n int) int

//go:noescape
func expAVX2(dst, src *float64, n int) int

//go:noescape
func sigmoidAVX512(dst, src *float64, n int) int

//go:noescape
func sigmoidAVX2(dst, src *float64, n int) int

//go:noescape
func tanhAVX512(dst, src *float64, n int) int

//go:noescape
func tanhAVX2(dst, src *float64, n int) int

// exactKernel is the shape of the exact kernels: fill dst from src over
// whole vectors of n (a multiple of the width) and return how many
// elements were written before the end or the first vector holding a lane
// the kernel leaves to the scalar function.
type exactKernel func(dst, src *float64, n int) int

// exactFMA reports whether math.Exp runs the FMA path the kernels mirror.
// math decides with internal/cpu (AVX && FMA, which GODEBUG=cpu.fma=off
// or cpu.avx=off can veto), so besides the CPUID bits the kernel must
// agree with math.Exp on exactProbe, inputs where the two math.Exp paths
// round differently.
var exactFMA = detectExactFMA()

// exactProbe holds inputs on which archExp's FMA and non-FMA paths give
// different bits (TestExactFMADetection), eight so that one
// vector at either width covers a separating input.
var exactProbe = [8]float64{
	44.05090880450125, 7.067327607102257, 36.533501300156104, 43.2846428518434,
	23.023147729480826, 39.699195756187265, -17.791602947911827, -26.115929719468138,
}

func detectExactFMA() bool {
	level := detectCPULevel()
	if !cpuHasFMA() || level < 2 {
		return false
	}
	k := exactKernel(expAVX2)
	if level == 3 {
		k = expAVX512
	}
	var got [8]float64
	if k(&got[0], &exactProbe[0], len(exactProbe)) != len(exactProbe) {
		return false
	}
	for i, x := range exactProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// cpuHasFMA reports the FMA CPUID bit (CPUID.1:ECX[12]).
func cpuHasFMA() bool {
	_, _, c1, _ := cpuidex(1, 0)
	return c1&(1<<12) != 0
}

// simdExactInto runs the active exact kernel (k512 or k2) over the longest
// vector-width prefix of src, writing dst, and returns how many elements
// that is; every vector the kernel hands back is computed with scalar, the
// function the kernel reproduces. The caller finishes the tail.
func simdExactInto(dst, src []float64, k512, k2 exactKernel, scalar func(float64) float64) int {
	if !exactFMA {
		return 0
	}
	var k exactKernel
	var w int
	switch simdGEMMLevel {
	case 3:
		k, w = k512, 8
	case 2:
		k, w = k2, 4
	default:
		return 0
	}
	nv := len(src) &^ (w - 1)
	for i := 0; i < nv; {
		i += k(&dst[i], &src[i], nv-i)
		for end := min(i+w, nv); i < end; i++ {
			dst[i] = scalar(src[i])
		}
	}
	return nv
}

func simdExpInto(dst, src []float64) int {
	return simdExactInto(dst, src, expAVX512, expAVX2, math.Exp)
}

func simdSigmoidInto(dst, src []float64) int {
	return simdExactInto(dst, src, sigmoidAVX512, sigmoidAVX2, sigmoidScalar)
}

func simdTanhInto(dst, src []float64) int {
	return simdExactInto(dst, src, tanhAVX512, tanhAVX2, math.Tanh)
}

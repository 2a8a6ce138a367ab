package mat

import (
	"fmt"
	"math"
)

// HasSIMD reports whether a SIMD kernel level is active (AVX2 or AVX-512
// detected and AOVLIS_NOSIMD unset). Callers that must prepare an
// alternative operand layout for the vector kernels — the transposed
// weights nn.Binding keeps for the tape's backward GEMM — consult it so
// the scalar fallback pays for nothing it does not use.
func HasSIMD() bool { return simdGEMMLevel != 0 }

// AdamCoeffs are the per-step scalars of one Adam update, in the field
// order the SIMD kernels load them (train_amd64.s).
type AdamCoeffs struct {
	B1, C1   float64 // β1 and 1−β1
	B2, C2   float64 // β2 and 1−β2
	BC1, BC2 float64 // bias corrections 1−β1ᵗ and 1−β2ᵗ
	LR, Eps  float64
}

// AdamUpdateInto applies one Adam element update to every parameter p[i]
// with gradient g[i], first moment m[i] and second moment v[i]:
//
//	m ← B1·m + C1·g      v ← B2·v + (C2·g)·g
//	p ← p − (LR·(m/BC1)) / (√(v/BC2) + Eps)
//
// The vector kernels evaluate the same expression tree per element with
// separate multiply and add, correctly rounded division and square root,
// and no FMA, so the result is bit-identical to the scalar loop below,
// which finishes the sub-vector tail (and runs everything without SIMD).
func AdamUpdateInto(p, m, v, g []float64, c *AdamCoeffs) {
	if len(m) != len(p) || len(v) != len(p) || len(g) != len(p) {
		panic(fmt.Sprintf("mat: AdamUpdateInto length mismatch p %d, m %d, v %d, g %d", len(p), len(m), len(v), len(g)))
	}
	for i := simdAdamInto(p, m, v, g, c); i < len(p); i++ {
		gi := g[i]
		m[i] = c.B1*m[i] + c.C1*gi
		v[i] = c.B2*v[i] + c.C2*gi*gi
		mhat := m[i] / c.BC1
		vhat := v[i] / c.BC2
		p[i] -= c.LR * mhat / (math.Sqrt(vhat) + c.Eps)
	}
}

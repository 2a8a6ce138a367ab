//go:build amd64

package mat

// SIMD dispatch for the training kernels (see train_amd64.s). They ride
// simdGEMMLevel — the same CPUID detection and AOVLIS_NOSIMD escape hatch
// as the forward GEMM — and are bit-identical to the scalar loops they
// shorten (pinned by the parity tests in train_amd64_test.go).

//go:noescape
func rank1AVX512(dst, a, b *float64, nk, m int)

//go:noescape
func rank1AVX2(dst, a, b *float64, nk, m int)

//go:noescape
func adamAVX512(p, m, v, grad *float64, n int, c *AdamCoeffs)

//go:noescape
func adamAVX2(p, m, v, grad *float64, n int, c *AdamCoeffs)

// simdRank1Into runs dst[k][j] += a[k]*b[j] (dst is len(a)×len(b),
// skipping ±0 a[k]) over the leading columns the active vector width
// covers and returns how many columns that is; the caller finishes the
// rest with the scalar loop. It returns 0 when no SIMD level is active.
func simdRank1Into(dst, a, b []float64) int {
	var mAsm int
	switch simdGEMMLevel {
	case 3:
		mAsm = len(b) &^ 7
		if mAsm > 0 && len(a) > 0 {
			rank1AVX512(&dst[0], &a[0], &b[0], len(a), len(b))
		}
	case 2:
		mAsm = len(b) &^ 3
		if mAsm > 0 && len(a) > 0 {
			rank1AVX2(&dst[0], &a[0], &b[0], len(a), len(b))
		}
	}
	return mAsm
}

// simdAdamInto runs the vectorised Adam element update over the longest
// vector-width prefix of p and returns how many elements it handled.
func simdAdamInto(p, m, v, g []float64, c *AdamCoeffs) int {
	var nv int
	switch simdGEMMLevel {
	case 3:
		nv = len(p) &^ 7
		if nv > 0 {
			adamAVX512(&p[0], &m[0], &v[0], &g[0], nv, c)
		}
	case 2:
		nv = len(p) &^ 3
		if nv > 0 {
			adamAVX2(&p[0], &m[0], &v[0], &g[0], nv, c)
		}
	}
	return nv
}

//go:build amd64

package mat

// Parity tests for the training kernels: the AT rank-1 axpy, the BT
// product through the forward GEMM over a row-major Wᵀ, and the Adam
// element update must reproduce the scalar loops bit for bit — each
// vector kernel called directly at every SIMD level the CPU has, and the
// dispatching entry points run at every such level plus forced scalar.
// Widths sit at, just below and just above each block boundary (32/8 for
// AVX-512, 16/4 for AVX2) so every block size and every scalar tail runs;
// inputs carry ±0, and AT rows carry exact zeros so the zero-skip (which
// keeps −0 gradients −0) is exercised.

import (
	"math"
	"math/rand"
	"testing"
)

var trainWidths = []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 20, 23, 24, 25, 31, 32, 33, 39, 40, 41, 47, 48, 49, 63, 64, 65, 96, 97}

// simdLevels lists the kernel levels the CPU supports, scalar first.
func simdLevels() []int {
	levels := []int{0}
	if detectGEMMLevel() >= 2 {
		levels = append(levels, 2)
	}
	if detectGEMMLevel() >= 3 {
		levels = append(levels, 3)
	}
	return levels
}

// atLevel runs f with the dispatch level forced to level.
func atLevel(level int, f func()) {
	saved := simdGEMMLevel
	simdGEMMLevel = level
	defer func() { simdGEMMLevel = saved }()
	f()
}

// trainVector draws n values mixing normal draws with ±0, tiny (subnormal
// product range) and large magnitudes.
func trainVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(12) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		case 2:
			v[i] = rng.NormFloat64() * 1e-160
		case 3:
			v[i] = rng.NormFloat64() * 1e150
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// scalarATInto is the reference rank-1 loop of MatMulATInto.
func scalarATInto(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// scalarAdam is the reference Adam element loop, written the way the
// optimiser has always spelled it.
func scalarAdam(p, m, v, g []float64, beta1, beta2, lr, eps float64, t int) {
	bc1 := 1 - math.Pow(beta1, float64(t))
	bc2 := 1 - math.Pow(beta2, float64(t))
	for i := range p {
		gi := g[i]
		m[i] = beta1*m[i] + (1-beta1)*gi
		v[i] = beta2*v[i] + (1-beta2)*gi*gi
		mhat := m[i] / bc1
		vhat := v[i] / bc2
		p[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}

func adamCoeffs(beta1, beta2, lr, eps float64, t int) AdamCoeffs {
	return AdamCoeffs{
		B1: beta1, C1: 1 - beta1, B2: beta2, C2: 1 - beta2,
		BC1: 1 - math.Pow(beta1, float64(t)), BC2: 1 - math.Pow(beta2, float64(t)),
		LR: lr, Eps: eps,
	}
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s elem %d: got %v (%016X), scalar %v (%016X)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// atFixture draws an AT problem: a (rows×nk) with whole zero entries, b
// (rows×m), and a starting dst with −0 entries the zero-skip must keep.
func atFixture(rng *rand.Rand, rows, nk, m int) (dst, a, b *Matrix) {
	a = FromSlice(rows, nk, trainVector(rng, rows*nk))
	for i := range a.Data {
		if rng.Intn(3) == 0 {
			a.Data[i] = 0
		}
	}
	b = FromSlice(rows, m, trainVector(rng, rows*m))
	dst = FromSlice(nk, m, trainVector(rng, nk*m))
	for i := range dst.Data {
		if rng.Intn(4) == 0 {
			dst.Data[i] = math.Copysign(0, -1)
		}
	}
	return dst, a, b
}

func TestRank1KernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range trainWidths {
		for _, nk := range []int{1, 3, 17} {
			dst, a, b := atFixture(rng, 1, nk, m)
			want := dst.Clone()
			scalarATInto(want, a, b)
			if simdGEMMLevel >= 2 && m&^3 > 0 {
				got := dst.Clone()
				rank1AVX2(&got.Data[0], &a.Data[0], &b.Data[0], nk, m)
				for k := 0; k < nk; k++ {
					requireSameBits(t, "rank1AVX2", got.Row(k)[:m&^3], want.Row(k)[:m&^3])
					requireSameBits(t, "rank1AVX2 untouched tail", got.Row(k)[m&^3:], dst.Row(k)[m&^3:])
				}
			}
			if simdGEMMLevel >= 3 && m&^7 > 0 {
				got := dst.Clone()
				rank1AVX512(&got.Data[0], &a.Data[0], &b.Data[0], nk, m)
				for k := 0; k < nk; k++ {
					requireSameBits(t, "rank1AVX512", got.Row(k)[:m&^7], want.Row(k)[:m&^7])
					requireSameBits(t, "rank1AVX512 untouched tail", got.Row(k)[m&^7:], dst.Row(k)[m&^7:])
				}
			}
		}
	}
}

func TestMatMulATIntoMatchesScalarAtEveryLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, level := range simdLevels() {
		for _, m := range trainWidths {
			for _, rows := range []int{1, 2, 5} {
				dst, a, b := atFixture(rng, rows, 13, m)
				want := dst.Clone()
				scalarATInto(want, a, b)
				got := dst.Clone()
				atLevel(level, func() { MatMulATInto(got, a, b) })
				requireSameBits(t, "MatMulATInto", got.Data, want.Data)
			}
		}
	}
}

// TestBTViaTransposeMatchesScalar pins the tape's SIMD backward product
// dA += dOut·Bᵀ, computed as MatMulTo(s, dOut, Bᵀ) then AddInto(dA, s), to
// the scalar dot-product loop MatMulBTInto at every level — and the GEMM
// kernels over Bᵀ directly.
func TestBTViaTransposeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, level := range simdLevels() {
		for _, n := range trainWidths { // outputs per row = rows of B
			for _, k := range []int{1, 7, 32} { // inner dimension = cols of B
				for _, rows := range []int{1, 3} {
					a := FromSlice(rows, k, trainVector(rng, rows*k))
					b := FromSlice(n, k, trainVector(rng, n*k))
					bt := New(k, n)
					TransposeTo(bt, b)
					dst := FromSlice(rows, n, trainVector(rng, rows*n))
					want := dst.Clone()
					MatMulBTInto(want, a, b)

					got := dst.Clone()
					atLevel(level, func() {
						s := New(rows, n)
						MatMulTo(s, a, bt)
						AddInto(got, s)
					})
					requireSameBits(t, "BT via Wᵀ", got.Data, want.Data)
				}
			}
		}
	}
	for _, n := range trainWidths {
		a := FromSlice(2, 19, trainVector(rng, 2*19))
		b := FromSlice(n, 19, trainVector(rng, n*19))
		bt := New(19, n)
		TransposeTo(bt, b)
		want := New(2, n) // the bare per-output sums of MatMulBTInto's loop
		for l := 0; l < 2; l++ {
			for j := 0; j < n; j++ {
				var s float64
				for k, av := range a.Row(l) {
					s += av * b.At(j, k)
				}
				want.Set(l, j, s)
			}
		}
		if simdGEMMLevel >= 2 && n&^3 > 0 {
			got := make([]float64, 2*n)
			gemmRowMajorAVX2(&got[0], &a.Data[0], &bt.Data[0], 2, 19, n)
			for l := 0; l < 2; l++ {
				requireSameBits(t, "gemmRowMajorAVX2 over Wᵀ", got[l*n:l*n+n&^3], want.Row(l)[:n&^3])
			}
		}
		if simdGEMMLevel >= 3 && n&^7 > 0 {
			got := make([]float64, 2*n)
			gemmRowMajorAVX512(&got[0], &a.Data[0], &bt.Data[0], 2, 19, n)
			for l := 0; l < 2; l++ {
				requireSameBits(t, "gemmRowMajorAVX512 over Wᵀ", got[l*n:l*n+n&^7], want.Row(l)[:n&^7])
			}
		}
	}
}

// adamFixture draws one Adam state: parameters, moments (v ≥ 0, as Adam
// keeps it) and gradients, all with ±0 entries.
func adamFixture(rng *rand.Rand, n int) (p, m, v, g []float64) {
	p, m, g = trainVector(rng, n), trainVector(rng, n), trainVector(rng, n)
	v = trainVector(rng, n)
	for i := range v {
		if v[i] != 0 { // −0 stays: sqrt(−0) = −0 is still valid state
			v[i] = math.Abs(v[i])
		}
	}
	return p, m, v, g
}

func TestAdamKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range trainWidths {
		for _, step := range []int{1, 2, 1000} {
			p, m, v, g := adamFixture(rng, n)
			wp, wm, wv := clone3(p, m, v)
			scalarAdam(wp, wm, wv, g, 0.9, 0.999, 0.01, 1e-8, step)
			c := adamCoeffs(0.9, 0.999, 0.01, 1e-8, step)

			for _, level := range simdLevels() {
				gp, gm, gv := clone3(p, m, v)
				atLevel(level, func() { AdamUpdateInto(gp, gm, gv, g, &c) })
				requireSameBits(t, "AdamUpdateInto p", gp, wp)
				requireSameBits(t, "AdamUpdateInto m", gm, wm)
				requireSameBits(t, "AdamUpdateInto v", gv, wv)
			}
			if simdGEMMLevel >= 2 && n&^3 > 0 {
				nv := n &^ 3
				gp, gm, gv := clone3(p, m, v)
				adamAVX2(&gp[0], &gm[0], &gv[0], &g[0], nv, &c)
				requireSameBits(t, "adamAVX2 p", gp[:nv], wp[:nv])
				requireSameBits(t, "adamAVX2 m", gm[:nv], wm[:nv])
				requireSameBits(t, "adamAVX2 v", gv[:nv], wv[:nv])
				requireSameBits(t, "adamAVX2 untouched tail", gp[nv:], p[nv:])
			}
			if simdGEMMLevel >= 3 && n&^7 > 0 {
				nv := n &^ 7
				gp, gm, gv := clone3(p, m, v)
				adamAVX512(&gp[0], &gm[0], &gv[0], &g[0], nv, &c)
				requireSameBits(t, "adamAVX512 p", gp[:nv], wp[:nv])
				requireSameBits(t, "adamAVX512 m", gm[:nv], wm[:nv])
				requireSameBits(t, "adamAVX512 v", gv[:nv], wv[:nv])
				requireSameBits(t, "adamAVX512 untouched tail", gp[nv:], p[nv:])
			}
		}
	}
}

func clone3(a, b, c []float64) (x, y, z []float64) {
	return append([]float64(nil), a...), append([]float64(nil), b...), append([]float64(nil), c...)
}

// TestMatMulToMatchesScalarAtEveryLevel pins the tape's forward product —
// now dispatched to the SIMD GEMM — to the scalar loop, ±0 included.
func TestMatMulToMatchesScalarAtEveryLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, m := range trainWidths {
		for _, rows := range []int{1, 2, 3} {
			a := FromSlice(rows, 21, trainVector(rng, rows*21))
			b := FromSlice(21, m, trainVector(rng, 21*m))
			want := MatMul(a, b)
			for _, level := range simdLevels() {
				got := New(rows, m)
				got.Fill(math.NaN()) // MatMulTo must overwrite every element
				atLevel(level, func() { MatMulTo(got, a, b) })
				requireSameBits(t, "MatMulTo", got.Data, want.Data)
			}
		}
	}
}

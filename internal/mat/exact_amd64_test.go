//go:build amd64

package mat

// Parity tests for the exact transcendental kernels: every kernel, called
// directly at every vector level the CPU has, and every dispatcher
// (vecExpInto, VecSigmoidInto, VecTanhInto, LSTMGatesInto) at every level
// plus forced scalar, must reproduce math.Exp / math.Tanh bit for bit —
// over a seeded sweep of [−50, 50] and over the inputs where archExp and
// tanh.go change branch.

import (
	"math"
	"math/rand"
	"testing"
)

// Taylor coefficients of exp_amd64.s's exprodata, highest degree first,
// ending with ½ and 1.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
}

const (
	expLn2U     = 0.69314718055966295651160180568695068359375
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
)

// expPathRef transcribes archExp's normal path (finite x ≤ Overflow, k in
// [−1022, 1023]) into Go: with fma set, its useFMA branch through
// math.FMA (what the kernels vectorise); without, the SSE2 branch, where
// every multiply and add rounds separately.
func expPathRef(x float64, fma bool) float64 {
	k := math.RoundToEven(x * math.Log2E)
	var r float64
	if fma {
		r = math.FMA(-k, expLn2U, x)
		r = math.FMA(-k, expLn2L, r)
	} else {
		r = x - float64(k*expLn2U)
		r = r - float64(k*expLn2L)
	}
	r *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		if fma {
			p = math.FMA(p, r, c)
		} else {
			p = float64(p*r) + c
		}
	}
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	if fma {
		r = math.FMA(r+2, r, 1)
	} else {
		r = float64(r*(r+2)) + 1
	}
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// expRare reports whether archExp leaves its normal path on x: the lanes
// the kernels hand back to the scalar function.
func expRare(x float64) bool {
	if !(x <= expOverflow) || math.IsInf(x, -1) {
		return true
	}
	k := math.RoundToEven(x * math.Log2E)
	return k < -1022 || k > 1023
}

func sigmoidRare(x float64) bool { return expRare(-x) }

func tanhRare(x float64) bool { return math.IsNaN(x) }

// expEdges lists the inputs where archExp changes branch or rounds its
// exponent across a half-integer.
func expEdges() []float64 {
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7FF0000000000001),
		math.Float64frombits(0xFFF8000000000123),
		expOverflow, -708.4, -745.2, -708.39641853226410622, -708.3964185322641, -709.0895657128241,
		-744.4400719213812, -745.1332191019411, -745.1332191019412, 709.78, 709.436, 709.437,
		1, -1, 1e-300, -1e-300, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	}
	for _, x := range []float64{expOverflow, -708.4, -745.2, 709.436} {
		lo, hi := x, x
		for i := 0; i < 4; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			edges = append(edges, lo, hi)
		}
	}
	// x·log2e within an ULP of n+½: the exponent's round-to-nearest-even
	// decision, including k = −1022/−1023 and 1023/1024.
	halves := []int{-1024, -1023, -1022, -1021, 1021, 1022, 1023, 1024}
	for n := -1030; n <= 1030; n += 7 {
		halves = append(halves, n)
	}
	for _, n := range halves {
		x := (float64(n) + 0.5) / math.Log2E
		lo, hi := x, x
		edges = append(edges, x)
		for i := 0; i < 3; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			edges = append(edges, lo, hi)
		}
	}
	return edges
}

// tanhEdges adds tanh.go's branch points to the exp edges (halved, since
// tanh takes Exp(2|x|)).
func tanhEdges() []float64 {
	var edges []float64
	for _, x := range expEdges() {
		edges = append(edges, x, x/2, -x/2)
	}
	for _, x := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01, 20, 1e-8} {
		lo, hi := x, x
		edges = append(edges, x, -x)
		for i := 0; i < 4; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			edges = append(edges, lo, hi, -lo, -hi)
		}
	}
	return edges
}

// exactSweep is the seeded ≥10⁶-input sweep over [−50, 50] with the edges
// spliced in at every lane position.
func exactSweep(edges []float64) []float64 {
	rng := rand.New(rand.NewSource(16))
	v := make([]float64, 1<<20)
	for i := range v {
		v[i] = rng.Float64()*100 - 50
	}
	for i, x := range edges {
		v[(i*4099+i%8)%len(v)] = x
	}
	return append(v, edges...)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

type exactCase struct {
	name     string
	k512, k2 exactKernel
	dispatch func(dst, src []float64)
	ref      func(float64) float64
	rare     func(float64) bool
	edges    []float64
}

func exactCases() []exactCase {
	return []exactCase{
		{"exp", expAVX512, expAVX2, vecExpInto, math.Exp, expRare, expEdges()},
		{"sigmoid", sigmoidAVX512, sigmoidAVX2, VecSigmoidInto, sigmoidScalar, sigmoidRare, expEdges()},
		{"tanh", tanhAVX512, tanhAVX2, VecTanhInto, math.Tanh, tanhRare, tanhEdges()},
	}
}

// checkKernel calls k directly over src the way simdExactInto does and
// requires every element it wrote to match ref, every vector it handed
// back to hold a rare lane and to be left unwritten.
func checkKernel(t *testing.T, name string, k exactKernel, w int, src []float64, ref func(float64) float64, rare func(float64) bool) {
	t.Helper()
	nv := len(src) &^ (w - 1)
	dst := make([]float64, nv)
	const sentinel = 0x7FF4DEADBEEF0000
	for i := range dst {
		dst[i] = math.Float64frombits(sentinel)
	}
	bad, handed := 0, 0
	for i := 0; i < nv; {
		done := k(&dst[i], &src[i], nv-i)
		if done%w != 0 || done > nv-i {
			t.Fatalf("%s: kernel returned %d of %d (width %d)", name, done, nv-i, w)
		}
		for j := i; j < i+done; j++ {
			if !sameBits(dst[j], ref(src[j])) {
				if bad++; bad <= 5 {
					t.Errorf("%s(%v) [%016X] = %v [%016X], want %v [%016X]", name, src[j], math.Float64bits(src[j]),
						dst[j], math.Float64bits(dst[j]), ref(src[j]), math.Float64bits(ref(src[j])))
				}
			}
		}
		i += done
		if i == nv {
			break
		}
		handed++
		hasRare := false
		for j := i; j < i+w; j++ {
			hasRare = hasRare || rare(src[j])
			if math.Float64bits(dst[j]) != sentinel {
				t.Fatalf("%s: kernel stored the vector at %d it handed back", name, i)
			}
		}
		if !hasRare {
			t.Errorf("%s: kernel handed back the vector at %d with no rare lane: %v", name, i, src[i:i+w])
		}
		i += w
	}
	if bad > 0 {
		t.Fatalf("%s: %d of %d lanes differ", name, bad, nv)
	}
	if handed == 0 {
		t.Errorf("%s: the sweep's rare lanes never reached the scalar fallback", name)
	}
}

// directKernel is one exact kernel the CPU can run, with its width.
type directKernel struct {
	name string
	k    exactKernel
	w    int
}

// mathTakesFMAPath reports whether math.Exp agrees with the Go
// transcription of its FMA path on the probe inputs — decided without the
// kernels, so a kernel bug cannot switch its own parity tests off.
func mathTakesFMAPath() bool {
	for _, x := range exactProbe {
		if !sameBits(expPathRef(x, true), math.Exp(x)) {
			return false
		}
	}
	return true
}

// directKernels lists c's kernels the CPU can run directly: all of them
// wherever math.Exp takes the path they mirror.
func directKernels(c exactCase) []directKernel {
	var ks []directKernel
	if !cpuHasFMA() || !mathTakesFMAPath() {
		return ks
	}
	if detectCPULevel() >= 2 {
		ks = append(ks, directKernel{"avx2", c.k2, 4})
	}
	if detectCPULevel() >= 3 {
		ks = append(ks, directKernel{"avx512", c.k512, 8})
	}
	return ks
}

// checkDispatch runs the dispatcher at every level over src and over every
// short slice length around the vector widths, with a rare lane moved
// through every position.
func checkDispatch(t *testing.T, c exactCase, src []float64) {
	t.Helper()
	for _, level := range simdLevels() {
		atLevel(level, func() {
			dst := make([]float64, len(src))
			c.dispatch(dst, src)
			for i, x := range src {
				if !sameBits(dst[i], c.ref(x)) {
					t.Fatalf("%s dispatcher at level %d: f(%v) = %v, want %v", c.name, level, x, dst[i], c.ref(x))
				}
			}
			rareX := math.NaN()
			for n := 0; n <= 33; n++ {
				for pos := -1; pos < n; pos++ {
					in := append([]float64(nil), src[1000:1000+n]...)
					if pos >= 0 {
						in[pos] = rareX
					}
					out := make([]float64, n)
					c.dispatch(out, in)
					aliased := append([]float64(nil), in...)
					c.dispatch(aliased, aliased)
					for i, x := range in {
						if !sameBits(out[i], c.ref(x)) || !sameBits(aliased[i], c.ref(x)) {
							t.Fatalf("%s dispatcher at level %d, len %d, rare at %d: f(%v) = %v / %v in place, want %v",
								c.name, level, n, pos, x, out[i], aliased[i], c.ref(x))
						}
					}
				}
			}
		})
	}
}

// TestExpKernelsMatchMath pins the exp and sigmoid kernels (the sigmoid
// is 1/(1+Exp(−x))) and their dispatchers to math.Exp.
func TestExpKernelsMatchMath(t *testing.T) {
	for _, c := range exactCases()[:2] {
		src := exactSweep(c.edges)
		for _, dk := range directKernels(c) {
			checkKernel(t, c.name+"/"+dk.name, dk.k, dk.w, src, c.ref, c.rare)
		}
		checkDispatch(t, c, src)
	}
}

// TestTanhKernelsMatchMath pins the tanh kernels and VecTanhInto to
// math.Tanh.
func TestTanhKernelsMatchMath(t *testing.T) {
	c := exactCases()[2]
	src := exactSweep(c.edges)
	for _, dk := range directKernels(c) {
		checkKernel(t, c.name+"/"+dk.name, dk.k, dk.w, src, c.ref, c.rare)
	}
	checkDispatch(t, c, src)
}

// TestExpPathRefMatchesMath checks the Go transcription of archExp's FMA
// path — the algorithm the kernels vectorise — against math.Exp wherever
// math runs that path.
func TestExpPathRefMatchesMath(t *testing.T) {
	if !cpuHasFMA() || !mathTakesFMAPath() {
		t.Skip("math.Exp does not take its FMA path here")
	}
	for _, x := range exactSweep(expEdges()) {
		if expRare(x) {
			continue
		}
		if got, want := expPathRef(x, true), math.Exp(x); !sameBits(got, want) {
			t.Fatalf("FMA-path transcription(%v) = %v, math.Exp %v", x, got, want)
		}
	}
}

// TestExactFMADetection checks that every start-up probe input rounds
// differently on archExp's two paths, so a kernel that agrees with
// math.Exp on the probe proves math took the FMA path; and that the
// kernels are switched on wherever the CPU can run them and math takes
// that path — a start-up probe failing on a kernel bug would otherwise
// quietly fall back to the scalar loops.
func TestExactFMADetection(t *testing.T) {
	for _, x := range exactProbe {
		if expPathRef(x, true) == expPathRef(x, false) {
			t.Errorf("probe input %v gives the same bits on both exp paths", x)
		}
	}
	if want := cpuHasFMA() && detectCPULevel() >= 2 && mathTakesFMAPath(); exactFMA != want {
		t.Fatalf("exactFMA = %v, want %v (FMA bit %v, vector level %d, math.Exp on its FMA path %v)",
			exactFMA, want, cpuHasFMA(), detectCPULevel(), mathTakesFMAPath())
	}
}

// TestLSTMGatesExactAtEveryLevel requires the gate kernel to produce the
// same bits at every level as the scalar composition of math.Exp and
// math.Tanh, at hidden sizes on and off the vector widths.
func TestLSTMGatesExactAtEveryLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 4, 7, 8, 9, 12, 16, 31, 32, 33, 48, 64} {
		pre := make([]float64, 4*n)
		cPrev := make([]float64, n)
		for i := range pre {
			pre[i] = rng.NormFloat64() * 4
		}
		for i := range cPrev {
			cPrev[i] = rng.NormFloat64()
		}
		pre[rng.Intn(len(pre))] = 800 // an exp lane outside archExp's normal path
		wantH, wantC := make([]float64, n), make([]float64, n)
		for j := 0; j < n; j++ {
			ig, fg := sigmoidScalar(pre[j]), sigmoidScalar(pre[n+j])
			og := sigmoidScalar(pre[3*n+j])
			cn := float64(ig*math.Tanh(pre[2*n+j])) + float64(fg*cPrev[j])
			wantC[j], wantH[j] = cn, og*math.Tanh(cn)
		}
		for _, level := range simdLevels() {
			atLevel(level, func() {
				h, cNext := make([]float64, n), make([]float64, n)
				LSTMGatesInto(h, cNext, append([]float64(nil), pre...), cPrev)
				requireSameBits(t, "LSTMGatesInto h", h, wantH)
				requireSameBits(t, "LSTMGatesInto cNext", cNext, wantC)
			})
		}
	}
}

// FuzzExpTanhMatchMath differentially fuzzes the dispatchers (at every
// level) and the direct kernels against math over arbitrary float64 bit
// patterns, each placed in a vector lane and in the scalar tail. The seed
// corpus (testdata/fuzz/FuzzExpTanhMatchMath) holds the specials and the
// branch points.
func FuzzExpTanhMatchMath(f *testing.F) {
	cases := exactCases()
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		x := []float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d)}
		src := []float64{x[0], x[1], x[2], x[3], -x[0], -x[1], -x[2], -x[3], 0.5, x[0] / 2, x[1] * 2}
		for _, ec := range cases {
			for _, level := range simdLevels() {
				atLevel(level, func() {
					dst := make([]float64, len(src))
					ec.dispatch(dst, src)
					for i, v := range src {
						if !sameBits(dst[i], ec.ref(v)) {
							t.Fatalf("%s at level %d: f(%v [%016X]) = %v, want %v", ec.name, level, v, math.Float64bits(v), dst[i], ec.ref(v))
						}
					}
				})
			}
			for _, dk := range directKernels(ec) {
				dst := make([]float64, 8)
				done := dk.k(&dst[0], &src[0], 8)
				for i := 0; i < done; i++ {
					if !sameBits(dst[i], ec.ref(src[i])) {
						t.Fatalf("%s/%s: f(%v) = %v, want %v", ec.name, dk.name, src[i], dst[i], ec.ref(src[i]))
					}
				}
			}
		}
	})
}

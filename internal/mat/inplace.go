package mat

import (
	"fmt"
	"math"
)

// In-place variants of the allocating operations. Each XTo writes the full
// result into a caller-supplied destination of the right shape and performs
// exactly the same floating-point operations in the same order as its
// allocating counterpart, so results are bitwise identical (property-tested
// in mat_inplace_test.go). The autodiff tape pairs them with an Arena to
// keep the Observe/train hot path allocation-free.

func mustShape(op string, m *Matrix, rows, cols int) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("mat: %s destination is %dx%d, want %dx%d", op, m.Rows, m.Cols, rows, cols))
	}
}

// AddTo computes dst = a + b elementwise.
func AddTo(dst, a, b *Matrix) {
	mustSameShape("AddTo", a, b)
	mustShape("AddTo", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
}

// SubTo computes dst = a - b elementwise.
func SubTo(dst, a, b *Matrix) {
	mustSameShape("SubTo", a, b)
	mustShape("SubTo", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v - b.Data[i]
	}
}

// MulTo computes the Hadamard product dst = a ⊙ b.
func MulTo(dst, a, b *Matrix) {
	mustSameShape("MulTo", a, b)
	mustShape("MulTo", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
}

// ScaleTo computes dst = s * a.
func ScaleTo(dst *Matrix, s float64, a *Matrix) {
	mustShape("ScaleTo", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = s * v
	}
}

// ApplyTo computes dst = f(a) elementwise.
func ApplyTo(dst, a *Matrix, f func(float64) float64) {
	mustShape("ApplyTo", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = f(v)
	}
}

// MatMulTo computes dst = a · b, zeroing dst first. The accumulation order
// matches MatMul exactly. Like MatMul, the kernel is dense — the former
// zero-skip branch cost more on dense LSTM inputs than it saved (see
// BenchmarkMatMulZeroSkip) and skipping zeros never changed a bit.
//
// With a SIMD level active the forward GEMM kernel (gemm_amd64.s) runs
// instead: it computes every output as a zero-initialised accumulator
// summed over k in ascending order with separate multiply and add — the
// same sum as the scalar loop below, so the bits are the same.
func MatMulTo(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMulTo inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulTo", dst, a.Rows, b.Cols)
	if simdGEMMInto(dst.Data, a.Data, a.Rows, b) {
		return
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				// float64() forbids FMA contraction so this kernel and
				// the fused VecMatTTo round identically on every
				// platform, not just non-contracting amd64.
				orow[j] += float64(av * bv)
			}
		}
	}
}

// ConcatColsTo writes the column-wise concatenation [p₁ | p₂ | ...] into
// dst, which must have the summed column count.
func ConcatColsTo(dst *Matrix, parts ...*Matrix) {
	if len(parts) == 0 {
		panic("mat: ConcatColsTo needs at least one input")
	}
	rows, cols := parts[0].Rows, 0
	for _, p := range parts {
		if p.Rows != rows {
			panic(fmt.Sprintf("mat: ConcatColsTo row mismatch %d vs %d", rows, p.Rows))
		}
		cols += p.Cols
	}
	mustShape("ConcatColsTo", dst, rows, cols)
	off := 0
	for _, p := range parts {
		for i := 0; i < rows; i++ {
			copy(dst.Row(i)[off:off+p.Cols], p.Row(i))
		}
		off += p.Cols
	}
}

// SliceColsTo copies columns [from, to) of a into dst.
func SliceColsTo(dst, a *Matrix, from, to int) {
	if from < 0 || to > a.Cols || from >= to {
		panic(fmt.Sprintf("mat: SliceColsTo[%d:%d] of %d cols", from, to, a.Cols))
	}
	mustShape("SliceColsTo", dst, a.Rows, to-from)
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i), a.Row(i)[from:to])
	}
}

// TransposeTo computes dst = aᵀ. Four source rows are read together so
// every destination write fills four adjacent elements; the training tape
// re-transposes its weights once per optimiser step (nn.Binding).
func TransposeTo(dst, a *Matrix) {
	mustShape("TransposeTo", dst, a.Cols, a.Rows)
	r, c := a.Rows, a.Cols
	i := 0
	for ; i+4 <= r; i += 4 {
		a0 := a.Data[i*c : i*c+c]
		a1 := a.Data[(i+1)*c : (i+1)*c+c][:len(a0)]
		a2 := a.Data[(i+2)*c : (i+2)*c+c][:len(a0)]
		a3 := a.Data[(i+3)*c : (i+3)*c+c][:len(a0)]
		for j := range a0 {
			d := dst.Data[j*r+i : j*r+i+4]
			d[0], d[1], d[2], d[3] = a0[j], a1[j], a2[j], a3[j]
		}
	}
	for ; i < r; i++ {
		for j, v := range a.Data[i*c : i*c+c] {
			dst.Data[j*r+i] = v
		}
	}
}

// AddScaledInto computes dst += s * src elementwise — the fused form of
// AddInto(dst, Scale(s, src)) used by autodiff backward passes.
func AddScaledInto(dst *Matrix, s float64, src *Matrix) {
	mustSameShape("AddScaledInto", dst, src)
	for i, v := range src.Data {
		dst.Data[i] += s * v
	}
}

// AddMulInto computes dst += a ⊙ b elementwise — the fused form of
// AddInto(dst, Mul(a, b)) used by autodiff backward passes.
func AddMulInto(dst, a, b *Matrix) {
	mustSameShape("AddMulInto", a, b)
	mustSameShape("AddMulInto", dst, a)
	for i, v := range a.Data {
		dst.Data[i] += v * b.Data[i]
	}
}

// VecAddInto computes dst = a + b for plain slices.
func VecAddInto(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("mat: VecAddInto length mismatch %d/%d/%d", len(dst), len(a), len(b)))
	}
	for i := range a {
		dst[i] = a[i] + b[i]
	}
}

// VecSubInto computes dst = a - b for plain slices.
func VecSubInto(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("mat: VecSubInto length mismatch %d/%d/%d", len(dst), len(a), len(b)))
	}
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}

// VecScaleInto computes dst = s * a for plain slices.
func VecScaleInto(dst []float64, s float64, a []float64) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("mat: VecScaleInto length mismatch %d vs %d", len(dst), len(a)))
	}
	for i, v := range a {
		dst[i] = s * v
	}
}

// SoftmaxInto computes the softmax of a into dst with the same
// max-subtraction trick as Softmax.
func SoftmaxInto(dst, a []float64) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("mat: SoftmaxInto length mismatch %d vs %d", len(dst), len(a)))
	}
	if len(a) == 0 {
		return
	}
	m := a[0]
	for _, v := range a {
		if v > m {
			m = v
		}
	}
	var sum float64
	for i, v := range a {
		e := math.Exp(v - m)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

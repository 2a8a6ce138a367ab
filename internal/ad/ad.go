// Package ad implements a small tape-based reverse-mode automatic
// differentiation engine over dense matrices.
//
// The CLSTM model of the AOVLIS paper (and every baseline that needs
// training) is expressed as a forward computation over ad.Node values;
// gradients with respect to all Var leaves are then produced by a single
// Backward pass. The engine supports exactly the operators needed by the
// coupled-LSTM equations (Eq. 1-10 of the paper), the decoders, and the
// JS/KL/MSE reconstruction losses (Eq. 13).
//
// Usage:
//
//	tp := ad.NewTape()
//	w := tp.Var(weights)           // trainable leaf
//	x := tp.Const(input)           // non-trainable leaf
//	y := tp.Tanh(tp.MatMul(x, w))  // forward graph
//	loss := tp.Mean(tp.Square(y))
//	tp.Backward(loss)              // w.Grad now holds dLoss/dW
//
// # Reuse
//
// A tape owns a mat.Arena and recycles everything — node structs, value
// matrices, gradient matrices — across steps. Call Reset at the start of
// each training/inference step and re-record the forward pass; in steady
// state the whole forward+backward cycle performs zero heap allocations.
// Nodes and the matrices behind their Value/Grad fields are only valid
// until the next Reset: copy results out (or apply the optimiser update)
// before resetting. Parameter matrices passed to Var are caller-owned and
// never recycled. See ExampleTape_reuse for the full contract.
//
// A Tape is not safe for concurrent use; build (or confine) one per
// goroutine.
package ad

import (
	"fmt"
	"math"

	"aovlis/internal/mat"
)

// logEps guards Log against zero inputs; reconstruction features are
// probability vectors that may contain exact zeros.
const logEps = 1e-12

// opKind identifies the operator that produced a node; Backward dispatches
// on it instead of per-node closures so a reused tape records no new heap
// objects.
type opKind uint8

const (
	opLeaf opKind = iota
	opAdd
	opSub
	opMul
	opScale
	opMatMul
	opConcat
	opSlice
	opSigmoid
	opTanh
	opReLU
	opLog
	opSoftmax
	opSum
)

// Node is one vertex of the computation graph. Value is the forward result;
// Grad accumulates the derivative of the scalar output with respect to Value
// during Backward. Grad is nil for constants. Nodes are owned by their tape
// and recycled by Reset.
type Node struct {
	Value *mat.Matrix
	Grad  *mat.Matrix

	op   opKind
	a, b *Node       // unary/binary operands
	ps   []*Node     // ConcatCols operands (capacity reused across Reset)
	vt   *mat.Matrix // VarT: row-major transpose of Value
	s    float64     // Scale factor
	lo   int         // SliceCols bounds
	hi   int
	leaf bool
}

// IsLeaf reports whether the node was created by Var or Const.
func (n *Node) IsLeaf() bool { return n.leaf }

// Tape records the forward computation in execution order so Backward can
// replay it in reverse. A Tape is not safe for concurrent use; build one per
// goroutine, or reuse one across sequential steps via Reset.
type Tape struct {
	arena *mat.Arena
	nodes []*Node // node pool in recorded order; nodes[:used] are live
	used  int
}

// NewTape returns an empty tape with its own arena.
func NewTape() *Tape { return &Tape{arena: mat.NewArena()} }

// Reset reclaims every node and every arena-backed matrix recorded since
// the last Reset, making the tape ready to record a fresh step. All nodes
// previously returned by this tape (and their Value/Grad matrices, except
// caller-owned Var values) become invalid.
func (t *Tape) Reset() {
	t.used = 0
	t.arena.Reset()
}

// Arena exposes the tape's arena so model code can borrow step-scoped
// scratch matrices that share the tape's lifecycle.
func (t *Tape) Arena() *mat.Arena { return t.arena }

// Len returns the number of recorded nodes (useful for testing and for
// reasoning about graph size).
func (t *Tape) Len() int { return t.used }

// alloc returns a cleared node, recycling the pool before growing it.
func (t *Tape) alloc() *Node {
	var n *Node
	if t.used < len(t.nodes) {
		n = t.nodes[t.used]
		n.Value, n.Grad, n.a, n.b, n.vt = nil, nil, nil, nil, nil
		n.ps = n.ps[:0]
		n.s = 0
		n.lo, n.hi = 0, 0
		n.op, n.leaf = opLeaf, false
	} else {
		n = &Node{}
		t.nodes = append(t.nodes, n)
	}
	t.used++
	return n
}

// Var registers v as a trainable leaf. The matrix is NOT copied: the caller
// owns the storage (parameters update in place between steps). Grad is a
// fresh zeroed matrix from the tape's arena.
func (t *Tape) Var(v *mat.Matrix) *Node {
	n := t.alloc()
	n.leaf = true
	n.Value = v
	n.Grad = t.arena.Get(v.Rows, v.Cols)
	return n
}

// VarT is Var for a weight whose row-major transpose vt = vᵀ the caller
// keeps current (nil means none). Backward of a MatMul with this node as
// its right operand then computes dA += dOut·vᵀ as the forward product
// dOut·vt — through the SIMD GEMM kernel when one is active — plus one
// elementwise add: each output is the same zero-started, ascending-k sum
// the scalar dot-product loop forms, so the gradient bits are unchanged.
// vt must equal vᵀ whenever Backward runs.
func (t *Tape) VarT(v, vt *mat.Matrix) *Node {
	n := t.Var(v)
	n.vt = vt
	return n
}

// Const registers v as a non-trainable leaf. No gradient is accumulated.
func (t *Tape) Const(v *mat.Matrix) *Node {
	n := t.alloc()
	n.leaf = true
	n.Value = v
	return n
}

// ConstVector registers data as a non-trainable 1 × len(data) row-vector
// leaf without copying it and without allocating: the matrix header comes
// from the arena. This is how the model forward pass feeds per-segment
// features into the graph allocation-free.
func (t *Tape) ConstVector(data []float64) *Node {
	n := t.alloc()
	n.leaf = true
	n.Value = t.arena.Wrap(1, len(data), data)
	return n
}

// grad returns n.Grad, allocating it zeroed from the arena on first touch.
func (t *Tape) grad(n *Node) *mat.Matrix {
	if n.Grad == nil {
		n.Grad = t.arena.Get(n.Value.Rows, n.Value.Cols)
	}
	return n.Grad
}

// needsGrad reports whether gradient flow into n is useful.
func needsGrad(n *Node) bool { return !n.leaf || n.Grad != nil }

// Add returns a + b.
func (t *Tape) Add(a, b *Node) *Node {
	n := t.alloc()
	n.op, n.a, n.b = opAdd, a, b
	n.Value = t.arena.GetUninit(a.Value.Rows, a.Value.Cols)
	mat.AddTo(n.Value, a.Value, b.Value)
	return n
}

// Sub returns a - b.
func (t *Tape) Sub(a, b *Node) *Node {
	n := t.alloc()
	n.op, n.a, n.b = opSub, a, b
	n.Value = t.arena.GetUninit(a.Value.Rows, a.Value.Cols)
	mat.SubTo(n.Value, a.Value, b.Value)
	return n
}

// Mul returns the elementwise product a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	n := t.alloc()
	n.op, n.a, n.b = opMul, a, b
	n.Value = t.arena.GetUninit(a.Value.Rows, a.Value.Cols)
	mat.MulTo(n.Value, a.Value, b.Value)
	return n
}

// Scale returns s·a for a fixed scalar s.
func (t *Tape) Scale(s float64, a *Node) *Node {
	n := t.alloc()
	n.op, n.a, n.s = opScale, a, s
	n.Value = t.arena.GetUninit(a.Value.Rows, a.Value.Cols)
	mat.ScaleTo(n.Value, s, a.Value)
	return n
}

// MatMul returns the matrix product a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	n := t.alloc()
	n.op, n.a, n.b = opMatMul, a, b
	n.Value = t.arena.GetUninit(a.Value.Rows, b.Value.Cols)
	mat.MatMulTo(n.Value, a.Value, b.Value)
	return n
}

// ConcatCols returns the column-wise concatenation [a₁ | a₂ | ...]. All
// inputs must share the same number of rows. The coupled-LSTM gate input
// [h_{t-1}, g_{t-1}, f_t] is built with this operator.
func (t *Tape) ConcatCols(parts ...*Node) *Node {
	if len(parts) == 0 {
		panic("ad: ConcatCols needs at least one input")
	}
	n := t.alloc()
	n.op = opConcat
	n.ps = append(n.ps, parts...)
	rows, cols := parts[0].Value.Rows, 0
	for _, p := range parts {
		cols += p.Value.Cols
	}
	n.Value = t.arena.GetUninit(rows, cols)
	off := 0
	for _, p := range parts {
		if p.Value.Rows != rows {
			panic(fmt.Sprintf("ad: ConcatCols row mismatch %d vs %d", rows, p.Value.Rows))
		}
		for i := 0; i < rows; i++ {
			copy(n.Value.Row(i)[off:off+p.Value.Cols], p.Value.Row(i))
		}
		off += p.Value.Cols
	}
	return n
}

// SliceCols returns columns [from, to) of a as a new node.
func (t *Tape) SliceCols(a *Node, from, to int) *Node {
	if from < 0 || to > a.Value.Cols || from >= to {
		panic(fmt.Sprintf("ad: SliceCols[%d:%d] of %d cols", from, to, a.Value.Cols))
	}
	n := t.alloc()
	n.op, n.a, n.lo, n.hi = opSlice, a, from, to
	n.Value = t.arena.GetUninit(a.Value.Rows, to-from)
	mat.SliceColsTo(n.Value, a.Value, from, to)
	return n
}

// Sigmoid returns σ(a) elementwise.
func (t *Tape) Sigmoid(a *Node) *Node {
	n := t.alloc()
	n.op, n.a = opSigmoid, a
	n.Value = t.arena.GetUninit(a.Value.Rows, a.Value.Cols)
	mat.ApplyTo(n.Value, a.Value, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
	return n
}

// Tanh returns tanh(a) elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	n := t.alloc()
	n.op, n.a = opTanh, a
	n.Value = t.arena.GetUninit(a.Value.Rows, a.Value.Cols)
	mat.ApplyTo(n.Value, a.Value, math.Tanh)
	return n
}

// ReLU returns max(0, a) elementwise.
func (t *Tape) ReLU(a *Node) *Node {
	n := t.alloc()
	n.op, n.a = opReLU, a
	n.Value = t.arena.GetUninit(a.Value.Rows, a.Value.Cols)
	mat.ApplyTo(n.Value, a.Value, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
	return n
}

// Log returns ln(a + ε) elementwise, with ε guarding zero probabilities.
func (t *Tape) Log(a *Node) *Node {
	n := t.alloc()
	n.op, n.a = opLog, a
	n.Value = t.arena.GetUninit(a.Value.Rows, a.Value.Cols)
	mat.ApplyTo(n.Value, a.Value, func(x float64) float64 { return math.Log(x + logEps) })
	return n
}

// Square returns a ⊙ a.
func (t *Tape) Square(a *Node) *Node { return t.Mul(a, a) }

// Softmax returns the row-wise softmax of a. Decoder DeI uses it so the
// reconstructed action feature f̂ is a probability distribution, matching
// the paper's JS-divergence scoring domain.
func (t *Tape) Softmax(a *Node) *Node {
	n := t.alloc()
	n.op, n.a = opSoftmax, a
	n.Value = t.arena.GetUninit(a.Value.Rows, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		mat.SoftmaxInto(n.Value.Row(i), a.Value.Row(i))
	}
	return n
}

// Sum reduces a to a 1x1 node holding the sum of all elements.
func (t *Tape) Sum(a *Node) *Node {
	n := t.alloc()
	n.op, n.a = opSum, a
	n.Value = t.arena.GetUninit(1, 1)
	n.Value.Data[0] = mat.Sum(a.Value)
	return n
}

// Mean reduces a to a 1x1 node holding the arithmetic mean of all elements.
func (t *Tape) Mean(a *Node) *Node {
	n := float64(len(a.Value.Data))
	if n == 0 {
		panic("ad: Mean of empty matrix")
	}
	return t.Scale(1/n, t.Sum(a))
}

// backstep propagates n's gradient into its operands. The arithmetic is the
// fused equivalent of the original closure implementations: every operand
// update performs the same floating-point operations in the same order, so
// gradients are bitwise identical to the pre-opcode engine.
func (t *Tape) backstep(n *Node) {
	g := n.Grad
	switch n.op {
	case opAdd:
		if needsGrad(n.a) {
			mat.AddInto(t.grad(n.a), g)
		}
		if needsGrad(n.b) {
			mat.AddInto(t.grad(n.b), g)
		}
	case opSub:
		if needsGrad(n.a) {
			mat.AddInto(t.grad(n.a), g)
		}
		if needsGrad(n.b) {
			mat.AddScaledInto(t.grad(n.b), -1, g)
		}
	case opMul:
		if needsGrad(n.a) {
			mat.AddMulInto(t.grad(n.a), g, n.b.Value)
		}
		if needsGrad(n.b) {
			mat.AddMulInto(t.grad(n.b), g, n.a.Value)
		}
	case opScale:
		if needsGrad(n.a) {
			mat.AddScaledInto(t.grad(n.a), n.s, g)
		}
	case opMatMul:
		// dL/dA = dL/dOut · Bᵀ ; dL/dB = Aᵀ · dL/dOut
		if needsGrad(n.a) {
			if bt := n.b.vt; bt != nil {
				s := t.arena.GetUninit(g.Rows, bt.Cols)
				mat.MatMulTo(s, g, bt)
				mat.AddInto(t.grad(n.a), s)
			} else {
				mat.MatMulBTInto(t.grad(n.a), g, n.b.Value)
			}
		}
		if needsGrad(n.b) {
			mat.MatMulATInto(t.grad(n.b), n.a.Value, g)
		}
	case opConcat:
		off := 0
		for _, p := range n.ps {
			w := p.Value.Cols
			if needsGrad(p) {
				pg := t.grad(p)
				for i := 0; i < p.Value.Rows; i++ {
					prow := pg.Row(i)
					for j, v := range g.Row(i)[off : off+w] {
						prow[j] += v
					}
				}
			}
			off += w
		}
	case opSlice:
		if needsGrad(n.a) {
			ag := t.grad(n.a)
			for i := 0; i < n.Value.Rows; i++ {
				arow := ag.Row(i)[n.lo:n.hi]
				for j, v := range g.Row(i) {
					arow[j] += v
				}
			}
		}
	case opSigmoid:
		if needsGrad(n.a) {
			ag := t.grad(n.a)
			for i, s := range n.Value.Data {
				ag.Data[i] += g.Data[i] * s * (1 - s)
			}
		}
	case opTanh:
		if needsGrad(n.a) {
			ag := t.grad(n.a)
			for i, th := range n.Value.Data {
				ag.Data[i] += g.Data[i] * (1 - th*th)
			}
		}
	case opReLU:
		if needsGrad(n.a) {
			ag := t.grad(n.a)
			for i := range n.Value.Data {
				if n.a.Value.Data[i] > 0 {
					ag.Data[i] += g.Data[i]
				}
			}
		}
	case opLog:
		if needsGrad(n.a) {
			ag := t.grad(n.a)
			for i, x := range n.a.Value.Data {
				ag.Data[i] += g.Data[i] / (x + logEps)
			}
		}
	case opSoftmax:
		if needsGrad(n.a) {
			ag := t.grad(n.a)
			for i := 0; i < n.Value.Rows; i++ {
				srow, grow, orow := n.Value.Row(i), ag.Row(i), g.Row(i)
				var dot float64
				for j, s := range srow {
					dot += orow[j] * s
				}
				for j, s := range srow {
					grow[j] += s * (orow[j] - dot)
				}
			}
		}
	case opSum:
		if needsGrad(n.a) {
			ag := t.grad(n.a)
			g0 := g.Data[0]
			for i := range ag.Data {
				ag.Data[i] += g0
			}
		}
	}
}

// Backward runs reverse-mode differentiation from out, which must be a 1x1
// scalar node recorded on this tape. After it returns, every Var leaf's Grad
// holds d(out)/d(leaf).
func (t *Tape) Backward(out *Node) {
	if out.Value.Rows != 1 || out.Value.Cols != 1 {
		panic(fmt.Sprintf("ad: Backward requires scalar output, got %dx%d", out.Value.Rows, out.Value.Cols))
	}
	if out.Grad == nil {
		out.Grad = t.arena.Get(1, 1)
	}
	out.Grad.Data[0] = 1
	for i := t.used - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.op != opLeaf && n.Grad != nil {
			t.backstep(n)
		}
	}
}

// Scalar returns the single element of a 1x1 node.
func Scalar(n *Node) float64 {
	if n.Value.Rows != 1 || n.Value.Cols != 1 {
		panic(fmt.Sprintf("ad: Scalar of %dx%d node", n.Value.Rows, n.Value.Cols))
	}
	return n.Value.Data[0]
}

// Package nn is the neural-network substrate for the AOVLIS reproduction.
//
// It provides named parameter sets, initialisers, an Adam optimiser
// (the optimiser the paper uses for CLSTM training), gradient clipping,
// dense layers, a generic LSTM cell whose gate context is supplied by the
// caller (which is what makes the coupled CLSTM of the paper expressible:
// the context of LSTM_I at time t is [h_{t-1}, g_{t-1}, f_t] and that of
// LSTM_A is [h_{t-1}, g_{t-1}, a_t]), and the three reconstruction losses
// compared in Table I of the paper (L2/MSE, KL, JS).
package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"aovlis/internal/ad"
	"aovlis/internal/mat"
)

// ParamSet is an ordered collection of named trainable matrices. Parameters
// are owned by the set and updated in place by the optimiser; forward passes
// bind them to a fresh autodiff tape per step.
type ParamSet struct {
	names []string
	vals  map[string]*mat.Matrix
	// version counts bulk mutations (optimiser steps, CopyFrom, Average,
	// Load); compiled inference plans compare it to detect staleness.
	version uint64
}

// Version returns the mutation counter. Every API that rewrites parameter
// values (Adam.Step, CopyFrom, Average, Load) increments it, so a consumer
// holding a compiled snapshot of the parameters — core.InferPlan — can
// detect staleness with one integer compare on the hot path.
func (ps *ParamSet) Version() uint64 { return ps.version }

// BumpVersion marks the parameters as mutated. Callers that write to a
// parameter's Data directly (outside the Adam/CopyFrom/Average/Load APIs)
// must call it, or compiled inference plans will keep serving stale
// weights.
func (ps *ParamSet) BumpVersion() { ps.version++ }

// NewParamSet returns an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{vals: make(map[string]*mat.Matrix)}
}

// Add registers a parameter matrix under name. Re-registering a name panics:
// model wiring bugs must fail loudly.
func (ps *ParamSet) Add(name string, m *mat.Matrix) *mat.Matrix {
	if _, ok := ps.vals[name]; ok {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	ps.names = append(ps.names, name)
	ps.vals[name] = m
	return m
}

// Get returns the parameter registered under name, panicking if absent.
func (ps *ParamSet) Get(name string) *mat.Matrix {
	m, ok := ps.vals[name]
	if !ok {
		panic(fmt.Sprintf("nn: unknown parameter %q", name))
	}
	return m
}

// Has reports whether name is registered.
func (ps *ParamSet) Has(name string) bool {
	_, ok := ps.vals[name]
	return ok
}

// Names returns the parameter names in registration order.
func (ps *ParamSet) Names() []string {
	out := make([]string, len(ps.names))
	copy(out, ps.names)
	return out
}

// NumParams returns the total number of scalar parameters, reported the way
// the paper reports its model size (1,382,713 parameters for the full-scale
// CLSTM configuration).
func (ps *ParamSet) NumParams() int {
	n := 0
	for _, m := range ps.vals {
		n += len(m.Data)
	}
	return n
}

// Clone returns a deep copy of the parameter set.
func (ps *ParamSet) Clone() *ParamSet {
	out := NewParamSet()
	for _, n := range ps.names {
		out.Add(n, ps.vals[n].Clone())
	}
	return out
}

// CopyFrom overwrites every parameter in ps with the values from src, which
// must contain an identically-shaped parameter for every name in ps.
func (ps *ParamSet) CopyFrom(src *ParamSet) error {
	// Bump before mutating: an error below may leave earlier parameters
	// already overwritten, and a compiled inference plan must never treat
	// partially-mutated weights as current.
	ps.BumpVersion()
	for _, n := range ps.names {
		sm, ok := src.vals[n]
		if !ok {
			return fmt.Errorf("nn: CopyFrom missing parameter %q", n)
		}
		dm := ps.vals[n]
		if !mat.SameShape(dm, sm) {
			return fmt.Errorf("nn: CopyFrom shape mismatch for %q: %dx%d vs %dx%d",
				n, dm.Rows, dm.Cols, sm.Rows, sm.Cols)
		}
		copy(dm.Data, sm.Data)
	}
	return nil
}

// Average overwrites ps in place with the weighted average
// w·ps + (1−w)·other. It is the parameter-merge primitive used by the
// dynamic-update algorithm (Fig. 5 line 12: merge(CLSTM_new, CLSTM_{t-1})).
func (ps *ParamSet) Average(other *ParamSet, w float64) error {
	ps.BumpVersion() // before mutating: see CopyFrom
	for _, n := range ps.names {
		om, ok := other.vals[n]
		if !ok {
			return fmt.Errorf("nn: Average missing parameter %q", n)
		}
		dm := ps.vals[n]
		if !mat.SameShape(dm, om) {
			return fmt.Errorf("nn: Average shape mismatch for %q", n)
		}
		for i := range dm.Data {
			dm.Data[i] = w*dm.Data[i] + (1-w)*om.Data[i]
		}
	}
	return nil
}

// Binding associates a ParamSet with autodiff Var nodes on one tape.
type Binding struct {
	ps    *ParamSet
	tape  *ad.Tape
	nodes map[string]*ad.Node

	// wt holds, parallel to ps.names, the row-major transpose of every
	// weight matrix (nil for row vectors such as biases) for the SIMD
	// backward GEMM dInput += dOut·Wᵀ (see ad.Tape.VarT). It is allocated
	// on the first RebindForBackward and re-taken whenever the ParamSet
	// version moved since wtVersion. The transposes belong to this
	// binding, so a model and its Clone never share them, and a model
	// that never trains never pays for them.
	wt        []*mat.Matrix
	wtVersion uint64
}

// Bind creates a Var node for every parameter on tp.
func (ps *ParamSet) Bind(tp *ad.Tape) *Binding {
	b := &Binding{ps: ps, tape: tp, nodes: make(map[string]*ad.Node, len(ps.names))}
	b.Rebind()
	return b
}

// Rebind re-registers every parameter as a fresh Var on the binding's tape.
// Call it after Tape.Reset to reuse one binding across training/inference
// steps: the node map is updated in place (same keys), so a steady-state
// rebind performs no heap allocations.
func (b *Binding) Rebind() {
	for _, n := range b.ps.names {
		b.nodes[n] = b.tape.Var(b.ps.vals[n])
	}
}

// RebindForBackward is Rebind for a pass that will run Backward. With a
// SIMD level active it also hands the tape each weight's transpose, so
// the backward GEMMs run vectorised; the transposes are re-taken only when
// the ParamSet version moved since the last call — once per optimiser
// step during training. Gradients are bit-identical either way. In steady
// state it performs no heap allocations.
func (b *Binding) RebindForBackward() {
	if !mat.HasSIMD() {
		b.Rebind()
		return
	}
	b.refreshTransposes()
	for i, n := range b.ps.names {
		b.nodes[n] = b.tape.VarT(b.ps.vals[n], b.wt[i])
	}
}

// refreshTransposes brings wt up to date with the current parameter values
// when the ParamSet version (or its parameter list) changed.
func (b *Binding) refreshTransposes() {
	if len(b.wt) != len(b.ps.names) {
		b.wt = make([]*mat.Matrix, len(b.ps.names))
		for i, n := range b.ps.names {
			if v := b.ps.vals[n]; v.Rows > 1 {
				b.wt[i] = mat.New(v.Cols, v.Rows)
			}
		}
	} else if b.wtVersion == b.ps.version {
		return
	}
	for i, n := range b.ps.names {
		if wt := b.wt[i]; wt != nil {
			mat.TransposeTo(wt, b.ps.vals[n])
		}
	}
	b.wtVersion = b.ps.version
}

// Node returns the bound Var for name.
func (b *Binding) Node(name string) *ad.Node {
	n, ok := b.nodes[name]
	if !ok {
		panic(fmt.Sprintf("nn: binding has no parameter %q", name))
	}
	return n
}

// Tape returns the tape this binding records onto.
func (b *Binding) Tape() *ad.Tape { return b.tape }

// Grads returns the gradient matrix of every bound parameter after Backward.
func (b *Binding) Grads() map[string]*mat.Matrix {
	return b.GradsInto(make(map[string]*mat.Matrix, len(b.nodes)))
}

// GradsInto fills dst with the gradient matrix of every bound parameter and
// returns it. Reusing one map across steps keeps the optimiser hand-off
// allocation-free; the gradient matrices themselves are tape-owned and only
// valid until the tape's next Reset.
func (b *Binding) GradsInto(dst map[string]*mat.Matrix) map[string]*mat.Matrix {
	for name, node := range b.nodes {
		dst[name] = node.Grad
	}
	return dst
}

// --- Initialisers ---

// XavierInit fills m with the Glorot/Xavier uniform distribution for a layer
// with the given fan-in and fan-out.
func XavierInit(m *mat.Matrix, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// ConstInit fills m with v.
func ConstInit(m *mat.Matrix, v float64) { m.Fill(v) }

// --- Optimiser ---

// Adam implements the Adam optimiser with bias correction, matching the
// paper's training setup (learning rate 0.001).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// ClipNorm, when positive, rescales the global gradient norm to at most
	// this value before the update (standard LSTM training stabiliser).
	ClipNorm float64

	t int
	m map[string]*mat.Matrix
	v map[string]*mat.Matrix
}

// NewAdam returns an Adam optimiser with the paper's defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5,
		m: make(map[string]*mat.Matrix), v: make(map[string]*mat.Matrix),
	}
}

// Step applies one Adam update to ps given gradients keyed by parameter name.
// Missing or nil gradients are skipped (parameters unused in this step).
func (a *Adam) Step(ps *ParamSet, grads map[string]*mat.Matrix) {
	ps.BumpVersion()
	if a.ClipNorm > 0 {
		clipGlobalNorm(ps.names, grads, a.ClipNorm)
	}
	a.t++
	c := mat.AdamCoeffs{
		B1: a.Beta1, C1: 1 - a.Beta1,
		B2: a.Beta2, C2: 1 - a.Beta2,
		BC1: 1 - math.Pow(a.Beta1, float64(a.t)),
		BC2: 1 - math.Pow(a.Beta2, float64(a.t)),
		LR:  a.LR, Eps: a.Eps,
	}
	for _, name := range ps.names {
		g := grads[name]
		if g == nil {
			continue
		}
		p := ps.vals[name]
		mv, ok := a.m[name]
		if !ok {
			mv = mat.New(p.Rows, p.Cols)
			a.m[name] = mv
			a.v[name] = mat.New(p.Rows, p.Cols)
		}
		mat.AdamUpdateInto(p.Data, mv.Data, a.v[name].Data, g.Data, &c)
	}
}

// Reset clears optimiser state (moments and step count).
func (a *Adam) Reset() {
	a.t = 0
	a.m = make(map[string]*mat.Matrix)
	a.v = make(map[string]*mat.Matrix)
}

// adamWire is the gob wire format for Adam state. Moment matrices are
// written in sorted-name order, like paramsWire, so the encoding is
// deterministic.
type adamWire struct {
	LR, Beta1, Beta2, Eps, ClipNorm float64
	T                               int
	Names                           []string
	Rows, Cols                      []int
	M, V                            [][]float64
}

// Save writes the optimiser's hyperparameters, step count and first/second
// moment estimates to w in a stable, self-describing format. Together with
// ParamSet.Save this captures everything needed to resume training with
// bit-identical updates.
func (a *Adam) Save(w io.Writer) error {
	wire := adamWire{LR: a.LR, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps, ClipNorm: a.ClipNorm, T: a.t}
	names := make([]string, 0, len(a.m))
	for n := range a.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := a.m[n]
		wire.Names = append(wire.Names, n)
		wire.Rows = append(wire.Rows, m.Rows)
		wire.Cols = append(wire.Cols, m.Cols)
		wire.M = append(wire.M, append([]float64(nil), m.Data...))
		wire.V = append(wire.V, append([]float64(nil), a.v[n].Data...))
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("nn: encoding optimiser state: %w", err)
	}
	return nil
}

// Load replaces the optimiser's state with one previously written by Save.
func (a *Adam) Load(r io.Reader) error {
	var wire adamWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return fmt.Errorf("nn: decoding optimiser state: %w", err)
	}
	if len(wire.M) != len(wire.Names) || len(wire.V) != len(wire.Names) ||
		len(wire.Rows) != len(wire.Names) || len(wire.Cols) != len(wire.Names) {
		return fmt.Errorf("nn: optimiser state arrays disagree on parameter count")
	}
	a.LR, a.Beta1, a.Beta2, a.Eps, a.ClipNorm = wire.LR, wire.Beta1, wire.Beta2, wire.Eps, wire.ClipNorm
	a.t = wire.T
	a.m = make(map[string]*mat.Matrix, len(wire.Names))
	a.v = make(map[string]*mat.Matrix, len(wire.Names))
	for i, n := range wire.Names {
		rows, cols := wire.Rows[i], wire.Cols[i]
		if rows < 0 || cols < 0 || rows*cols != len(wire.M[i]) || rows*cols != len(wire.V[i]) {
			return fmt.Errorf("nn: optimiser moment %q has %d/%d values, shape %dx%d", n, len(wire.M[i]), len(wire.V[i]), rows, cols)
		}
		mm := mat.New(rows, cols)
		copy(mm.Data, wire.M[i])
		vv := mat.New(rows, cols)
		copy(vv.Data, wire.V[i])
		a.m[n] = mm
		a.v[n] = vv
	}
	return nil
}

// CheckShapes verifies that every loaded moment estimate belongs to a
// parameter of ps with the identical shape. Restore paths call it after
// Load: a snapshot whose optimiser state disagrees with the model must be
// rejected up front, not panic later inside Step. Parameters without
// moments are fine (they have simply never been stepped).
func (a *Adam) CheckShapes(ps *ParamSet) error {
	for n, m := range a.m {
		if !ps.Has(n) {
			return fmt.Errorf("nn: optimiser moment %q has no matching model parameter", n)
		}
		p := ps.Get(n)
		if !mat.SameShape(p, m) {
			return fmt.Errorf("nn: optimiser moment %q is %dx%d, parameter is %dx%d",
				n, m.Rows, m.Cols, p.Rows, p.Cols)
		}
	}
	return nil
}

// clipGlobalNorm rescales the gradients so their global norm is at most
// maxNorm. It walks names (registration order) rather than ranging over the
// map: float addition is not associative, so a randomized map order would
// make the norm — and therefore training — differ in the last bits from run
// to run.
func clipGlobalNorm(names []string, grads map[string]*mat.Matrix, maxNorm float64) {
	var total float64
	for _, n := range names {
		if g := grads[n]; g != nil {
			total += mat.Dot(g, g)
		}
	}
	norm := math.Sqrt(total)
	if norm <= maxNorm || norm == 0 {
		return
	}
	s := maxNorm / norm
	for _, n := range names {
		if g := grads[n]; g != nil {
			for i := range g.Data {
				g.Data[i] *= s
			}
		}
	}
}

// --- Layers ---

// Activation selects the nonlinearity applied by a Dense layer.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	SigmoidAct
	TanhAct
	ReLUAct
	SoftmaxAct
)

// Dense is a fully-connected layer y = act(x·W + b).
type Dense struct {
	Name    string
	In, Out int
	Act     Activation

	// wName/bName cache the parameter keys so Apply does not concatenate
	// strings (and therefore allocate) on the hot path.
	wName, bName string
}

// NewDense registers the layer's parameters in ps and returns the layer.
func NewDense(ps *ParamSet, name string, in, out int, act Activation, rng *rand.Rand) *Dense {
	w := mat.New(in, out)
	XavierInit(w, in, out, rng)
	ps.Add(name+".W", w)
	ps.Add(name+".b", mat.New(1, out))
	return &Dense{Name: name, In: in, Out: out, Act: act, wName: name + ".W", bName: name + ".b"}
}

// Apply runs the layer on x using parameters bound in b.
func (d *Dense) Apply(b *Binding, x *ad.Node) *ad.Node {
	tp := b.Tape()
	z := tp.Add(tp.MatMul(x, b.Node(d.wName)), b.Node(d.bName))
	switch d.Act {
	case Linear:
		return z
	case SigmoidAct:
		return tp.Sigmoid(z)
	case TanhAct:
		return tp.Tanh(z)
	case ReLUAct:
		return tp.ReLU(z)
	case SoftmaxAct:
		return tp.Softmax(z)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", d.Act))
	}
}

// LSTMCell is an LSTM whose gate context vector is supplied by the caller.
// For a classic LSTM the context is [h_{t-1}, x_t]; for the paper's coupled
// CLSTM the context of each layer is [h_{t-1}, g_{t-1}, input_t] (Eq. 1-10),
// so the same cell implementation serves both by varying CtxDim.
type LSTMCell struct {
	Name   string
	CtxDim int // dimension of the concatenated gate context
	Hidden int

	// wNames/bNames cache the gate parameter keys (order i, f, c, o) so
	// Step does not concatenate strings on the hot path.
	wNames, bNames [4]string
}

// gateOrder fixes the registration and lookup order of the LSTM gates.
var gateOrder = [4]string{"i", "f", "c", "o"}

// NewLSTMCell registers the four gate weight matrices and biases in ps.
// The forget-gate bias is initialised to 1 (standard remember-by-default
// trick) and all weights use Xavier initialisation.
func NewLSTMCell(ps *ParamSet, name string, ctxDim, hidden int, rng *rand.Rand) *LSTMCell {
	c := &LSTMCell{Name: name, CtxDim: ctxDim, Hidden: hidden}
	c.cacheNames()
	for gi, gate := range gateOrder {
		w := mat.New(ctxDim, hidden)
		XavierInit(w, ctxDim, hidden, rng)
		ps.Add(c.wNames[gi], w)
		b := mat.New(1, hidden)
		if gate == "f" {
			ConstInit(b, 1)
		}
		ps.Add(c.bNames[gi], b)
	}
	return c
}

func (c *LSTMCell) cacheNames() {
	for gi, gate := range gateOrder {
		c.wNames[gi] = fmt.Sprintf("%s.W%s", c.Name, gate)
		c.bNames[gi] = fmt.Sprintf("%s.b%s", c.Name, gate)
	}
}

// Step performs one LSTM step (Eq. 1-4 / 6-9 of the paper):
//
//	IG = σ(ctx·Wi + bi)   FG = σ(ctx·Wf + bf)
//	Ĉ  = tanh(ctx·Wc+bc)  C  = IG⊙Ĉ + FG⊙C_{t-1}
//	OG = σ(ctx·Wo + bo)   h  = OG⊙tanh(C)
//
// ctx must have CtxDim columns; cPrev is the previous cell state.
func (c *LSTMCell) Step(b *Binding, ctx, cPrev *ad.Node) (h, cNext *ad.Node) {
	if ctx.Value.Cols != c.CtxDim {
		panic(fmt.Sprintf("nn: %s ctx has %d cols, want %d", c.Name, ctx.Value.Cols, c.CtxDim))
	}
	tp := b.Tape()
	pre := func(gi int) *ad.Node {
		return tp.Add(tp.MatMul(ctx, b.Node(c.wNames[gi])), b.Node(c.bNames[gi]))
	}
	ig := tp.Sigmoid(pre(0))
	fg := tp.Sigmoid(pre(1))
	cand := tp.Tanh(pre(2))
	og := tp.Sigmoid(pre(3))
	cNext = tp.Add(tp.Mul(ig, cand), tp.Mul(fg, cPrev))
	h = tp.Mul(og, tp.Tanh(cNext))
	return h, cNext
}

// ZeroState returns h0 and c0 constant nodes of the right shape. The
// zeroed matrices come from the tape's arena, so they recycle with the
// tape and the call is allocation-free in steady state.
func (c *LSTMCell) ZeroState(tp *ad.Tape) (h0, c0 *ad.Node) {
	return tp.Const(tp.Arena().Get(1, c.Hidden)), tp.Const(tp.Arena().Get(1, c.Hidden))
}

// --- Losses (autodiff-composable) ---

// MSELoss returns mean((pred-target)²); the L2 reconstruction loss used for
// LSTM_A (Eq. 13) and the CLSTM+L2 row of Table I.
func MSELoss(tp *ad.Tape, pred *ad.Node, target *mat.Matrix) *ad.Node {
	d := tp.Sub(pred, tp.Const(target))
	return tp.Mean(tp.Square(d))
}

// KLLoss returns KL(p ‖ q) where p is the (constant) true distribution and q
// the predicted distribution node: Σ p log p − Σ p log q.
func KLLoss(tp *ad.Tape, p *mat.Matrix, q *ad.Node) *ad.Node {
	pc := tp.Const(p)
	return tp.Sub(tp.Sum(tp.Mul(pc, tp.Log(pc))), tp.Sum(tp.Mul(pc, tp.Log(q))))
}

// JSLoss returns the Jensen-Shannon divergence JS(p ‖ q) =
// ½KL(p‖m) + ½KL(q‖m) with m = (p+q)/2 — the JSE loss the paper selects
// after the Table I comparison.
func JSLoss(tp *ad.Tape, p *mat.Matrix, q *ad.Node) *ad.Node {
	pc := tp.Const(p)
	m := tp.Scale(0.5, tp.Add(pc, q))
	klPM := tp.Sub(tp.Sum(tp.Mul(pc, tp.Log(pc))), tp.Sum(tp.Mul(pc, tp.Log(m))))
	klQM := tp.Sub(tp.Sum(tp.Mul(q, tp.Log(q))), tp.Sum(tp.Mul(q, tp.Log(m))))
	return tp.Scale(0.5, tp.Add(klPM, klQM))
}

// LossKind selects the reconstruction loss for the action-feature stream,
// matching the CLSTM+{L2,KL,JS} rows of Table I.
type LossKind int

// Loss kinds compared in Table I.
const (
	LossJS LossKind = iota
	LossKL
	LossL2
)

// String returns the paper's name for the loss.
func (k LossKind) String() string {
	switch k {
	case LossJS:
		return "JS"
	case LossKL:
		return "KL"
	case LossL2:
		return "L2"
	default:
		return fmt.Sprintf("LossKind(%d)", int(k))
	}
}

// ActionLoss applies the selected reconstruction loss between the true
// action feature p and predicted node q.
func ActionLoss(kind LossKind, tp *ad.Tape, p *mat.Matrix, q *ad.Node) *ad.Node {
	switch kind {
	case LossJS:
		return JSLoss(tp, p, q)
	case LossKL:
		return KLLoss(tp, p, q)
	case LossL2:
		return MSELoss(tp, q, p)
	default:
		panic(fmt.Sprintf("nn: unknown loss kind %d", kind))
	}
}

// --- Serialization ---

// paramsWire is the gob wire format for a ParamSet.
type paramsWire struct {
	Names []string
	Rows  []int
	Cols  []int
	Data  [][]float64
}

// Save writes the parameter set to w in a stable, self-describing format.
func (ps *ParamSet) Save(w io.Writer) error {
	wire := paramsWire{}
	names := make([]string, len(ps.names))
	copy(names, ps.names)
	sort.Strings(names)
	for _, n := range names {
		m := ps.vals[n]
		wire.Names = append(wire.Names, n)
		wire.Rows = append(wire.Rows, m.Rows)
		wire.Cols = append(wire.Cols, m.Cols)
		d := make([]float64, len(m.Data))
		copy(d, m.Data)
		wire.Data = append(wire.Data, d)
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("nn: encoding parameters: %w", err)
	}
	return nil
}

// Load reads parameters previously written by Save into ps. Every stored
// name must match an existing parameter of identical shape.
func (ps *ParamSet) Load(r io.Reader) error {
	var wire paramsWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return fmt.Errorf("nn: decoding parameters: %w", err)
	}
	if len(wire.Names) != len(ps.names) {
		return fmt.Errorf("nn: parameter count mismatch: stored %d, model %d", len(wire.Names), len(ps.names))
	}
	ps.BumpVersion() // before mutating: see CopyFrom
	for i, n := range wire.Names {
		m, ok := ps.vals[n]
		if !ok {
			return fmt.Errorf("nn: stored parameter %q not in model", n)
		}
		if m.Rows != wire.Rows[i] || m.Cols != wire.Cols[i] {
			return fmt.Errorf("nn: parameter %q shape mismatch: stored %dx%d, model %dx%d",
				n, wire.Rows[i], wire.Cols[i], m.Rows, m.Cols)
		}
		copy(m.Data, wire.Data[i])
	}
	return nil
}

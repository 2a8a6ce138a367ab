package core

// The tape-free inference engine. Training needs the autodiff tape —
// opcode dispatch, node bookkeeping, gradient buffers — but prediction
// only needs the forward arithmetic, so Model compiles its trained
// parameters into an InferPlan: packed gate-fused weights
// (nn.FusedCell / nn.FusedDense) plus preallocated state and scratch
// buffers. A steady-state plan run performs one GEMV plus one fused gate
// kernel per LSTM step with zero heap allocations, and is bit-identical to
// the tape forward pass (golden-tested in infer_test.go).
//
// Staleness protocol: the plan records the nn.ParamSet version it was
// packed at. Every parameter mutation (optimiser step, merge, load) bumps
// the version, and the owning model repacks — allocation-free — before the
// next prediction. The plan is therefore always a faithful snapshot of the
// live parameters without training ever touching it.
//
// Like the tape, an InferPlan reuses its buffers across calls and is not
// safe for concurrent use; it is confined wherever its owning model is.

import (
	"fmt"

	"aovlis/internal/mat"
	"aovlis/internal/nn"
)

// ctxSrc names one part of a cell's gate-context concatenation: either the
// previous-step hidden state of a stream or the current input of a stream.
// The concat order mirrors the tape forward pass's ConcatCols exactly.
type ctxSrc struct {
	hidden bool // previous hidden state (true) or current input (false)
	index  int  // stream index
}

// planSpec declares one coupled stream of a model: its cell, decoder and
// gate-context layout.
type planSpec struct {
	cell *nn.LSTMCell
	dec  *nn.Dense
	ctx  []ctxSrc
}

// planStream is the compiled runtime form of a planSpec.
type planStream struct {
	srcCell *nn.LSTMCell
	srcDec  *nn.Dense
	cell    *nn.FusedCell
	dec     *nn.FusedDense
	ctx     []ctxSrc

	// Reused state and scratch. h/c are the live recurrent state; hNext/
	// cNext receive the simultaneous update and are swapped in after every
	// stream has read the previous step's state.
	h, c, hNext, cNext []float64
	ctxBuf             []float64 // cell.CtxDim
	preBuf             []float64 // 4·cell.Hidden packed preactivations
	decPre             []float64 // dec.Out decoder preactivation
}

// InferPlan is a compiled, forward-only snapshot of a model's parameters.
type InferPlan struct {
	version uint64
	seqLen  int
	streams []planStream
}

// compileInferPlan packs the specs' parameters and allocates all runtime
// buffers. Compilation is the only allocating phase of the engine; Repack
// and Run are allocation-free.
func compileInferPlan(ps *nn.ParamSet, seqLen int, specs []planSpec) *InferPlan {
	p := &InferPlan{version: ps.Version(), seqLen: seqLen, streams: make([]planStream, len(specs))}
	for i, sp := range specs {
		st := &p.streams[i]
		st.srcCell, st.srcDec, st.ctx = sp.cell, sp.dec, sp.ctx
		st.cell = sp.cell.Pack(ps)
		// AOVLIS_FASTMATH=1 forces every freshly compiled plan onto the
		// fast-math kernels (the CI fast-math pass); owners with a
		// FastMath config OR into this via SetFastMath.
		st.cell.FastMath = mat.FastMathForced()
		st.dec = sp.dec.Pack(ps)
		hn := sp.cell.Hidden
		st.h = make([]float64, hn)
		st.c = make([]float64, hn)
		st.hNext = make([]float64, hn)
		st.cNext = make([]float64, hn)
		st.ctxBuf = make([]float64, sp.cell.CtxDim)
		st.preBuf = make([]float64, 4*hn)
		st.decPre = make([]float64, sp.dec.Out)
	}
	return p
}

// Version returns the parameter version the plan was packed at.
func (p *InferPlan) Version() uint64 { return p.version }

// SetFastMath switches every packed cell between the bit-exact gate
// kernel (the default and the reference) and the polynomial fast-math
// kernel. It is a runtime mode, not an architecture property: repacking
// keeps it, snapshots don't carry it (owners re-apply from their config),
// and BatchInferPlan inherits it automatically because batch runs drive
// the same shared FusedCells.
func (p *InferPlan) SetFastMath(on bool) {
	for i := range p.streams {
		p.streams[i].cell.FastMath = on
	}
}

// FastMath reports whether the fast-math gate kernel is active.
func (p *InferPlan) FastMath() bool {
	return len(p.streams) > 0 && p.streams[0].cell.FastMath
}

// Repack refreshes the packed weights from ps in place, without
// allocating, and records the new version. Owners call it whenever
// ps.Version() has moved past the plan's.
func (p *InferPlan) Repack(ps *nn.ParamSet) {
	for i := range p.streams {
		st := &p.streams[i]
		st.srcCell.PackInto(ps, st.cell)
		st.srcDec.PackInto(ps, st.dec)
	}
	p.version = ps.Version()
}

// Run executes the fused forward recurrence: seqs[k][t] is stream k's input
// feature at step t (seqLen steps), outs[k] receives stream k's decoded
// prediction. Shapes are the caller's responsibility (models validate
// before calling). Run reuses the plan's buffers and allocates nothing.
func (p *InferPlan) Run(seqs [][][]float64, outs [][]float64) {
	for i := range p.streams {
		st := &p.streams[i]
		for j := range st.h {
			st.h[j] = 0
			st.c[j] = 0
		}
	}
	for t := 0; t < p.seqLen; t++ {
		for i := range p.streams {
			st := &p.streams[i]
			// Gate context: the same [h..., input] concatenation the tape
			// builds with ConcatCols, reading every stream's PREVIOUS
			// hidden state so all streams update simultaneously.
			off := 0
			for _, src := range st.ctx {
				part := seqs[src.index][t]
				if src.hidden {
					part = p.streams[src.index].h
				}
				copy(st.ctxBuf[off:off+len(part)], part)
				off += len(part)
			}
			st.cell.StepInto(st.hNext, st.cNext, st.preBuf, st.ctxBuf, st.c)
		}
		for i := range p.streams {
			st := &p.streams[i]
			st.h, st.hNext = st.hNext, st.h
			st.c, st.cNext = st.cNext, st.c
		}
	}
	for i := range p.streams {
		st := &p.streams[i]
		st.dec.ApplyInto(outs[i], st.decPre, st.h)
	}
}

// modelSpecs builds the plan layout of the 2-stream CLSTM under its
// coupling mode: stream 0 is LSTM_I (action), stream 1 is LSTM_A
// (audience). The ctx orders mirror Model.forward's ConcatCols calls.
func modelSpecs(cfg Config, cellI, cellA *nn.LSTMCell, decI, decA *nn.Dense) []planSpec {
	h0 := ctxSrc{hidden: true, index: 0}
	h1 := ctxSrc{hidden: true, index: 1}
	in0 := ctxSrc{index: 0}
	in1 := ctxSrc{index: 1}
	var ctxI, ctxA []ctxSrc
	switch cfg.Coupling {
	case CouplingFull:
		ctxI = []ctxSrc{h0, h1, in0}
		ctxA = []ctxSrc{h0, h1, in1}
	case CouplingOneWay:
		ctxI = []ctxSrc{h0, in0}
		ctxA = []ctxSrc{h0, h1, in1}
	case CouplingNone:
		ctxI = []ctxSrc{h0, in0}
		ctxA = []ctxSrc{h1, in1}
	default:
		panic(fmt.Sprintf("core: unknown coupling %d", cfg.Coupling))
	}
	return []planSpec{
		{cell: cellI, dec: decI, ctx: ctxI},
		{cell: cellA, dec: decA, ctx: ctxA},
	}
}

package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"aovlis/internal/ad"
	"aovlis/internal/mat"
	"aovlis/internal/nn"
	"aovlis/internal/snapshot"
)

// Model is the CLSTM with decoder layers: M(S_I, S_A, θ_p) → (Î, Â)
// (Eq. 11-12 of the paper). It couples LSTM_I (influencer behaviour over
// action features) with LSTM_A (audience interaction behaviour); decoders
// DeI / DeA map the final hidden states back to feature space.
//
// A Model owns one reusable autodiff tape (and through it one mat.Arena):
// every forward/backward pass recycles the previous pass's node and matrix
// storage, so steady-state Predict/TrainStep calls are allocation-free.
// The flip side is that Model methods are not safe for concurrent use —
// confine a Model to one goroutine, the same single-writer contract the
// Detector documents (see ARCHITECTURE.md).
type Model struct {
	cfg Config

	ps    *nn.ParamSet
	cellI *nn.LSTMCell
	cellA *nn.LSTMCell
	decI  *nn.Dense
	decA  *nn.Dense

	opt *nn.Adam

	// tape/bind/grads are the reused per-step autodiff state; see begin.
	tape  *ad.Tape
	bind  *nn.Binding
	grads map[string]*mat.Matrix

	// plan is the compiled tape-free inference engine; see inferPlan.
	// inferSeqs/inferOuts are reused argument buffers for plan.Run so
	// PredictInto stays allocation-free. bplan is the lane-stacked batch
	// engine (see batch.go), sharing plan's packed weights and version.
	plan      *InferPlan
	bplan     *BatchInferPlan
	inferSeqs [2][][]float64
	inferOuts [2][]float64
}

// NewModel constructs a CLSTM for the given configuration.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ps := nn.NewParamSet()
	ctxI, ctxA := cfg.ctxDims()
	m := &Model{
		cfg:   cfg,
		ps:    ps,
		cellI: nn.NewLSTMCell(ps, "lstmI", ctxI, cfg.HiddenI, rng),
		cellA: nn.NewLSTMCell(ps, "lstmA", ctxA, cfg.HiddenA, rng),
		// DeI emits a probability distribution (softmax) because action
		// recognition features live on the simplex and are scored with JS
		// divergence; DeA is linear because audience features are scored
		// with L2 distance.
		decI: nn.NewDense(ps, "decI", cfg.HiddenI, cfg.ActionDim, nn.SoftmaxAct, rng),
		decA: nn.NewDense(ps, "decA", cfg.HiddenA, cfg.AudienceDim, nn.Linear, rng),
		opt:  nn.NewAdam(cfg.LearningRate),
	}
	m.tape = ad.NewTape()
	m.bind = ps.Bind(m.tape)
	m.grads = make(map[string]*mat.Matrix, len(ps.Names()))
	m.plan = compileInferPlan(ps, cfg.SeqLen, modelSpecs(cfg, m.cellI, m.cellA, m.decI, m.decA))
	return m, nil
}

// inferPlan returns the compiled inference plan, repacking it first if any
// parameter mutation (TrainStep, Merge, online update, Load) happened since
// it was last packed. The staleness check is one integer compare and the
// repack is allocation-free, so the prediction hot path stays cheap and the
// plan can never silently serve stale weights.
func (m *Model) inferPlan() *InferPlan {
	if m.plan.Version() != m.ps.Version() {
		m.plan.Repack(m.ps)
	}
	return m.plan
}

// begin resets the reused tape and rebinds the parameters for one
// forward/backward pass. Everything recorded in the previous pass is
// recycled, so callers must have copied any results out already.
func (m *Model) begin() (*ad.Tape, *nn.Binding) {
	m.tape.Reset()
	m.bind.Rebind()
	return m.tape, m.bind
}

// beginTrain is begin for a pass that runs Backward: the binding also
// hands the tape the transposed weights of the SIMD backward GEMM.
func (m *Model) beginTrain() (*ad.Tape, *nn.Binding) {
	m.tape.Reset()
	m.bind.RebindForBackward()
	return m.tape, m.bind
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// SetFastMath switches the compiled inference plan between the bit-exact
// gate kernel and the polynomial fast-math kernel (see mat.FastExp). A
// runtime scoring mode, not part of Config: snapshots don't carry it and
// owners (the Detector) re-apply it from their own configuration after
// load. AOVLIS_FASTMATH=1 forces it on regardless. The tape paths —
// training, Hidden, the golden-reference predictTapeInto — always stay
// exact.
func (m *Model) SetFastMath(on bool) {
	m.plan.SetFastMath(on || mat.FastMathForced())
}

// FastMath reports whether the fast-math gate kernel is active.
func (m *Model) FastMath() bool { return m.plan.FastMath() }

// NumParams returns the number of scalar parameters (the paper reports
// 1,382,713 for its full-scale configuration).
func (m *Model) NumParams() int { return m.ps.NumParams() }

// Params exposes the underlying parameter set (used by the dynamic-update
// merge and by tests).
func (m *Model) Params() *nn.ParamSet { return m.ps }

// forward runs the coupled recurrence over one sample and returns the
// decoded predictions plus the final hidden nodes.
func (m *Model) forward(tp *ad.Tape, b *nn.Binding, s *Sample) (fhat, ahat, hFinal, gFinal *ad.Node) {
	h, cI := m.cellI.ZeroState(tp)
	g, cA := m.cellA.ZeroState(tp)
	for t := 0; t < m.cfg.SeqLen; t++ {
		f := tp.ConstVector(s.ActionSeq[t])
		a := tp.ConstVector(s.AudienceSeq[t])
		var ctxI, ctxA *ad.Node
		switch m.cfg.Coupling {
		case CouplingFull:
			ctxI = tp.ConcatCols(h, g, f)
			ctxA = tp.ConcatCols(h, g, a)
		case CouplingOneWay:
			ctxI = tp.ConcatCols(h, f)
			ctxA = tp.ConcatCols(h, g, a)
		case CouplingNone:
			ctxI = tp.ConcatCols(h, f)
			ctxA = tp.ConcatCols(g, a)
		}
		// Both layers read the *previous* hidden states of each other
		// (Eq. 5 and Eq. 10), so h and g update simultaneously.
		hNext, cINext := m.cellI.Step(b, ctxI, cI)
		gNext, cANext := m.cellA.Step(b, ctxA, cA)
		h, cI, g, cA = hNext, cINext, gNext, cANext
	}
	fhat = m.decI.Apply(b, h)
	ahat = m.decA.Apply(b, g)
	return fhat, ahat, h, g
}

// Predict returns the model's prediction (f̂_t, â_t) of the next segment's
// features given the q-step history in s. Targets in s are ignored.
func (m *Model) Predict(s *Sample) (fhat, ahat []float64, err error) {
	fhat = make([]float64, m.cfg.ActionDim)
	ahat = make([]float64, m.cfg.AudienceDim)
	if err := m.PredictInto(s, fhat, ahat); err != nil {
		return nil, nil, err
	}
	return fhat, ahat, nil
}

// PredictInto is Predict with caller-supplied output buffers — the
// allocation-free form Detector.Observe uses on its hot path. It routes
// through the compiled InferPlan (tape-free gate-fused forward pass),
// which is bit-identical to the tape forward pass; see infer.go and the
// golden equivalence tests.
func (m *Model) PredictInto(s *Sample, fhat, ahat []float64) error {
	if err := s.validate(m.cfg); err != nil {
		return err
	}
	if len(fhat) != m.cfg.ActionDim || len(ahat) != m.cfg.AudienceDim {
		return fmt.Errorf("core: PredictInto buffers %d/%d, model expects %d/%d",
			len(fhat), len(ahat), m.cfg.ActionDim, m.cfg.AudienceDim)
	}
	p := m.inferPlan()
	m.inferSeqs[0], m.inferSeqs[1] = s.ActionSeq, s.AudienceSeq
	m.inferOuts[0], m.inferOuts[1] = fhat, ahat
	p.Run(m.inferSeqs[:], m.inferOuts[:])
	// Drop the caller's slices so the reused argument buffers don't pin
	// them beyond the call.
	m.inferSeqs[0], m.inferSeqs[1] = nil, nil
	m.inferOuts[0], m.inferOuts[1] = nil, nil
	return nil
}

// predictTapeInto is the pre-InferPlan prediction path: the forward pass
// recorded on the autodiff tape, exactly as training runs it. It exists so
// the golden equivalence tests can pin the fused engine bit-identical to
// the tape; production prediction goes through PredictInto.
func (m *Model) predictTapeInto(s *Sample, fhat, ahat []float64) error {
	if err := s.validate(m.cfg); err != nil {
		return err
	}
	tp, b := m.begin()
	fn, an, _, _ := m.forward(tp, b, s)
	copy(fhat, fn.Value.Data)
	copy(ahat, an.Value.Data)
	return nil
}

// Hidden returns the final hidden state h_t of LSTM_I for the sample. The
// dynamic-update algorithm uses these vectors for drift detection because
// they are "more robust to scene changes compared with audience interaction
// features" (§IV-D).
func (m *Model) Hidden(s *Sample) ([]float64, error) {
	if err := s.validate(m.cfg); err != nil {
		return nil, err
	}
	tp, b := m.begin()
	_, _, h, _ := m.forward(tp, b, s)
	return append([]float64(nil), h.Value.Data...), nil
}

// loss builds the joint training objective (Eq. 13):
// l(I,A) = ω·Loss(Î,I) + (1−ω)·MSE(Â,A).
func (m *Model) loss(tp *ad.Tape, fhat, ahat *ad.Node, s *Sample) *ad.Node {
	// Targets are wrapped through the tape's arena (headers recycled, data
	// not copied) so the training step stays allocation-free.
	ft := tp.Arena().Wrap(1, len(s.ActionTarget), s.ActionTarget)
	at := tp.Arena().Wrap(1, len(s.AudienceTarget), s.AudienceTarget)
	lI := nn.ActionLoss(m.cfg.Loss, tp, ft, fhat)
	lA := nn.MSELoss(tp, ahat, at)
	return tp.Add(tp.Scale(m.cfg.Omega, lI), tp.Scale(1-m.cfg.Omega, lA))
}

// TrainStep runs one optimisation step on a single sample and returns its
// loss value before the update.
func (m *Model) TrainStep(s *Sample) (float64, error) {
	if err := s.validate(m.cfg); err != nil {
		return 0, err
	}
	if s.ActionTarget == nil || s.AudienceTarget == nil {
		return 0, fmt.Errorf("core: TrainStep requires targets")
	}
	tp, b := m.beginTrain()
	fhat, ahat, _, _ := m.forward(tp, b, s)
	loss := m.loss(tp, fhat, ahat, s)
	tp.Backward(loss)
	m.opt.Step(m.ps, b.GradsInto(m.grads))
	return ad.Scalar(loss), nil
}

// TrainEpoch shuffles samples with rng and performs one TrainStep per
// sample, returning the mean loss. A nil rng keeps the given order.
func (m *Model) TrainEpoch(samples []Sample, rng *rand.Rand) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("core: TrainEpoch with no samples")
	}
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	var total float64
	for _, idx := range order {
		l, err := m.TrainStep(&samples[idx])
		if err != nil {
			return 0, fmt.Errorf("core: sample %d: %w", idx, err)
		}
		total += l
	}
	return total / float64(len(samples)), nil
}

// EvalLoss returns the mean reconstruction loss Re over samples without
// updating parameters — the quantity plotted against epochs in Fig. 8.
func (m *Model) EvalLoss(samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("core: EvalLoss with no samples")
	}
	var total float64
	for i := range samples {
		s := &samples[i]
		if err := s.validate(m.cfg); err != nil {
			return 0, err
		}
		tp, b := m.begin()
		fhat, ahat, _, _ := m.forward(tp, b, s)
		total += ad.Scalar(m.loss(tp, fhat, ahat, s))
	}
	return total / float64(len(samples)), nil
}

// Score computes the anomaly score REIA(t) of the sample's target segment
// (Eq. 14-16): ω·JS(f_t, f̂_t) + (1−ω)·‖â_t − a_t‖₂.
func (m *Model) Score(s *Sample) (Score, error) {
	fhat, ahat, err := m.Predict(s)
	if err != nil {
		return Score{}, err
	}
	return NewScore(s.ActionTarget, fhat, s.AudienceTarget, ahat, m.cfg.Omega), nil
}

// ResetOptimizer clears Adam state; the dynamic-update algorithm calls this
// before training a fresh CLSTM_new on buffered segments.
func (m *Model) ResetOptimizer() { m.opt.Reset() }

// Clone returns a deep copy of the model (parameters copied, optimiser
// state reset). Used by the re-training baseline and the merge step.
func (m *Model) Clone() *Model {
	clone, err := NewModel(m.cfg)
	if err != nil {
		// cfg already validated at construction; this cannot happen.
		panic(fmt.Sprintf("core: cloning validated model failed: %v", err))
	}
	if err := clone.ps.CopyFrom(m.ps); err != nil {
		panic(fmt.Sprintf("core: cloning parameters failed: %v", err))
	}
	return clone
}

// Merge folds other's parameters into m as w·m + (1−w)·other — the
// parameter-space realisation of merge(CLSTM_new, CLSTM_{t-1}) in the
// paper's dynamic-update algorithm (Fig. 5, line 12).
func (m *Model) Merge(other *Model, w float64) error {
	if m.cfg.ctxEqual(other.cfg) {
		return m.ps.Average(other.ps, w)
	}
	return fmt.Errorf("core: cannot merge models with different architectures")
}

// ctxEqual reports whether two configs describe the same architecture.
func (c Config) ctxEqual(o Config) bool {
	return c.ActionDim == o.ActionDim && c.AudienceDim == o.AudienceDim &&
		c.HiddenI == o.HiddenI && c.HiddenA == o.HiddenA &&
		c.SeqLen == o.SeqLen && c.Coupling == o.Coupling
}

// modelWire is the gob payload header for Save/Load, written after the
// versioned snapshot envelope. HasOpt marks whether optimiser state follows
// the parameters (SaveRuntime writes it, Save does not).
type modelWire struct {
	Config Config
	HasOpt bool
}

// Save serialises the model inside a versioned, self-describing snapshot
// envelope: configuration and parameters, without optimiser state. Use
// SaveRuntime to also capture the optimiser so training resumes
// bit-identically.
func (m *Model) Save(w io.Writer) error { return m.save(w, false) }

// SaveRuntime serialises the full model runtime — configuration,
// parameters and Adam optimiser state (step count and moment estimates) —
// inside the same versioned envelope Save uses. A model restored from it
// continues training with bit-identical updates; Detector.Snapshot builds
// on this.
func (m *Model) SaveRuntime(w io.Writer) error { return m.save(w, true) }

func (m *Model) save(w io.Writer, withOpt bool) error {
	if err := snapshot.WriteHeader(w, snapshot.KindModel); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(modelWire{Config: m.cfg, HasOpt: withOpt}); err != nil {
		return fmt.Errorf("core: encoding model header: %w", err)
	}
	if err := m.ps.Save(w); err != nil {
		return err
	}
	if withOpt {
		return m.opt.Save(w)
	}
	return nil
}

// LoadModel reconstructs a model previously written with Save or
// SaveRuntime. It accepts any snapshot codec version still supported (see
// internal/snapshot) and restores optimiser state when present.
func LoadModel(r io.Reader) (*Model, error) {
	r = snapshot.Reader(r)
	if _, err := snapshot.ReadHeader(r, snapshot.KindModel); err != nil {
		return nil, err
	}
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decoding model header: %w", err)
	}
	m, err := NewModel(wire.Config)
	if err != nil {
		return nil, err
	}
	if err := m.ps.Load(r); err != nil {
		return nil, err
	}
	if wire.HasOpt {
		if err := m.opt.Load(r); err != nil {
			return nil, err
		}
		if err := m.opt.CheckShapes(m.ps); err != nil {
			return nil, fmt.Errorf("core: model optimiser state: %w", err)
		}
	}
	return m, nil
}

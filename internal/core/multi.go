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

// This file implements the generalisation the paper claims for CLSTM
// (§I, contribution 2): "CLSTM includes two interactive layers, each of
// which captures the temporary dependency of its stream and the social
// dependency on the other layer, thus more practical and extendible for
// modelling multiple streams with mutual interactions."
//
// MultiModel couples K streams: stream k's gates read the previous hidden
// states of ALL K layers plus its own current input,
//
//	ctx^k_t = [h^1_{t-1}, ..., h^K_{t-1}, x^k_t],
//
// which reduces exactly to the paper's CLSTM at K = 2. Use it to model,
// e.g., a co-hosted live stream (two presenters + audience) or multiple
// audience channels (bullet comments + gifts + viewer count).

// StreamSpec describes one coupled stream.
type StreamSpec struct {
	// Name identifies the stream in errors and scores.
	Name string
	// InputDim is the feature dimensionality of the stream.
	InputDim int
	// Hidden is the LSTM hidden size of the stream's layer.
	Hidden int
	// Simplex marks features that live on the probability simplex: the
	// decoder emits a softmax and reconstruction is scored with JS
	// divergence (like action features); otherwise the decoder is linear
	// and reconstruction is scored with L2 (like audience features).
	Simplex bool
	// Weight is the stream's share of the joint loss and of the fused
	// anomaly score. Weights are normalised to sum to 1.
	Weight float64
}

// MultiConfig parameterises a MultiModel.
type MultiConfig struct {
	// Streams lists the coupled streams (at least two).
	Streams []StreamSpec
	// SeqLen is q.
	SeqLen int
	// LearningRate is the Adam learning rate.
	LearningRate float64
	// Seed fixes initialisation.
	Seed int64
}

// Validate reports the first configuration error.
func (c MultiConfig) Validate() error {
	if len(c.Streams) < 2 {
		return fmt.Errorf("core: MultiModel needs at least 2 streams, got %d", len(c.Streams))
	}
	var wsum float64
	for i, s := range c.Streams {
		if s.InputDim <= 0 || s.Hidden <= 0 {
			return fmt.Errorf("core: stream %d (%s) has non-positive dims", i, s.Name)
		}
		if s.Weight < 0 {
			return fmt.Errorf("core: stream %d (%s) has negative weight", i, s.Name)
		}
		wsum += s.Weight
	}
	if wsum <= 0 {
		return fmt.Errorf("core: stream weights sum to %v, need > 0", wsum)
	}
	if c.SeqLen <= 0 {
		return fmt.Errorf("core: SeqLen must be positive, got %d", c.SeqLen)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("core: LearningRate must be positive, got %v", c.LearningRate)
	}
	return nil
}

// MultiModel is the K-stream coupled LSTM with per-stream decoders. Like
// Model, it owns one reusable tape and is therefore not safe for
// concurrent use: confine it to one goroutine.
type MultiModel struct {
	cfg     MultiConfig
	weights []float64 // normalised
	ps      *nn.ParamSet
	cells   []*nn.LSTMCell
	decs    []*nn.Dense
	opt     *nn.Adam

	tape  *ad.Tape
	bind  *nn.Binding
	grads map[string]*mat.Matrix

	// plan is the compiled tape-free inference engine (see infer.go).
	plan *InferPlan
}

// NewMultiModel constructs the model.
func NewMultiModel(cfg MultiConfig) (*MultiModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ps := nn.NewParamSet()

	hiddenSum := 0
	for _, s := range cfg.Streams {
		hiddenSum += s.Hidden
	}
	m := &MultiModel{cfg: cfg, ps: ps, opt: nn.NewAdam(cfg.LearningRate)}
	var wsum float64
	for _, s := range cfg.Streams {
		wsum += s.Weight
	}
	for i, s := range cfg.Streams {
		m.weights = append(m.weights, s.Weight/wsum)
		ctxDim := hiddenSum + s.InputDim
		m.cells = append(m.cells, nn.NewLSTMCell(ps, fmt.Sprintf("stream%d.lstm", i), ctxDim, s.Hidden, rng))
		act := nn.Linear
		if s.Simplex {
			act = nn.SoftmaxAct
		}
		m.decs = append(m.decs, nn.NewDense(ps, fmt.Sprintf("stream%d.dec", i), s.Hidden, s.InputDim, act, rng))
	}
	m.tape = ad.NewTape()
	m.bind = ps.Bind(m.tape)
	m.grads = make(map[string]*mat.Matrix, len(ps.Names()))
	m.plan = compileInferPlan(ps, cfg.SeqLen, multiSpecs(m.cells, m.decs))
	return m, nil
}

// inferPlan returns the compiled inference plan, repacked if training has
// mutated the parameters since the last pack (same protocol as Model).
func (m *MultiModel) inferPlan() *InferPlan {
	if m.plan.Version() != m.ps.Version() {
		m.plan.Repack(m.ps)
	}
	return m.plan
}

// begin resets the reused tape and rebinds parameters for one pass.
func (m *MultiModel) begin() (*ad.Tape, *nn.Binding) {
	m.tape.Reset()
	m.bind.Rebind()
	return m.tape, m.bind
}

// beginTrain is begin for a pass that runs Backward: the binding also
// hands the tape the transposed weights of the SIMD backward GEMM.
func (m *MultiModel) beginTrain() (*ad.Tape, *nn.Binding) {
	m.tape.Reset()
	m.bind.RebindForBackward()
	return m.tape, m.bind
}

// Config returns the configuration.
func (m *MultiModel) Config() MultiConfig { return m.cfg }

// SetFastMath switches the compiled inference plan between the bit-exact
// and fast-math gate kernels (same contract as Model.SetFastMath).
func (m *MultiModel) SetFastMath(on bool) {
	m.plan.SetFastMath(on || mat.FastMathForced())
}

// FastMath reports whether the fast-math gate kernel is active.
func (m *MultiModel) FastMath() bool { return m.plan.FastMath() }

// NumParams returns the scalar parameter count.
func (m *MultiModel) NumParams() int { return m.ps.NumParams() }

// validateSeqs checks a window of inputs: seqs[k][t] is stream k's feature
// at step t.
func (m *MultiModel) validateSeqs(seqs [][][]float64) error {
	if len(seqs) != len(m.cfg.Streams) {
		return fmt.Errorf("core: %d input streams, model has %d", len(seqs), len(m.cfg.Streams))
	}
	for k, seq := range seqs {
		if len(seq) != m.cfg.SeqLen {
			return fmt.Errorf("core: stream %d (%s) sequence length %d, want %d",
				k, m.cfg.Streams[k].Name, len(seq), m.cfg.SeqLen)
		}
		for t, f := range seq {
			if len(f) != m.cfg.Streams[k].InputDim {
				return fmt.Errorf("core: stream %d (%s) step %d has dim %d, want %d",
					k, m.cfg.Streams[k].Name, t, len(f), m.cfg.Streams[k].InputDim)
			}
		}
	}
	return nil
}

// forward runs the coupled recurrence and returns the decoded predictions.
func (m *MultiModel) forward(tp *ad.Tape, b *nn.Binding, seqs [][][]float64) []*ad.Node {
	k := len(m.cfg.Streams)
	hs := make([]*ad.Node, k)
	cs := make([]*ad.Node, k)
	for i := range m.cells {
		hs[i], cs[i] = m.cells[i].ZeroState(tp)
	}
	for t := 0; t < m.cfg.SeqLen; t++ {
		// All layers read the PREVIOUS hidden states of every layer, so the
		// update is simultaneous, exactly like the 2-stream CLSTM.
		nextH := make([]*ad.Node, k)
		nextC := make([]*ad.Node, k)
		for i := 0; i < k; i++ {
			parts := make([]*ad.Node, 0, k+1)
			parts = append(parts, hs...)
			parts = append(parts, tp.ConstVector(seqs[i][t]))
			ctx := tp.ConcatCols(parts...)
			nextH[i], nextC[i] = m.cells[i].Step(b, ctx, cs[i])
		}
		hs, cs = nextH, nextC
	}
	outs := make([]*ad.Node, k)
	for i := 0; i < k; i++ {
		outs[i] = m.decs[i].Apply(b, hs[i])
	}
	return outs
}

// Predict returns each stream's predicted next feature given the q-step
// window seqs[k][t]. It routes through the compiled InferPlan, like
// Model.PredictInto.
func (m *MultiModel) Predict(seqs [][][]float64) ([][]float64, error) {
	preds := make([][]float64, len(m.cfg.Streams))
	for i, s := range m.cfg.Streams {
		preds[i] = make([]float64, s.InputDim)
	}
	if err := m.PredictInto(seqs, preds); err != nil {
		return nil, err
	}
	return preds, nil
}

// PredictInto is Predict with caller-supplied output buffers (outs[k] must
// have stream k's InputDim) — the allocation-free form for serving loops.
func (m *MultiModel) PredictInto(seqs [][][]float64, outs [][]float64) error {
	if err := m.validateSeqs(seqs); err != nil {
		return err
	}
	if len(outs) != len(m.cfg.Streams) {
		return fmt.Errorf("core: %d output buffers, model has %d streams", len(outs), len(m.cfg.Streams))
	}
	for i, o := range outs {
		if len(o) != m.cfg.Streams[i].InputDim {
			return fmt.Errorf("core: output %d has dim %d, want %d", i, len(o), m.cfg.Streams[i].InputDim)
		}
	}
	m.inferPlan().Run(seqs, outs)
	return nil
}

// predictTape is the tape-recorded prediction path, kept for the golden
// equivalence tests that pin the fused plan bit-identical to it.
func (m *MultiModel) predictTape(seqs [][][]float64) ([][]float64, error) {
	if err := m.validateSeqs(seqs); err != nil {
		return nil, err
	}
	tp, b := m.begin()
	outs := m.forward(tp, b, seqs)
	preds := make([][]float64, len(outs))
	for i, o := range outs {
		preds[i] = append([]float64(nil), o.Value.Data...)
	}
	return preds, nil
}

// loss builds the weighted joint reconstruction objective.
func (m *MultiModel) loss(tp *ad.Tape, outs []*ad.Node, targets [][]float64) *ad.Node {
	var total *ad.Node
	for i, o := range outs {
		var li *ad.Node
		tgt := tp.Arena().Wrap(1, len(targets[i]), targets[i])
		if m.cfg.Streams[i].Simplex {
			li = nn.JSLoss(tp, tgt, o)
		} else {
			li = nn.MSELoss(tp, o, tgt)
		}
		term := tp.Scale(m.weights[i], li)
		if total == nil {
			total = term
		} else {
			total = tp.Add(total, term)
		}
	}
	return total
}

// TrainStep runs one optimisation step on a window and its targets.
func (m *MultiModel) TrainStep(seqs [][][]float64, targets [][]float64) (float64, error) {
	if err := m.validateSeqs(seqs); err != nil {
		return 0, err
	}
	if len(targets) != len(m.cfg.Streams) {
		return 0, fmt.Errorf("core: %d targets, model has %d streams", len(targets), len(m.cfg.Streams))
	}
	for i, tgt := range targets {
		if len(tgt) != m.cfg.Streams[i].InputDim {
			return 0, fmt.Errorf("core: target %d has dim %d, want %d", i, len(tgt), m.cfg.Streams[i].InputDim)
		}
	}
	tp, b := m.beginTrain()
	outs := m.forward(tp, b, seqs)
	loss := m.loss(tp, outs, targets)
	tp.Backward(loss)
	m.opt.Step(m.ps, b.GradsInto(m.grads))
	return ad.Scalar(loss), nil
}

// MultiScore is the fused anomaly score of one multi-stream segment.
type MultiScore struct {
	// PerStream holds each stream's reconstruction error (JS for simplex
	// streams, L2 otherwise).
	PerStream []float64
	// Fused is the weight-combined score, the K-stream analogue of REIA.
	Fused float64
}

// Score computes the fused reconstruction-error anomaly score of the
// segment whose features are targets, given the q-step history seqs.
func (m *MultiModel) Score(seqs [][][]float64, targets [][]float64) (MultiScore, error) {
	preds, err := m.Predict(seqs)
	if err != nil {
		return MultiScore{}, err
	}
	if len(targets) != len(preds) {
		return MultiScore{}, fmt.Errorf("core: %d targets, model has %d streams", len(targets), len(preds))
	}
	var out MultiScore
	for i := range preds {
		if len(targets[i]) != m.cfg.Streams[i].InputDim {
			return MultiScore{}, fmt.Errorf("core: target %d has dim %d, want %d", i, len(targets[i]), m.cfg.Streams[i].InputDim)
		}
		var re float64
		if m.cfg.Streams[i].Simplex {
			re = JSDivergence(targets[i], preds[i])
		} else {
			re = mat.VecL2Distance(targets[i], preds[i])
		}
		out.PerStream = append(out.PerStream, re)
		out.Fused += m.weights[i] * re
	}
	return out, nil
}

// TrainSeries slides a q-window over parallel series (series[k][t]) and
// performs one TrainStep per position, returning the mean loss.
func (m *MultiModel) TrainSeries(series [][][]float64, rng *rand.Rand) (float64, error) {
	n, err := m.seriesLen(series)
	if err != nil {
		return 0, err
	}
	q := m.cfg.SeqLen
	positions := make([]int, 0, n-q)
	for t := q; t < n; t++ {
		positions = append(positions, t)
	}
	if rng != nil {
		rng.Shuffle(len(positions), func(i, j int) { positions[i], positions[j] = positions[j], positions[i] })
	}
	var total float64
	for _, t := range positions {
		seqs, targets := windowAt(series, t, q)
		l, err := m.TrainStep(seqs, targets)
		if err != nil {
			return 0, err
		}
		total += l
	}
	return total / float64(len(positions)), nil
}

// ScoreSeries returns the fused score of every position t ∈ [q, n).
func (m *MultiModel) ScoreSeries(series [][][]float64) ([]MultiScore, error) {
	n, err := m.seriesLen(series)
	if err != nil {
		return nil, err
	}
	q := m.cfg.SeqLen
	out := make([]MultiScore, 0, n-q)
	for t := q; t < n; t++ {
		seqs, targets := windowAt(series, t, q)
		s, err := m.Score(seqs, targets)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (m *MultiModel) seriesLen(series [][][]float64) (int, error) {
	if len(series) != len(m.cfg.Streams) {
		return 0, fmt.Errorf("core: %d series, model has %d streams", len(series), len(m.cfg.Streams))
	}
	n := len(series[0])
	for k := range series {
		if len(series[k]) != n {
			return 0, fmt.Errorf("core: series lengths differ: %d vs %d", len(series[k]), n)
		}
	}
	if n <= m.cfg.SeqLen {
		return 0, fmt.Errorf("core: need more than q=%d steps, got %d", m.cfg.SeqLen, n)
	}
	return n, nil
}

func windowAt(series [][][]float64, t, q int) (seqs [][][]float64, targets [][]float64) {
	for k := range series {
		seqs = append(seqs, series[k][t-q:t])
		targets = append(targets, series[k][t])
	}
	return seqs, targets
}

// multiWire is the gob payload header for Save/Load, written after the
// versioned snapshot envelope (same protocol as modelWire).
type multiWire struct {
	Config MultiConfig
	HasOpt bool
}

// Save serialises the multi-stream model inside a versioned,
// self-describing snapshot envelope (configuration and parameters, no
// optimiser state).
func (m *MultiModel) Save(w io.Writer) error { return m.save(w, false) }

// SaveRuntime additionally captures the Adam optimiser state so training
// resumes bit-identically.
func (m *MultiModel) SaveRuntime(w io.Writer) error { return m.save(w, true) }

func (m *MultiModel) save(w io.Writer, withOpt bool) error {
	if err := snapshot.WriteHeader(w, snapshot.KindMultiModel); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(multiWire{Config: m.cfg, HasOpt: withOpt}); err != nil {
		return fmt.Errorf("core: encoding multi-model header: %w", err)
	}
	if err := m.ps.Save(w); err != nil {
		return err
	}
	if withOpt {
		return m.opt.Save(w)
	}
	return nil
}

// LoadMultiModel restores a model written by Save or SaveRuntime.
func LoadMultiModel(r io.Reader) (*MultiModel, error) {
	r = snapshot.Reader(r)
	if _, err := snapshot.ReadHeader(r, snapshot.KindMultiModel); err != nil {
		return nil, err
	}
	var wire multiWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decoding multi-model header: %w", err)
	}
	m, err := NewMultiModel(wire.Config)
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
			return nil, fmt.Errorf("core: multi-model optimiser state: %w", err)
		}
	}
	return m, nil
}

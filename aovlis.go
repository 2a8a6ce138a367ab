// Package aovlis is an open reproduction of "Online Anomaly Detection over
// Live Social Video Streaming" (ICDE 2024): a framework that detects
// anomalies in live social video streams by jointly modelling the
// presenter's visual behaviour and the audience's real-time interaction
// with a Coupling LSTM (CLSTM), scoring segments with the fused
// reconstruction error REIA, filtering candidates with ADG/L1 bounds under
// the adaptive ADOS strategy, and maintaining the model incrementally as
// the stream drifts.
//
// The top-level API is the Detector: train it on a normal (anomaly-free)
// feature series, then feed it the stream's per-segment features — it
// reports an anomaly decision per segment in O(segment) time:
//
//	cfg := aovlis.DefaultConfig(d1, d2)
//	det, err := aovlis.Train(normalActions, normalAudience, cfg)
//	...
//	res, err := det.Observe(actionFeat, audienceFeat)
//	if res.Anomaly { ... }
//
// Feature extraction from raw segments (I3D-style action features and the
// comment-count/embedding/sentiment audience features) lives in
// internal/feature and is exercised end to end by the bundled examples and
// the cmd/ tools; the Detector itself is feature-agnostic and consumes any
// aligned pair of feature series.
package aovlis

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync/atomic"

	"aovlis/internal/ados"
	"aovlis/internal/core"
	"aovlis/internal/snapshot"
	"aovlis/internal/update"
)

// Config assembles the paper's knobs in one place.
type Config struct {
	// ActionDim (d1) and AudienceDim (d2) are the feature dimensions.
	ActionDim, AudienceDim int
	// HiddenI / HiddenA are the CLSTM hidden sizes.
	HiddenI, HiddenA int
	// SeqLen is q, the history window length (9 in the paper).
	SeqLen int
	// Omega is ω, the REIA weight of the action stream (Eq. 16).
	Omega float64
	// Epochs is the training budget.
	Epochs int
	// LearningRate is the Adam learning rate.
	LearningRate float64
	// TauQuantile places the anomaly threshold τ at this quantile of the
	// validation REIA scores (the operational form of the paper's τ sweep).
	TauQuantile float64
	// UseADOS enables bound-based filtering (ADG + L1 + trigger) in the
	// detection path.
	UseADOS bool
	// EnableUpdate turns on the dynamic model-update machinery (Fig. 5).
	EnableUpdate bool
	// Update configures the updater when EnableUpdate is set.
	Update update.Config
	// FastMath switches the inference hot path to the polynomial SIMD
	// exp/tanh gate kernels (a few ULP from the libm-exact kernels; the
	// tolerance is pinned by internal/mat's property tests and the
	// verdict-flip-rate harness). Training and the autodiff tape stay
	// exact. AOVLIS_FASTMATH=1 forces this on regardless of the field.
	FastMath bool
	// Tiered enables bound-gated skipping of the exact LSTM predict: when
	// the last exactly-scored segment's predictions still clear the JSmax
	// normal bound with margin, the segment is declared normal without
	// running the model (see ados.TierPlan for the guard rails).
	Tiered bool
	// Tier configures the skip gate when Tiered is set. The zero value
	// means ados.DefaultTierConfig().
	Tier ados.TierConfig
	// Seed drives all stochastic choices.
	Seed int64
}

// DefaultConfig returns the paper's configuration for the given feature
// dimensions.
func DefaultConfig(actionDim, audienceDim int) Config {
	return Config{
		ActionDim:    actionDim,
		AudienceDim:  audienceDim,
		HiddenI:      32,
		HiddenA:      16,
		SeqLen:       9,
		Omega:        0.8,
		Epochs:       15,
		LearningRate: 0.01,
		TauQuantile:  0.95,
		UseADOS:      true,
		EnableUpdate: false,
		Update:       update.DefaultConfig(),
		Seed:         1,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.Epochs <= 0 {
		return fmt.Errorf("aovlis: Epochs must be positive, got %d", c.Epochs)
	}
	if c.TauQuantile < 0 || c.TauQuantile > 1 {
		return fmt.Errorf("aovlis: TauQuantile must be in [0,1], got %v", c.TauQuantile)
	}
	if c.Tiered {
		if _, err := ados.NewTierPlan(c.tierConfig(), c.ActionDim, c.AudienceDim); err != nil {
			return err
		}
	}
	return c.modelConfig().Validate()
}

// tierConfig resolves the tier gate configuration, defaulting the zero
// value to ados.DefaultTierConfig().
func (c Config) tierConfig() ados.TierConfig {
	if c.Tier == (ados.TierConfig{}) {
		return ados.DefaultTierConfig()
	}
	return c.Tier
}

func (c Config) modelConfig() core.Config {
	mc := core.DefaultConfig(c.ActionDim, c.AudienceDim)
	mc.HiddenI, mc.HiddenA = c.HiddenI, c.HiddenA
	mc.SeqLen = c.SeqLen
	mc.Omega = c.Omega
	mc.LearningRate = c.LearningRate
	mc.Seed = c.Seed
	return mc
}

// Result is the detector's verdict for one observed segment.
type Result struct {
	// Warmup is true while the detector still lacks q segments of history;
	// no decision is made.
	Warmup bool
	// Anomaly is the decision (false during warm-up).
	Anomaly bool
	// Score is the REIA score (or its bound-implied estimate when the
	// ADOS filter decided without the exact computation).
	Score float64
	// Exact reports whether Score is the exact REIA value.
	Exact bool
	// Path names the deciding mechanism ("exact", "JSmax", "REG_I", ...).
	Path string
	// Updated is true when this observation triggered an incremental model
	// update.
	Updated bool
}

// ErrConcurrentObserve is returned when Observe detects a second concurrent
// caller instead of letting it corrupt the sliding window.
var ErrConcurrentObserve = errors.New("aovlis: concurrent Observe calls on one Detector (single-writer contract; route channels through internal/serve)")

// Detector is the online AOVLIS anomaly detector.
//
// Concurrency contract: a Detector is a single-writer object. Observe,
// DetectSeries, Recalibrate, SetTau and Save all mutate internal state —
// the sliding window, the ADOS filter counters and (with EnableUpdate) the
// model weights themselves — and must be confined to one goroutine at a
// time. The read accessors (Tau, Observed, Detected, FilterStats, Model)
// are safe only while no writer is active. Observe enforces the contract
// cheaply: a call that races with another Observe fails with
// ErrConcurrentObserve rather than silently corrupting the window. To score
// many streams concurrently, give each its own Detector and confine each to
// one goroutine — the DetectorPool in internal/serve does exactly this.
type Detector struct {
	cfg    Config
	model  *core.Model
	filter *ados.Filter
	tier   *ados.TierPlan
	upd    *update.Updater
	tau    float64

	// sliding windows of the last q features
	actWin [][]float64
	audWin [][]float64

	// fhatBuf/ahatBuf are reused prediction buffers: Observe routes through
	// Model.PredictInto so the steady-state hot path allocates nothing.
	fhatBuf []float64
	ahatBuf []float64

	// ObserveBatch scratch, reused across calls: the combined
	// window+segment header sequence, the per-lane samples, and the lane
	// prediction buffers (headers over one flat backing each). At a stable
	// batch size ObserveBatch allocates nothing.
	batchAct, batchAud   [][]float64
	batchSamples         []core.Sample
	batchFhat, batchAhat [][]float64

	observed int
	detected int

	// observing guards the single-writer contract on the Observe path.
	observing atomic.Int32
}

// ErrNonFinite is returned (wrapped; match it with errors.Is) when Train
// meets a NaN or ±Inf where it needs a finite number — in a training
// feature, or in the calibrated threshold τ — and when Observe or
// ObserveBatch is handed a non-finite feature. Every case would fail open:
// a NaN τ or score makes `score > τ` false, so the detector reports
// "normal" without being able to raise an alarm (a NaN segment poisons
// the next SeqLen predictions through the window, too). The bad input is
// refused instead, before it touches any state.
var ErrNonFinite = errors.New("aovlis: non-finite value")

// Train fits a detector on a normal (anomaly-free) feature series: the
// CLSTM is trained on 75% of the sequences, τ is calibrated on the
// remaining 25%, and the dynamic updater (when enabled) is seeded with the
// training hidden states. Non-finite features or a non-finite τ fail with
// ErrNonFinite.
func Train(actions, audience [][]float64, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkFinite("action", actions); err != nil {
		return nil, err
	}
	if err := checkFinite("audience", audience); err != nil {
		return nil, err
	}
	model, err := core.NewModel(cfg.modelConfig())
	if err != nil {
		return nil, err
	}
	samples, err := core.BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		return nil, err
	}
	split := len(samples) * 3 / 4
	if split == 0 || split == len(samples) {
		return nil, fmt.Errorf("aovlis: need more training data (%d sequences)", len(samples))
	}
	train, valid := samples[:split], samples[split:]
	rng := rand.New(rand.NewSource(cfg.Seed))
	for e := 0; e < cfg.Epochs; e++ {
		if _, err := model.TrainEpoch(train, rng); err != nil {
			return nil, fmt.Errorf("aovlis: training epoch %d: %w", e, err)
		}
	}
	valScores := make([]float64, 0, len(valid))
	for i := range valid {
		sc, err := model.Score(&valid[i])
		if err != nil {
			return nil, err
		}
		valScores = append(valScores, sc.REIA)
	}
	tau := core.CalibrateThreshold(valScores, cfg.TauQuantile)
	if math.IsNaN(tau) || math.IsInf(tau, 0) {
		return nil, fmt.Errorf("%w: calibrated τ is %v", ErrNonFinite, tau)
	}

	d := &Detector{cfg: cfg, model: model, tau: tau}
	if err := d.initRuntime(train); err != nil {
		return nil, err
	}
	return d, nil
}

// checkFinite reports the first NaN or ±Inf in a training feature series.
func checkFinite(stream string, series [][]float64) error {
	for t, row := range series {
		if i := nonFinite(row); i >= 0 {
			return fmt.Errorf("%w: %s feature %d of segment %d is %v", ErrNonFinite, stream, i, t, row[i])
		}
	}
	return nil
}

// nonFinite returns the index of the first NaN or ±Inf in row, or -1.
func nonFinite(row []float64) int {
	for i, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// checkSegment validates one observed segment — the detector's feature
// dims and finite values — before it may touch the window or counters.
func (d *Detector) checkSegment(actionFeat, audienceFeat []float64) error {
	if len(actionFeat) != d.cfg.ActionDim || len(audienceFeat) != d.cfg.AudienceDim {
		return fmt.Errorf("aovlis: feature dims %d/%d, detector expects %d/%d",
			len(actionFeat), len(audienceFeat), d.cfg.ActionDim, d.cfg.AudienceDim)
	}
	if i := nonFinite(actionFeat); i >= 0 {
		return fmt.Errorf("%w: action feature %d is %v", ErrNonFinite, i, actionFeat[i])
	}
	if i := nonFinite(audienceFeat); i >= 0 {
		return fmt.Errorf("%w: audience feature %d is %v", ErrNonFinite, i, audienceFeat[i])
	}
	return nil
}

// initRuntime builds the filter and updater around the trained model.
func (d *Detector) initRuntime(seedSamples []core.Sample) error {
	fcfg := ados.DefaultConfig(d.tau, d.cfg.Omega)
	if !d.cfg.UseADOS {
		fcfg.Strategy = ados.StrategyNoBound
	}
	filter, err := ados.NewFilter(fcfg)
	if err != nil {
		return err
	}
	d.filter = filter
	if d.cfg.Tiered {
		tier, err := ados.NewTierPlan(d.cfg.tierConfig(), d.cfg.ActionDim, d.cfg.AudienceDim)
		if err != nil {
			return err
		}
		d.tier = tier
	}
	// FastMath is a runtime mode of the inference plan, not part of the
	// serialised model: every construction path re-applies it here.
	d.model.SetFastMath(d.cfg.FastMath)
	if d.cfg.EnableUpdate {
		upd, err := update.New(d.model, d.cfg.Update)
		if err != nil {
			return err
		}
		if seedSamples != nil {
			if err := upd.SeedHistory(seedSamples); err != nil {
				return err
			}
		}
		d.upd = upd
	}
	return nil
}

// Tau returns the calibrated anomaly threshold τ.
func (d *Detector) Tau() float64 { return d.tau }

// Dims reports the feature dimensions the detector scores
// (Config.ActionDim, Config.AudienceDim). Serving front doors use it to
// reject mis-dimensioned observations before they occupy queue space or
// enter a durable journal.
func (d *Detector) Dims() (actionDim, audienceDim int) {
	return d.cfg.ActionDim, d.cfg.AudienceDim
}

// SetTau overrides the anomaly threshold (re-deriving the filter).
func (d *Detector) SetTau(tau float64) error {
	d.tau = tau
	fcfg := d.filter.Config()
	fcfg.Tau = tau
	filter, err := ados.NewFilter(fcfg)
	if err != nil {
		return err
	}
	d.filter = filter
	return nil
}

// Model exposes the underlying CLSTM (used by experiments). The model owns
// a reused autodiff tape, so even read-shaped calls like Predict or Hidden
// mutate per-step state: treat Model access as writer activity under the
// detector's single-writer contract and never overlap it with Observe.
func (d *Detector) Model() *core.Model { return d.model }

// FilterStats returns the ADOS filter activity counters.
func (d *Detector) FilterStats() ados.Stats { return d.filter.Stats() }

// SetScoringMode reconfigures the runtime scoring tiers of an existing
// detector — the fast-math gate kernels and the bound-gated tier skip —
// for detectors restored by Load from a model saved without them. Both
// fields of the scoring mode are set; enabling Tiered on an untiered
// detector builds a fresh gate, disabling drops it. SetScoringMode
// mutates detector state and is writer activity under the single-writer
// contract; future Clone/Save calls carry the new mode.
func (d *Detector) SetScoringMode(fastMath, tiered bool) error {
	if tiered && d.tier == nil {
		tier, err := ados.NewTierPlan(d.cfg.tierConfig(), d.cfg.ActionDim, d.cfg.AudienceDim)
		if err != nil {
			return err
		}
		d.tier = tier
	}
	if !tiered {
		d.tier = nil
	}
	d.cfg.FastMath = fastMath
	d.cfg.Tiered = tiered
	d.model.SetFastMath(fastMath)
	return nil
}

// ScoringMode reports the detector's current runtime scoring mode (the
// pair SetScoringMode sets). The serving layer's admission controller uses
// it to capture a channel's configured mode before degrading to tiered
// scoring under overload, so recovery restores exactly what was set.
func (d *Detector) ScoringMode() (fastMath, tiered bool) {
	return d.cfg.FastMath, d.cfg.Tiered
}

// TierStats returns the tier gate counters (the zero value when Tiered is
// off).
func (d *Detector) TierStats() ados.TierStats {
	if d.tier == nil {
		return ados.TierStats{}
	}
	return d.tier.Stats()
}

// Observed and Detected return stream-lifetime counters.
func (d *Detector) Observed() int { return d.observed }

// Detected returns how many segments were flagged as anomalies.
func (d *Detector) Detected() int { return d.detected }

// Observe feeds the features of the next segment. Once q segments of
// history are buffered, each call predicts the incoming segment from the
// window, scores it (through the ADOS filter when enabled) and returns the
// decision; the window then slides forward.
//
// Observe takes ownership of both slices without copying them: they stay
// in the window for SeqLen more segments and, with EnableUpdate, in the
// updater's retraining buffer. The caller must not write to them after
// the call.
//
// Observe is not safe for concurrent use: a call that overlaps another
// Observe on the same Detector returns ErrConcurrentObserve (see the
// concurrency contract on Detector).
func (d *Detector) Observe(actionFeat, audienceFeat []float64) (Result, error) {
	if !d.observing.CompareAndSwap(0, 1) {
		return Result{}, ErrConcurrentObserve
	}
	defer d.observing.Store(0)
	return d.observeLocked(actionFeat, audienceFeat)
}

// observeLocked is Observe's body, shared with the tiered ObserveBatch
// path; the caller holds the single-writer flag.
func (d *Detector) observeLocked(actionFeat, audienceFeat []float64) (Result, error) {
	if err := d.checkSegment(actionFeat, audienceFeat); err != nil {
		return Result{}, err
	}
	d.observed++
	if len(d.actWin) < d.cfg.SeqLen {
		d.actWin = append(d.actWin, actionFeat)
		d.audWin = append(d.audWin, audienceFeat)
		return Result{Warmup: true}, nil
	}

	if d.fhatBuf == nil {
		d.fhatBuf = make([]float64, d.cfg.ActionDim)
		d.ahatBuf = make([]float64, d.cfg.AudienceDim)
	}
	// Tier 0: the anchor bound may clear the segment as normal without
	// running the model at all. The gate reads the filter's live config so
	// SetTau/Recalibrate are honoured immediately.
	var res Result
	scored := false
	if d.tier != nil {
		if tres, ok := d.tier.Gate(actionFeat, audienceFeat, d.filter.Config()); ok {
			res = Result{
				Anomaly: false,
				Score:   tres.REIA,
				Exact:   false,
				Path:    tres.Path.String(),
			}
			scored = true
		}
	}
	if !scored {
		sample := core.Sample{
			ActionSeq:      d.actWin,
			AudienceSeq:    d.audWin,
			ActionTarget:   actionFeat,
			AudienceTarget: audienceFeat,
			Index:          d.observed - 1,
		}
		if err := d.model.PredictInto(&sample, d.fhatBuf, d.ahatBuf); err != nil {
			return Result{}, err
		}
		fres, err := d.filter.Decide(actionFeat, d.fhatBuf, audienceFeat, d.ahatBuf)
		if err != nil {
			return Result{}, err
		}
		if d.tier != nil {
			d.tier.Commit(actionFeat, d.fhatBuf, d.ahatBuf, fres.Anomaly)
		}
		res = Result{
			Anomaly: fres.Anomaly,
			Score:   fres.REIA,
			Exact:   fres.Exact,
			Path:    fres.Path.String(),
		}
	}
	if res.Anomaly {
		d.detected++
	}

	// Dynamic maintenance (Fig. 5): buffer presumed-normal segments and
	// update on drift. The interaction level is the mean of the count
	// block, computed directly from the audience feature. The buffered
	// sample gets its own window headers because the detector's window
	// slides in place.
	if d.upd != nil {
		level := interactionLevel(audienceFeat)
		buffered := core.Sample{
			ActionSeq:      copyWindow(d.actWin),
			AudienceSeq:    copyWindow(d.audWin),
			ActionTarget:   actionFeat,
			AudienceTarget: audienceFeat,
			Index:          d.observed - 1,
		}
		upRes, err := d.upd.Observe(buffered, level)
		if err != nil {
			return Result{}, fmt.Errorf("aovlis: dynamic update: %w", err)
		}
		res.Updated = upRes.Updated
	}

	// Slide the window in place (allocation-free): only the window's own
	// header array mutates. Buffered update samples stay stable because
	// copyWindow gave them their own header arrays, and the per-segment
	// feature rows themselves are never written.
	copy(d.actWin, d.actWin[1:])
	d.actWin[len(d.actWin)-1] = actionFeat
	copy(d.audWin, d.audWin[1:])
	d.audWin[len(d.audWin)-1] = audienceFeat
	return res, nil
}

// ObserveBatch feeds n = len(actionFeats) consecutive segments of one
// stream in a single call and fills results[0:n] with the per-segment
// verdicts — the micro-batching form of Observe the serve layer's shard
// workers use to amortise inference across a channel's pending queue.
//
// ObserveBatch is bit-identical to n sequential Observe calls: the i-th
// lane's prediction window is the detector's window as it would stand
// after segments 0..i-1, all full-window lanes are scored through
// Model.PredictBatchInto (itself bit-identical to per-sample PredictInto),
// and the filter/update pipeline then runs serially per lane in order.
// The one subtlety is dynamic updates: predictions are made optimistically
// with the weights at batch start, and if lane i's update step retrains
// the model (moving the parameter version), the not-yet-consumed lanes
// i+1.. are re-predicted with the new weights — exactly what the serial
// path would have used. Updates are drift-triggered and rare, so the
// replay cost is amortised away.
//
// It returns the number of fully processed segments. On error, processing
// stops at the offending lane exactly as a serial Observe sequence would:
// results[0:n] are valid, the window reflects segments 0..n-1, lane n's
// error is returned, and lanes after n are untouched (the caller may
// resubmit them). Like Observe, ObserveBatch is single-writer: a call
// racing any other writer fails with ErrConcurrentObserve, and it keeps
// the feature rows under Observe's ownership rule (the outer slices are
// the caller's to reuse).
func (d *Detector) ObserveBatch(actionFeats, audienceFeats [][]float64, results []Result) (int, error) {
	if len(audienceFeats) != len(actionFeats) || len(results) < len(actionFeats) {
		return 0, fmt.Errorf("aovlis: ObserveBatch slice lengths %d/%d/%d disagree",
			len(actionFeats), len(audienceFeats), len(results))
	}
	if len(actionFeats) == 0 {
		return 0, nil
	}
	if !d.observing.CompareAndSwap(0, 1) {
		return 0, ErrConcurrentObserve
	}
	defer d.observing.Store(0)

	// Tier gating is sequential state — each lane's verdict may move the
	// anchor that gates the next — so tiered batches score serially, lane
	// by lane. This is trivially bit-identical to n Observe calls (it IS
	// n Observe bodies) and keeps the prefix-commit error semantics: a
	// failing lane i returns (i, err) with lanes 0..i-1 fully committed.
	if d.tier != nil {
		for i := range actionFeats {
			res, err := d.observeLocked(actionFeats[i], audienceFeats[i])
			if err != nil {
				return i, err
			}
			results[i] = res
		}
		return len(actionFeats), nil
	}

	// The maximal prefix of valid lanes (dims and finite features); the
	// first invalid lane (if any) gets its error after the prefix commits,
	// exactly like a serial Observe sequence where a bad segment fails
	// without touching the window or counters.
	valid := len(actionFeats)
	var laneErr error
	for i := range actionFeats {
		if laneErr = d.checkSegment(actionFeats[i], audienceFeats[i]); laneErr != nil {
			valid = i
			break
		}
	}
	if valid == 0 {
		return 0, laneErr
	}

	// Combined header sequence [window..., segments...]: lane i's window is
	// the q rows ending just before segment i. Only headers are copied; the
	// feature rows themselves are never written.
	q := d.cfg.SeqLen
	w0 := len(d.actWin)
	d.batchAct = append(d.batchAct[:0], d.actWin...)
	d.batchAud = append(d.batchAud[:0], d.audWin...)
	d.batchAct = append(d.batchAct, actionFeats[:valid]...)
	d.batchAud = append(d.batchAud, audienceFeats[:valid]...)

	// Lanes still inside warm-up form a prefix (the window only grows).
	warm := 0
	if w0 < q {
		warm = q - w0
		if warm > valid {
			warm = valid
		}
	}
	base := d.observed
	d.batchSamples = d.batchSamples[:0]
	for i := warm; i < valid; i++ {
		start := w0 + i - q
		d.batchSamples = append(d.batchSamples, core.Sample{
			ActionSeq:      d.batchAct[start : start+q],
			AudienceSeq:    d.batchAud[start : start+q],
			ActionTarget:   actionFeats[i],
			AudienceTarget: audienceFeats[i],
			Index:          base + i,
		})
	}
	d.ensureBatchBufs(len(d.batchSamples))
	commit := func(n int) {
		end := w0 + n
		start := end - q
		if start < 0 {
			start = 0
		}
		d.actWin = append(d.actWin[:0], d.batchAct[start:end]...)
		d.audWin = append(d.audWin[:0], d.batchAud[start:end]...)
	}

	if len(d.batchSamples) > 0 {
		// Unreachable after the lane validation above (the samples and
		// buffers are built to shape), kept as defence in depth with exact
		// serial semantics: the warm-up prefix succeeds, then the first
		// predicting lane counts itself observed and fails with the window
		// holding the warm-up appends only.
		if err := d.model.PredictBatchInto(d.batchSamples, d.batchFhat[:len(d.batchSamples)], d.batchAhat[:len(d.batchSamples)]); err != nil {
			for i := 0; i < warm; i++ {
				d.observed++
				results[i] = Result{Warmup: true}
			}
			d.observed++ // the failing lane
			commit(warm)
			releaseBatchRefs(d.batchAct, d.batchAud, d.batchSamples)
			return warm, err
		}
	}
	version := d.model.Params().Version()
	for i := 0; i < valid; i++ {
		d.observed++
		if i < warm {
			results[i] = Result{Warmup: true}
			continue
		}
		si := i - warm
		fres, err := d.filter.Decide(actionFeats[i], d.batchFhat[si], audienceFeats[i], d.batchAhat[si])
		if err != nil {
			commit(i)
			releaseBatchRefs(d.batchAct, d.batchAud, d.batchSamples)
			return i, err
		}
		results[i] = Result{
			Anomaly: fres.Anomaly,
			Score:   fres.REIA,
			Exact:   fres.Exact,
			Path:    fres.Path.String(),
		}
		if results[i].Anomaly {
			d.detected++
		}
		if d.upd != nil {
			s := &d.batchSamples[si]
			buffered := core.Sample{
				ActionSeq:      copyWindow(s.ActionSeq),
				AudienceSeq:    copyWindow(s.AudienceSeq),
				ActionTarget:   actionFeats[i],
				AudienceTarget: audienceFeats[i],
				Index:          s.Index,
			}
			upRes, err := d.upd.Observe(buffered, interactionLevel(audienceFeats[i]))
			if err != nil {
				commit(i)
				releaseBatchRefs(d.batchAct, d.batchAud, d.batchSamples)
				return i, fmt.Errorf("aovlis: dynamic update: %w", err)
			}
			results[i].Updated = upRes.Updated
			// A retrain invalidates the optimistic predictions: replay the
			// remaining lanes with the post-update weights, which is what
			// the serial path would have predicted them with.
			if v := d.model.Params().Version(); v != version {
				version = v
				if rest := len(d.batchSamples) - (si + 1); rest > 0 {
					if err := d.model.PredictBatchInto(d.batchSamples[si+1:], d.batchFhat[si+1:si+1+rest], d.batchAhat[si+1:si+1+rest]); err != nil {
						// Defence in depth (see above): serially, lane i+1
						// would count itself observed and then fail its
						// predict with the window unmoved past lane i.
						d.observed++
						commit(i + 1)
						releaseBatchRefs(d.batchAct, d.batchAud, d.batchSamples)
						return i + 1, err
					}
				}
			}
		}
	}
	commit(valid)
	releaseBatchRefs(d.batchAct, d.batchAud, d.batchSamples)
	return valid, laneErr
}

// ensureBatchBufs sizes the lane prediction buffers (headers over one flat
// backing each) for n lanes, reallocating only on growth.
func (d *Detector) ensureBatchBufs(n int) {
	if cap(d.batchFhat) >= n {
		d.batchFhat = d.batchFhat[:n]
		d.batchAhat = d.batchAhat[:n]
		return
	}
	d.batchFhat = make([][]float64, n)
	d.batchAhat = make([][]float64, n)
	fdata := make([]float64, n*d.cfg.ActionDim)
	adata := make([]float64, n*d.cfg.AudienceDim)
	for i := 0; i < n; i++ {
		d.batchFhat[i] = fdata[i*d.cfg.ActionDim : (i+1)*d.cfg.ActionDim]
		d.batchAhat[i] = adata[i*d.cfg.AudienceDim : (i+1)*d.cfg.AudienceDim]
	}
}

// releaseBatchRefs drops caller feature headers from the reused batch
// scratch so they are not pinned past the call.
func releaseBatchRefs(act, aud [][]float64, samples []core.Sample) {
	for i := range act {
		act[i] = nil
	}
	for i := range aud {
		aud[i] = nil
	}
	for i := range samples {
		samples[i] = core.Sample{}
	}
}

// copyWindow duplicates the outer slice headers; the per-segment feature
// vectors themselves are treated as immutable.
func copyWindow(w [][]float64) [][]float64 {
	out := make([][]float64, len(w))
	copy(out, w)
	return out
}

// interactionLevel approximates the normalised audience interaction of a
// feature vector as the mean of its leading (count) components; the count
// block is the first part of Φ_D's output by construction.
func interactionLevel(audienceFeat []float64) float64 {
	n := len(audienceFeat) / 2
	if n == 0 {
		return 0
	}
	var sum float64
	for _, v := range audienceFeat[:n] {
		sum += v
	}
	return sum / float64(n)
}

// Recalibrate rescores a (presumed mostly normal) feature series with the
// current model and moves τ to the given quantile of its REIA scores. Call
// it after incremental updates have shifted the model's score distribution,
// or when deploying to a stream with a different baseline.
func (d *Detector) Recalibrate(actions, audience [][]float64, quantile float64) error {
	samples, err := core.BuildSamples(actions, audience, d.cfg.SeqLen)
	if err != nil {
		return fmt.Errorf("aovlis: recalibrating: %w", err)
	}
	scores := make([]float64, 0, len(samples))
	for i := range samples {
		sc, err := d.model.Score(&samples[i])
		if err != nil {
			return err
		}
		scores = append(scores, sc.REIA)
	}
	return d.SetTau(core.CalibrateThreshold(scores, quantile))
}

// DetectSeries scores an entire feature series offline and returns one
// Result per segment (warm-up results for the first q segments).
func (d *Detector) DetectSeries(actions, audience [][]float64) ([]Result, error) {
	if len(actions) != len(audience) {
		return nil, fmt.Errorf("aovlis: series lengths %d vs %d", len(actions), len(audience))
	}
	out := make([]Result, 0, len(actions))
	for i := range actions {
		r, err := d.Observe(actions[i], audience[i])
		if err != nil {
			return nil, fmt.Errorf("aovlis: segment %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// detectorWire is the gob envelope for Save/Load.
type detectorWire struct {
	Config Config
	Tau    float64
}

// Save serialises the detector (configuration, threshold, model weights).
func (d *Detector) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(detectorWire{Config: d.cfg, Tau: d.tau}); err != nil {
		return fmt.Errorf("aovlis: encoding detector: %w", err)
	}
	return d.model.Save(w)
}

// Clone returns an independent detector with the same configuration,
// threshold and model weights but a fresh observation window, filter and
// updater — the way to monitor many channels from one trained model: train
// (or Load) once, Clone per channel. Clone only reads the detector, but it
// must not overlap a writer (see the concurrency contract).
func (d *Detector) Clone() (*Detector, error) {
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		return nil, fmt.Errorf("aovlis: cloning detector: %w", err)
	}
	return Load(&buf)
}

// Load restores a detector written by Save. The restored detector starts
// with an empty observation window and fresh updater state.
func Load(r io.Reader) (*Detector, error) {
	// One shared buffered reader for the whole chain of gob decoders: gob
	// privately buffers (and over-reads) any reader that is not an
	// io.ByteReader, which would starve the model decoder that follows when
	// loading straight from a file.
	r = snapshot.Reader(r)
	var wire detectorWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("aovlis: decoding detector: %w", err)
	}
	model, err := core.LoadModel(r)
	if err != nil {
		return nil, err
	}
	d := &Detector{cfg: wire.Config, model: model, tau: wire.Tau}
	if err := d.initRuntime(nil); err != nil {
		return nil, err
	}
	return d, nil
}

// detectorSnapWire is the gob payload of a full-runtime detector snapshot,
// written after the versioned snapshot envelope. It captures everything
// Save leaves behind: the sliding q-length windows, the stream counters,
// the live ADOS filter configuration (which tracks SetTau) and its activity
// counters, and the dynamic updater's buffered samples and drift sketches.
// The model (with optimiser state) follows the payload in the stream.
type detectorSnapWire struct {
	Config      Config
	Tau         float64
	ActWin      [][]float64
	AudWin      [][]float64
	Observed    int
	Detected    int
	FilterCfg   ados.Config
	FilterStats ados.Stats
	HasTier     bool
	Tier        ados.TierState
	HasUpdater  bool
	Updater     update.State
}

// Snapshot serialises the detector's complete runtime state — model
// weights and optimiser moments, threshold, sliding windows, filter
// counters and pending update samples — inside a versioned envelope. A
// detector restored with RestoreDetector produces bit-identical Result
// sequences to this detector continuing uninterrupted, including when
// EnableUpdate is on.
//
// Snapshot reads every piece of mutable state, so it is writer activity
// under the detector's single-writer contract: never overlap it with
// Observe. Like Observe, it enforces the contract cheaply — a Snapshot
// racing an Observe fails with ErrConcurrentObserve instead of committing
// a torn state. The DetectorPool quiesces each channel at a segment
// boundary before snapshotting it, which is the supported way to snapshot
// live traffic.
func (d *Detector) Snapshot(w io.Writer) error {
	if !d.observing.CompareAndSwap(0, 1) {
		return ErrConcurrentObserve
	}
	defer d.observing.Store(0)
	if err := snapshot.WriteHeader(w, snapshot.KindDetector); err != nil {
		return err
	}
	wire := detectorSnapWire{
		Config:      d.cfg,
		Tau:         d.tau,
		ActWin:      d.actWin,
		AudWin:      d.audWin,
		Observed:    d.observed,
		Detected:    d.detected,
		FilterCfg:   d.filter.Config(),
		FilterStats: d.filter.Stats(),
	}
	if d.tier != nil {
		wire.HasTier = true
		wire.Tier = d.tier.State()
	}
	if d.upd != nil {
		wire.HasUpdater = true
		wire.Updater = d.upd.State()
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("aovlis: encoding detector snapshot: %w", err)
	}
	return d.model.SaveRuntime(w)
}

// RestoreDetector rebuilds a detector from a Snapshot stream. The restored
// detector resumes exactly where the snapshotted one stopped: same window
// contents, same threshold, same filter counters, same buffered update
// samples — its future Observe results are bit-identical to an
// uninterrupted run over the same remaining stream.
func RestoreDetector(r io.Reader) (*Detector, error) {
	r = snapshot.Reader(r)
	if _, err := snapshot.ReadHeader(r, snapshot.KindDetector); err != nil {
		return nil, err
	}
	var wire detectorSnapWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("aovlis: decoding detector snapshot: %w", err)
	}
	if err := wire.validate(); err != nil {
		return nil, err
	}
	model, err := core.LoadModel(r)
	if err != nil {
		return nil, err
	}
	// The embedded model must be the one the detector configuration
	// implies: a mismatched pair would restore "successfully" and then fail
	// (or mis-score) on every Observe.
	if mc := wire.Config.modelConfig(); model.Config() != mc {
		return nil, fmt.Errorf("aovlis: snapshot model config %+v does not match detector config %+v", model.Config(), mc)
	}
	d := &Detector{
		cfg:      wire.Config,
		model:    model,
		tau:      wire.Tau,
		actWin:   wire.ActWin,
		audWin:   wire.AudWin,
		observed: wire.Observed,
		detected: wire.Detected,
	}
	filter, err := ados.NewFilter(wire.FilterCfg)
	if err != nil {
		return nil, fmt.Errorf("aovlis: restoring filter: %w", err)
	}
	filter.RestoreStats(wire.FilterStats)
	d.filter = filter
	if wire.Config.Tiered {
		tier, err := ados.NewTierPlan(wire.Config.tierConfig(), wire.Config.ActionDim, wire.Config.AudienceDim)
		if err != nil {
			return nil, fmt.Errorf("aovlis: restoring tier gate: %w", err)
		}
		if err := tier.SetState(wire.Tier); err != nil {
			return nil, fmt.Errorf("aovlis: restoring tier gate: %w", err)
		}
		d.tier = tier
	}
	// Runtime inference mode is config-owned, not snapshot-owned: re-apply.
	d.model.SetFastMath(d.cfg.FastMath)
	if wire.HasUpdater {
		upd, err := update.New(model, d.cfg.Update)
		if err != nil {
			return nil, fmt.Errorf("aovlis: restoring updater: %w", err)
		}
		if err := upd.SetState(wire.Updater); err != nil {
			return nil, fmt.Errorf("aovlis: restoring updater: %w", err)
		}
		d.upd = upd
	}
	return d, nil
}

// validate rejects snapshot payloads whose runtime state cannot belong to
// the embedded configuration — corrupted or hand-edited streams should fail
// here, not as index panics mid-Observe.
func (w *detectorSnapWire) validate() error {
	if err := w.Config.Validate(); err != nil {
		return fmt.Errorf("aovlis: snapshot config: %w", err)
	}
	if len(w.ActWin) != len(w.AudWin) {
		return fmt.Errorf("aovlis: snapshot windows disagree: %d action vs %d audience rows", len(w.ActWin), len(w.AudWin))
	}
	if len(w.ActWin) > w.Config.SeqLen {
		return fmt.Errorf("aovlis: snapshot window has %d rows, config q is %d", len(w.ActWin), w.Config.SeqLen)
	}
	for i := range w.ActWin {
		if len(w.ActWin[i]) != w.Config.ActionDim || len(w.AudWin[i]) != w.Config.AudienceDim {
			return fmt.Errorf("aovlis: snapshot window row %d has dims %d/%d, config wants %d/%d",
				i, len(w.ActWin[i]), len(w.AudWin[i]), w.Config.ActionDim, w.Config.AudienceDim)
		}
	}
	if w.Observed < 0 || w.Detected < 0 {
		return fmt.Errorf("aovlis: snapshot counters negative (%d observed, %d detected)", w.Observed, w.Detected)
	}
	if w.HasTier != w.Config.Tiered {
		return fmt.Errorf("aovlis: snapshot tier state (%v) disagrees with Config.Tiered (%v)", w.HasTier, w.Config.Tiered)
	}
	if w.HasUpdater && !w.Config.EnableUpdate {
		return fmt.Errorf("aovlis: snapshot carries updater state but EnableUpdate is off")
	}
	if w.Config.EnableUpdate && !w.HasUpdater {
		// An uninterrupted EnableUpdate detector always owns an updater
		// (Train/initRuntime guarantee it); restoring without one would
		// silently never retrain again.
		return fmt.Errorf("aovlis: snapshot config enables updates but carries no updater state")
	}
	return nil
}

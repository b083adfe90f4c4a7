package core

import (
	"errors"
	"fmt"

	"github.com/iese-repro/tauw/internal/fusion"
	"github.com/iese-repro/tauw/internal/uw"
)

// Result is the runtime output of a timeseries-aware wrapper step.
type Result struct {
	// Fused is the information-fused outcome o_i^(if).
	Fused int
	// Uncertainty is the dependable uncertainty of the fused outcome.
	Uncertainty float64
	// Stateless is the per-step base-wrapper estimate for the
	// momentaneous outcome (u_i).
	Stateless uw.Estimate
	// TAQF holds the four timeseries-aware quality factors computed at
	// this step (indexed Ratio-1..Certainty-1).
	TAQF [4]float64
	// SeriesLen is the buffered series length including this step: the
	// window the taQF are computed over. Under a BufferLimit it saturates
	// at the limit once the ring starts evicting.
	SeriesLen int
	// TotalSteps is the number of steps observed since the series began,
	// including any a full ring buffer has evicted. TotalSteps ==
	// SeriesLen while no eviction has happened; the difference is the
	// number of evicted steps.
	TotalSteps int
	// TAQIMLeaf is the timeseries-aware quality-impact-model region that
	// produced Uncertainty — the estimate's provenance, the taQIM
	// counterpart of Stateless.LeafID. It is -1 when no taQIM was involved
	// (the uncertainty-fusion baselines).
	TAQIMLeaf int
	// ModelVersion identifies the taQIM revision that produced Uncertainty
	// when the step ran through a WrapperPool (versions start at 1 and
	// increment on every hot-swap, see WrapperPool.SwapModel). Standalone
	// wrappers have no version registry and report 0.
	ModelVersion uint64
}

// Config assembles a timeseries-aware wrapper.
type Config struct {
	// Features selects which taQF feed the taQIM (default: all four).
	Features []Feature
	// Fuser is the information-fusion rule (default: majority vote with
	// most-recent tie-break, as in the paper).
	Fuser fusion.OutcomeFuser
	// BufferLimit caps the timeseries buffer (0 = unbounded).
	BufferLimit int
}

func (c Config) withDefaults() Config {
	if len(c.Features) == 0 {
		c.Features = AllFeatures()
	}
	if c.Fuser == nil {
		c.Fuser = fusion.MajorityVote{}
	}
	return c
}

// Wrapper is the timeseries-aware uncertainty wrapper (taUW): the base
// stateless wrapper supplies per-step estimates, the buffer accumulates the
// series, the fusion rule improves the outcome, and the taQIM turns
// stateless factors plus taQF into a dependable uncertainty for the fused
// outcome. It is not safe for concurrent use.
//
// When the fusion rule has an incremental form (fusion.Incremental — the
// default majority vote does), Step runs a fast path that is O(1) in the
// series length — O(distinct outcomes in the window) — and allocation-free
// in steady state: the fused outcome comes from a running tally, the taQF
// from the buffer's running statistics, and the taQIM row is assembled into
// a scratch slice sized at construction. Other fusers fall back to the
// reference full-series path.
type Wrapper struct {
	base  *uw.Wrapper
	taqim *uw.QualityImpactModel
	fuser fusion.OutcomeFuser
	feats []Feature
	buf   Buffer
	// tally is the incremental fusion state (nil = reference path).
	tally fusion.Tally
	// row is the scratch slice taQIM input rows are assembled into.
	row []float64
}

// NewWrapper assembles a taUW from a fitted base wrapper and a calibrated
// timeseries-aware quality impact model (see FitTimeseriesQIM). The feature
// subset must match the one used to fit the taQIM.
func NewWrapper(base *uw.Wrapper, taqim *uw.QualityImpactModel, cfg Config) (*Wrapper, error) {
	cfg, err := resolveConfig(base, taqim, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Features = append([]Feature(nil), cfg.Features...)
	w := &Wrapper{}
	w.init(base, taqim, cfg)
	return w, nil
}

// resolveConfig validates a wrapper's parts and fills in the configuration's
// defaults.
func resolveConfig(base *uw.Wrapper, taqim *uw.QualityImpactModel, cfg Config) (Config, error) {
	if base == nil {
		return cfg, errors.New("core: base wrapper is required")
	}
	if taqim == nil {
		return cfg, errors.New("core: timeseries-aware quality impact model is required")
	}
	cfg = cfg.withDefaults()
	for _, f := range cfg.Features {
		if f < Ratio || f > Certainty {
			return cfg, fmt.Errorf("core: unknown feature %d", int(f))
		}
	}
	if cfg.BufferLimit < 0 {
		return cfg, fmt.Errorf("core: buffer limit %d must be >= 0", cfg.BufferLimit)
	}
	return cfg, nil
}

// init sets up an empty wrapper from a resolved configuration, allocating
// all of its storage at once: the buffer's records and statistics, the
// tally and the taQIM row. cfg.Features is kept, not copied; a pool passes
// every series its one resolved feature list.
func (w *Wrapper) init(base *uw.Wrapper, taqim *uw.QualityImpactModel, cfg Config) {
	*w = Wrapper{
		base:  base,
		taqim: taqim,
		fuser: cfg.Fuser,
		feats: cfg.Features,
		row:   make([]float64, 0, taqim.NumFeatures()),
	}
	w.buf.init(cfg.BufferLimit)
	if inc, ok := cfg.Fuser.(fusion.Incremental); ok {
		w.tally = inc.NewTally() // nil when the configuration has no incremental form
	}
}

// NewSeries clears the timeseries buffer; call it when the tracking
// component reports that subsequent predictions relate to a new physical
// object.
func (w *Wrapper) NewSeries() {
	w.buf.Reset()
	if w.tally != nil {
		w.tally.Reset()
	}
}

// SeriesLen returns the current buffered series length.
func (w *Wrapper) SeriesLen() int { return w.buf.Len() }

// TotalSteps returns the number of steps observed since the series began,
// including steps a full ring buffer has evicted.
func (w *Wrapper) TotalSteps() int { return w.buf.TotalSteps() }

// Step processes one timestep: the momentaneous DDM outcome and the
// stateless quality factors observed with it. It returns the fused outcome
// and its dependable uncertainty. The wrapper reads quality only during the
// call and keeps no reference to it, so the caller may reuse the slice as
// soon as Step returns.
func (w *Wrapper) Step(outcome int, quality []float64) (Result, error) {
	return w.StepScoped(outcome, quality, nil)
}

// StepScoped is Step with scope factors: when the base wrapper carries a
// scope-compliance model (e.g. GPS inside the target application scope), the
// per-step estimate combines input-quality and scope uncertainty, and an
// out-of-scope frame saturates the fused uncertainty at 1 — the deployment
// behaviour of the full framework. With a nil scope model the scope factors
// are ignored.
func (w *Wrapper) StepScoped(outcome int, quality, scope []float64) (Result, error) {
	var res Result
	err := w.stepInto(w.taqim, outcome, quality, scope, &res)
	return res, err
}

// stepInto is StepScoped parameterised by the taQIM revision scoring this
// step, writing the step's result into *res, the slot its caller reads, so
// a batch item's result is never copied on its way out; on error *res is
// left as it was. The pool's hot-swap path loads the current model once per
// step and passes it here, so every step sees exactly one model revision
// even while a swap lands concurrently; standalone wrappers pass their own
// taqim. The model must share the construction-time feature layout
// (SwapModel guards this).
//
//tauw:hotpath
func (w *Wrapper) stepInto(taqim *uw.QualityImpactModel, outcome int, quality, scope []float64, res *Result) error {
	est, err := w.base.Estimate(outcome, quality, scope)
	if err != nil {
		return fmt.Errorf("core: base estimate: %w", err)
	}
	evicted, wasEvicted := w.buf.Append(Record{Outcome: outcome, Uncertainty: est.Uncertainty})
	var fused int
	var taqf [4]float64
	if w.tally != nil {
		// Fast path: O(1) in the series length, allocation-free in steady
		// state. Estimate guarantees the uncertainty the tally sees equals
		// the one the buffer stored (both in [0,1]).
		if wasEvicted {
			w.tally.Evict(evicted.Outcome, evicted.Uncertainty)
		}
		w.tally.Push(outcome, est.Uncertainty)
		fused, err = w.tally.Fused()
		if err != nil {
			return fmt.Errorf("core: information fusion: %w", err)
		}
		taqf, err = w.buf.FeaturesAt(fused)
		if err != nil {
			return err
		}
	} else {
		// Reference path for fusers without an incremental form: replay the
		// buffered series through the fuser and the taQF oracle. Production
		// pools always run the tally path above; the replay's allocations are
		// a deliberate trade for keeping the oracle byte-for-byte simple.
		//tauwcheck:ignore hotpath reference replay branch, never taken by pooled wrappers
		outcomes := w.buf.Outcomes()
		//tauwcheck:ignore hotpath reference replay branch, never taken by pooled wrappers
		us := w.buf.Uncertainties()
		fused, err = w.fuser.Fuse(outcomes, us)
		if err != nil {
			return fmt.Errorf("core: information fusion: %w", err)
		}
		//tauwcheck:ignore hotpath reference replay branch, never taken by pooled wrappers
		taqf, err = ComputeFeatures(outcomes, us, fused)
		if err != nil {
			return err
		}
	}
	row := w.assembleRow(quality, taqf)
	u, leaf, err := taqim.Predict(row)
	if err != nil {
		return fmt.Errorf("core: timeseries-aware estimate: %w", err)
	}
	// Scope-compliance uncertainty is independent of the timeseries
	// evidence: combine it multiplicatively, as the base framework does.
	if us := est.ScopeUncertainty; us > 0 {
		u = 1 - (1-u)*(1-us)
		if u > 1 {
			u = 1
		}
	}
	// Field by field: a composite literal would be built in a temporary
	// and then copied into *res.
	res.Fused = fused
	res.Uncertainty = u
	res.Stateless = est
	res.TAQF = taqf
	res.SeriesLen = w.buf.Len()
	res.TotalSteps = w.buf.TotalSteps()
	res.TAQIMLeaf = leaf
	res.ModelVersion = 0
	return nil
}

// assembleRow concatenates the stateless quality factors with the selected
// taQF — the input layout of the taQIM — into the wrapper's scratch slice,
// which is overwritten by the next step. The feature subset was validated at
// construction, so selection cannot fail.
func (w *Wrapper) assembleRow(quality []float64, taqf [4]float64) []float64 {
	row := w.row[:0]
	row = append(row, quality...)
	for _, f := range w.feats {
		row = append(row, taqf[f-1])
	}
	w.row = row
	return row
}

// TAQIM exposes the timeseries-aware quality impact model for inspection
// (rules, importances).
func (w *Wrapper) TAQIM() *uw.QualityImpactModel { return w.taqim }

// Base exposes the stateless wrapper.
func (w *Wrapper) Base() *uw.Wrapper { return w.base }

// UFWrapper runs the same information-fusion pipeline but estimates the
// joint uncertainty with one of the uncertainty-fusion baselines (naïve,
// opportune, worst-case, or the timeseries-unaware pass-through) instead of
// a taQIM. It exists to reproduce the paper's comparisons and to let
// deployments choose a baseline at runtime. Uncertainty fusion consumes the
// full uncertainty series, so UFWrapper has no O(1) fast path.
type UFWrapper struct {
	base  *uw.Wrapper
	fuser fusion.OutcomeFuser
	uf    fusion.UncertaintyFuser
	buf   *Buffer
}

// NewUFWrapper assembles an uncertainty-fusion baseline wrapper.
func NewUFWrapper(base *uw.Wrapper, uf fusion.UncertaintyFuser, cfg Config) (*UFWrapper, error) {
	if base == nil {
		return nil, errors.New("core: base wrapper is required")
	}
	if uf == nil {
		return nil, errors.New("core: uncertainty fuser is required")
	}
	cfg = cfg.withDefaults()
	buf, err := NewBuffer(cfg.BufferLimit)
	if err != nil {
		return nil, err
	}
	return &UFWrapper{base: base, fuser: cfg.Fuser, uf: uf, buf: buf}, nil
}

// NewSeries clears the timeseries buffer.
func (w *UFWrapper) NewSeries() { w.buf.Reset() }

// SeriesLen returns the current buffered series length.
func (w *UFWrapper) SeriesLen() int { return w.buf.Len() }

// Step processes one timestep under the baseline uncertainty-fusion rule.
func (w *UFWrapper) Step(outcome int, quality []float64) (Result, error) {
	est, err := w.base.Estimate(outcome, quality, nil)
	if err != nil {
		return Result{}, fmt.Errorf("core: base estimate: %w", err)
	}
	w.buf.Append(Record{Outcome: outcome, Uncertainty: est.Uncertainty})
	outcomes := w.buf.Outcomes()
	us := w.buf.Uncertainties()
	fused, err := w.fuser.Fuse(outcomes, us)
	if err != nil {
		return Result{}, fmt.Errorf("core: information fusion: %w", err)
	}
	u, err := w.uf.Fuse(us)
	if err != nil {
		return Result{}, fmt.Errorf("core: uncertainty fusion: %w", err)
	}
	taqf, err := ComputeFeatures(outcomes, us, fused)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Fused:       fused,
		Uncertainty: u,
		Stateless:   est,
		TAQF:        taqf,
		SeriesLen:   w.buf.Len(),
		TotalSteps:  w.buf.TotalSteps(),
		TAQIMLeaf:   -1,
	}, nil
}

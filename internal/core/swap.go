// swap.go implements zero-downtime model hot-swap for the wrapper pool: the
// serving taQIM lives behind an atomic pointer paired with a monotonically
// increasing version, so an online recalibration (see internal/recalib) can
// replace the model under full traffic. Concurrent Step/StepBatch calls
// never block on a swap and never observe a torn model — each step loads the
// (model, version) pair once and runs entirely on that revision, with the
// version stamped into its Result for provenance.
package core

import (
	"errors"
	"fmt"

	"github.com/iese-repro/tauw/internal/trace"
	"github.com/iese-repro/tauw/internal/uw"
)

// modelState pairs a taQIM revision with its version. The struct is
// immutable once published through WrapperPool.model; swaps publish a fresh
// one.
type modelState struct {
	qim     *uw.QualityImpactModel
	version uint64
}

// ErrModelShape is returned by SwapModel when the candidate model does not
// match the serving model's shape (factor-vector width or region count).
var ErrModelShape = errors.New("core: swapped model has incompatible shape")

// SwapModel atomically replaces the pool's serving taQIM with next and
// returns the versions before and after the swap. The new model must score
// the same factor-vector width and expose the same number of regions as the
// current one: recalibrated models (uw.QualityImpactModel.Recalibrate)
// preserve both by construction, and any other drop-in must too — a
// different feature width would fail every subsequent step, and a different
// region count would silently detach every leaf-provenance consumer (the
// feedback ring's leaf ids, the per-leaf evidence accumulators sized at
// startup). Swaps serialise among themselves through the CAS loop;
// concurrent steps keep serving whichever revision they loaded.
func (p *WrapperPool) SwapModel(next *uw.QualityImpactModel) (oldVersion, newVersion uint64, err error) {
	if next == nil {
		return 0, 0, errors.New("core: swapped model must not be nil")
	}
	for {
		cur := p.model.Load()
		if got, want := next.NumFeatures(), cur.qim.NumFeatures(); got != want {
			return 0, 0, fmt.Errorf("%w: scores %d features, pool assembles %d", ErrModelShape, got, want)
		}
		if got, want := next.NumRegions(), cur.qim.NumRegions(); got != want {
			return 0, 0, fmt.Errorf("%w: %d regions, serving model has %d", ErrModelShape, got, want)
		}
		ns := &modelState{qim: next, version: cur.version + 1}
		if p.model.CompareAndSwap(cur, ns) {
			if p.trace != nil {
				p.trace.Record(trace.KindSwap, trace.StatusOK, 0, 0, ns.version)
			}
			return cur.version, ns.version, nil
		}
	}
}

// ModelVersion reports the serving model's version (1 until the first swap).
func (p *WrapperPool) ModelVersion() uint64 { return p.model.Load().version }

// CurrentTAQIM returns the taQIM revision currently serving — the base a
// recalibration refreshes. The returned model is immutable; it may be
// superseded by a swap the moment this returns.
func (p *WrapperPool) CurrentTAQIM() *uw.QualityImpactModel { return p.model.Load().qim }

// ServingModel returns the serving model and its version as one consistent
// pair (a single atomic load — reading CurrentTAQIM and ModelVersion
// separately can straddle a swap). The durability layer checkpoints the
// pair.
func (p *WrapperPool) ServingModel() (*uw.QualityImpactModel, uint64) {
	ms := p.model.Load()
	return ms.qim, ms.version
}

// Fingerprint returns the ModelFingerprint of the models the pool was built
// with: the base wrapper's QIM and the construction-time taQIM (revision
// 1). Hot swaps do not change it. The durability layer binds a state
// directory to it, so state is never restored under a different model.
func (p *WrapperPool) Fingerprint() (Fingerprint, error) {
	return ModelFingerprint(p.base.QIM(), p.taqim)
}

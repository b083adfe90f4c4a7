// monitor.go is the pool side of the runtime calibration-monitoring
// subsystem (see internal/monitor for the feedback-side statistics): cheap
// shard-local step accounting on the Step hot path, and a per-track
// provenance ring that lets ground-truth feedback arriving seconds later be
// joined back to the exact estimate it judges.
//
// The split is deliberate. Everything that must run on every step — counter
// bumps and one ring write — lives here, inside the locks Step already
// holds or as shard-local atomics, so monitoring adds a handful of
// nanoseconds and zero allocations to the serving path. Everything that
// only runs when ground truth arrives (windowed Brier, reliability bins,
// drift detection) lives in internal/monitor and never touches the step
// path at all.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"github.com/iese-repro/tauw/internal/trace"
)

// NumOutcomeBuckets is the number of distinct outcome classes the per-shard
// step counters resolve: fused outcomes in [0, NumOutcomeBuckets) each get
// their own counter, everything else (including negative outcomes) lands in
// a shared overflow bucket reported as outcome -1. The bound keeps the
// counters a fixed-size array of atomics — allocation-free and O(1) —
// instead of a map that would need a lock on the hot path.
const NumOutcomeBuckets = 64

// uncertaintyScale is the fixed-point scale of the per-shard uncertainty
// sum: uncertainties in [0,1] are accumulated as integers in units of
// 2^-24, so the sum is a single atomic add instead of a CAS loop. The
// quantisation error (6e-8 per step) is far below the noise floor of the
// mean-uncertainty gauge it feeds; the headroom before overflow is 2^40
// steps per shard.
const uncertaintyScale = 1 << 24

// stepStatsState is the payload of one step-accounting shard: counters
// updated on every monitored step of the tracks owning this shard. All
// fields are atomics because the counters are written after the shard lock
// has been released (only the per-track lock is still held, and tracks
// sharing a shard step concurrently). There is deliberately no total-steps
// counter: the total is the sum of the outcome buckets, so the hot path
// pays two atomic adds instead of three and the read side does the
// arithmetic.
type stepStatsState struct {
	// uncertaintyFP accumulates the served dependable uncertainties in
	// fixed point (see uncertaintyScale).
	uncertaintyFP atomic.Uint64
	// outcomes counts steps by fused outcome; the last slot is the
	// overflow bucket.
	outcomes [NumOutcomeBuckets + 1]atomic.Uint64
}

// stepStatsShard pads the counters to the shard stride so two shards'
// counters never share a cache line or an adjacent-line prefetch pair (the
// same defence trackShard uses; TestShardPadding pins it).
//
//tauw:pad=128
type stepStatsShard struct {
	stepStatsState
	_ [shardPad - unsafe.Sizeof(stepStatsState{})%shardPad]byte
}

// outcomeBucket maps a fused outcome to its counter slot.
func outcomeBucket(outcome int) int {
	if outcome >= 0 && outcome < NumOutcomeBuckets {
		return outcome
	}
	return NumOutcomeBuckets
}

// provRecord is one slot of a track's provenance ring: the estimate the
// wrapper served at the given step, kept so late ground-truth feedback can
// be joined to it. step is the 1-based TotalSteps of the series (0 marks an
// empty slot); taken marks a slot whose feedback has been consumed, so a
// duplicate report is detected instead of double-counted.
type provRecord struct {
	step        uint64
	uncertainty float64
	modelVer    uint64
	fused       int32
	taqimLeaf   int32
	taken       bool
}

// initialRingSlots is the provenance-ring length a monitored track opens
// with (the pool's ringSize if that is smaller). Encounters are short — the
// study's are 10 frames, a GTSRB track at most 30 — so most series never
// outgrow it; longer ones grow by doubling up to the configured ringSize.
const initialRingSlots = 16

// ringLen returns the provenance-ring length of a track that has reached
// step under the cap limit: initialRingSlots doubled until it holds step,
// capped at limit. Opening, growing and restoring a ring all size it here,
// so a restored track continues to grow exactly as the live one would have.
func ringLen(step uint64, limit int) int {
	n := min(initialRingSlots, limit)
	for uint64(n) < step && n < limit {
		n = min(2*n, limit)
	}
	return n
}

// FeedbackRecord is the provenance of one served estimate, returned when
// ground-truth feedback is joined to it.
type FeedbackRecord struct {
	// Step is the 1-based step index within the series (Result.TotalSteps
	// of the step being judged).
	Step int
	// Fused is the fused outcome that was served.
	Fused int
	// Uncertainty is the dependable uncertainty that was served with it.
	Uncertainty float64
	// TAQIMLeaf is the taQIM region that produced the estimate (-1 when
	// the wrapper had no taQIM, e.g. an uncertainty-fusion baseline).
	TAQIMLeaf int
	// ModelVersion is the taQIM revision that served the estimate, so
	// feedback arriving after a hot-swap is still attributed to the model
	// that actually produced the judged uncertainty.
	ModelVersion uint64
}

// ErrFeedbackDisabled is returned by TakeFeedback on a pool built without
// monitoring (or with a zero feedback ring).
var ErrFeedbackDisabled = errors.New("core: feedback ring disabled")

// ErrStepUnavailable is returned when the requested step has no live ring
// slot: the feedback came too late (the ring has wrapped past it), the step
// was never taken, or the series was reset since.
var ErrStepUnavailable = errors.New("core: step not available for feedback")

// ErrDuplicateFeedback is returned when the step's feedback has already
// been consumed.
var ErrDuplicateFeedback = errors.New("core: duplicate feedback for step")

// WithMonitoring enables runtime calibration monitoring on the pool:
// shard-local step accounting (StepCount, UncertaintySum, OutcomeCounts)
// and, when ringSize > 0, a per-track provenance ring of the last ringSize
// estimates that ground-truth feedback is joined against (TakeFeedback).
// ringSize is how far back feedback may reach, not what each track pays up
// front: a track's ring opens at 16 slots of about 40 bytes (fewer if
// ringSize is smaller) and doubles up to ringSize only as the series grows
// past it, so a short encounter costs 640 bytes whatever the cap. Once a
// track's ring has grown, monitoring adds a few atomic increments and one
// ring write to each step and allocates nothing.
func WithMonitoring(ringSize int) PoolOption {
	return func(o *poolOptions) {
		o.monitored = true
		o.ringSize = ringSize
	}
}

// recordStep folds one successful step into the monitoring state. Called
// with the track lock held (the ring belongs to the track); the shard
// counters are atomics shared by every track of the shard.
func (p *WrapperPool) recordStep(pw *pooledWrapper, shard uint64, res *Result) {
	if pw.ring != nil {
		step := uint64(res.TotalSteps)
		if step > uint64(len(pw.ring)) && len(pw.ring) < p.ringSize {
			// A ring shorter than the cap has never wrapped, so every step
			// s it holds sits in slot s-1 at any length and growing is a
			// plain copy: joins, duplicates and late answers stay what a
			// full-size ring would give.
			grown := make([]provRecord, ringLen(step, p.ringSize))
			copy(grown, pw.ring)
			pw.ring = grown
		}
		slot := &pw.ring[(step-1)%uint64(len(pw.ring))]
		slot.step = step
		slot.uncertainty = res.Uncertainty
		slot.modelVer = res.ModelVersion
		slot.fused = int32(res.Fused)
		slot.taqimLeaf = int32(res.TAQIMLeaf)
		slot.taken = false
	}
	st := &p.stepStats[shard]
	st.uncertaintyFP.Add(uint64(res.Uncertainty * uncertaintyScale))
	st.outcomes[outcomeBucket(res.Fused)].Add(1)
}

// TakeFeedback joins one ground-truth report to the estimate the pool
// served at the given step of the track and consumes the ring slot, so a
// repeated report fails with ErrDuplicateFeedback instead of being counted
// twice. Steps older than the ring (or from a series that has since been
// reset) fail with ErrStepUnavailable — the caller decides whether late
// feedback is dropped or logged.
func (p *WrapperPool) TakeFeedback(trackID, step int) (FeedbackRecord, error) {
	rec, err := p.takeFeedback(trackID, step)
	if p.trace != nil {
		status := trace.StatusOK
		switch {
		case err == nil:
		case errors.Is(err, ErrDuplicateFeedback):
			status = trace.StatusDuplicate
		case errors.Is(err, ErrUnknownTrack):
			status = trace.StatusNotFound
		default:
			status = trace.StatusError
		}
		p.trace.Record(trace.KindFeedback, status, uint16(p.shardIndex(trackID)), uint64(trackID), uint64(step))
	}
	return rec, err
}

func (p *WrapperPool) takeFeedback(trackID, step int) (FeedbackRecord, error) {
	if !p.monitored || p.ringSize <= 0 {
		return FeedbackRecord{}, ErrFeedbackDisabled
	}
	sh := p.trackShardFor(trackID)
	sh.mu.Lock()
	pw, ok := sh.tracks[trackID]
	sh.mu.Unlock()
	if !ok {
		return FeedbackRecord{}, unknownTrack(trackID)
	}
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if step <= 0 {
		return FeedbackRecord{}, fmt.Errorf("%w: step %d", ErrStepUnavailable, step)
	}
	slot := &pw.ring[(uint64(step)-1)%uint64(len(pw.ring))]
	if slot.step != uint64(step) {
		return FeedbackRecord{}, fmt.Errorf("%w: step %d", ErrStepUnavailable, step)
	}
	if slot.taken {
		return FeedbackRecord{}, fmt.Errorf("%w: step %d", ErrDuplicateFeedback, step)
	}
	slot.taken = true
	pw.dirty = true
	return FeedbackRecord{
		Step:         step,
		Fused:        int(slot.fused),
		Uncertainty:  slot.uncertainty,
		TAQIMLeaf:    int(slot.taqimLeaf),
		ModelVersion: slot.modelVer,
	}, nil
}

// TakeFeedbackSeries is TakeFeedback addressed by string series id.
func (p *WrapperPool) TakeFeedbackSeries(id string, step int) (FeedbackRecord, error) {
	track, err := p.ResolveSeries(id)
	if err != nil {
		return FeedbackRecord{}, err
	}
	return p.TakeFeedback(track, step)
}

// FeedbackRingSize reports how many of a track's most recent steps
// feedback may reach (0 when feedback is disabled): the cap each track's
// provenance ring grows to by use, not the length it opens with.
func (p *WrapperPool) FeedbackRingSize() int {
	if !p.monitored {
		return 0
	}
	return p.ringSize
}

// StepCount returns the total number of monitored steps served by the pool
// (0 on an unmonitored pool), aggregated over the shard outcome counters on
// read so the step path never contends on a global counter.
func (p *WrapperPool) StepCount() uint64 {
	var n uint64
	for i := range p.stepStats {
		for b := 0; b <= NumOutcomeBuckets; b++ {
			n += p.stepStats[i].outcomes[b].Load()
		}
	}
	return n
}

// UncertaintySum returns the sum of the dependable uncertainties served
// with the monitored steps (fixed-point accumulation, see
// uncertaintyScale); UncertaintySum()/StepCount() is the mean served
// uncertainty.
func (p *WrapperPool) UncertaintySum() float64 {
	var fp uint64
	for i := range p.stepStats {
		fp += p.stepStats[i].uncertaintyFP.Load()
	}
	return float64(fp) / uncertaintyScale
}

// OutcomeCounts visits the per-fused-outcome step counts in ascending
// outcome order, skipping zero counters. The overflow bucket (outcomes
// outside [0, NumOutcomeBuckets)) is reported last as outcome -1. The
// aggregation allocates nothing, so a metrics scrape can sit directly on
// top of it.
func (p *WrapperPool) OutcomeCounts(visit func(outcome int, count uint64)) {
	for b := 0; b <= NumOutcomeBuckets; b++ {
		var n uint64
		for i := range p.stepStats {
			n += p.stepStats[i].outcomes[b].Load()
		}
		if n == 0 {
			continue
		}
		if b == NumOutcomeBuckets {
			visit(-1, n)
		} else {
			visit(b, n)
		}
	}
}

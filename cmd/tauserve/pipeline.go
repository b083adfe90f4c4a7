// pipeline.go is the transport-neutral request core. The JSON handlers
// (server.go, metrics.go) and the wire dispatch (wire.go) are codec shells
// over it: each decodes its request into a pooled serveScratch, runs it
// through admit → deadline check → pool call → simplex gate → errStatus,
// and renders the outcome, a result or a status with its message, in its
// own format. Admission, deadlines, shed events, stage timing and error
// statuses therefore exist once, for both listeners.
package main

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/monitor"
	"github.com/iese-repro/tauw/internal/xslice"
)

// hotEndpoint is one hot endpoint (step, steps, feedback): its admission
// gate and the latency histogram every exchange through it feeds, whichever
// listener it came in on.
type hotEndpoint struct {
	limiter
	lat *monitor.LatencyHist
}

// exchange is one hot request in flight: the endpoint that admitted it and
// the one clock reading its stages are measured from, as offsets.
type exchange struct {
	ep      *hotEndpoint
	start   time.Time
	decoded time.Duration
	stepped time.Duration
}

// enter starts x's clock and admits it to ep. It returns http.StatusOK when
// x holds an admission slot (pair with finish), or the status to shed it
// with and its message — 429 queue full, 503 deadline — already counted and
// traced. A request admitted with its whole budget spent in the queue is
// refused, not half-served. Past admission, only a batch carries the rest
// of the budget on, as a context (stepBatch); a single step or feedback
// join is sub-microsecond, so the check here is its deadline.
//
//tauw:hotpath
func (s *Server) enter(ep *hotEndpoint, x *exchange) (int, string) {
	*x = exchange{ep: ep, start: time.Now()}
	status := ep.admit()
	if status == http.StatusOK && s.requestTimeout > 0 && time.Since(x.start) >= s.requestTimeout {
		ep.noteDeadline()
		ep.release()
		status = http.StatusServiceUnavailable
	}
	if status != http.StatusOK {
		ep.lat.Observe(time.Since(x.start))
		return status, shedMessage(status)
	}
	return status, ""
}

// finish ends an admitted exchange once its response is rendered. Its one
// time.Since closes the encode stage and is the endpoint's latency sample;
// the decode/step/encode stages are recorded only for exchanges that
// reached the pool.
//
//tauw:hotpath
func (s *Server) finish(x *exchange) {
	done := time.Since(x.start)
	if x.stepped > 0 {
		s.stages.Decode.Observe(x.decoded)
		s.stages.Step.Observe(x.stepped - x.decoded)
		s.stages.Encode.Observe(done - x.stepped)
	}
	x.ep.lat.Observe(done)
	x.ep.release()
}

// stepOne steps one decoded item: pool step, simplex gate, status table. It
// answers 200 with resp filled in, or the failure status and its message.
//
//tauw:hotpath
func (s *Server) stepOne(x *exchange, st *wireStep, resp *stepResponse) (int, string) {
	x.decoded = time.Since(x.start)
	if st.itemErr != nil {
		return http.StatusBadRequest, st.itemErr.Error()
	}
	res, err := s.pool.StepSeries(st.seriesID, st.outcome, st.qf)
	if err == nil {
		err = s.gateResult(st.seriesID, &res, resp)
	}
	x.stepped = time.Since(x.start)
	if err != nil {
		return errStatus(err, st.seriesID)
	}
	return http.StatusOK, ""
}

// stepBatch steps the decoded items in sc.steps as one pool batch and
// leaves one result per item in sc.resp: the status the single-step
// exchange would have answered, with its body in sc.stepBodies or its
// message. Items are independent; only an empty batch fails as a whole.
//
//tauw:hotpath
func (s *Server) stepBatch(ctx context.Context, x *exchange, sc *serveScratch) (int, string) {
	x.decoded = time.Since(x.start)
	n := len(sc.steps)
	if n == 0 {
		return http.StatusBadRequest, "empty batch"
	}
	res := xslice.Grow(sc.resp.Results, n)
	// stepBodies is sized up front: Step pointers into it must stay valid,
	// so it may not grow once the first address is taken.
	sc.stepBodies = xslice.Grow(sc.stepBodies, n)
	sc.items, sc.back = sc.items[:0], sc.back[:0]
	for i := range sc.steps {
		st := &sc.steps[i]
		if st.itemErr != nil {
			res[i] = batchItemResponse{Status: http.StatusBadRequest, Error: st.itemErr.Error()}
			continue
		}
		sc.items = append(sc.items, core.SeriesStepItem{SeriesID: st.seriesID, Outcome: st.outcome, Quality: st.qf})
		sc.back = append(sc.back, int32(i))
	}
	// The remaining -request-timeout budget rides a context through the
	// batch stepper: items not yet stepped when it expires fail with 503
	// instead of holding the worker on work the client has abandoned. The
	// context pair allocates, but only when a deadline is armed.
	var cancel context.CancelFunc
	if s.requestTimeout > 0 {
		ctx, cancel = context.WithDeadline(ctx, x.start.Add(s.requestTimeout))
	}
	sc.results = s.pool.StepBatchSeriesIntoCtx(ctx, sc.items, 0, sc.results)
	if cancel != nil {
		cancel()
	}
	ok := 0
	for j, i := range sc.back {
		id, err := sc.steps[i].seriesID, sc.results[j].Err
		if err == nil {
			if err = s.gateResult(id, &sc.results[j].Result, &sc.stepBodies[i]); err == nil {
				res[i] = batchItemResponse{Status: http.StatusOK, Step: &sc.stepBodies[i]}
				ok++
				continue
			}
		}
		status, msg := errStatus(err, id)
		res[i] = batchItemResponse{Status: status, Error: msg}
	}
	sc.resp = batchStepResponse{Results: res, OK: ok, Failed: n - ok}
	x.stepped = time.Since(x.start)
	return http.StatusOK, ""
}

// gateResult runs one pool result through the simplex monitor into the
// response body every step exchange shares.
func (s *Server) gateResult(seriesID string, res *core.Result, out *stepResponse) error {
	decision, err := s.gate.Gate(res.Fused, res.Uncertainty)
	if err != nil {
		return err
	}
	*out = stepResponse{
		SeriesID:       seriesID,
		FusedOutcome:   res.Fused,
		Uncertainty:    res.Uncertainty,
		StatelessU:     res.Stateless.Uncertainty,
		SeriesLen:      res.SeriesLen,
		TotalSteps:     res.TotalSteps,
		ModelVersion:   res.ModelVersion,
		Countermeasure: decision.Level.Name,
		Accepted:       decision.Accepted,
		level:          uint8(decision.Index),
	}
	return nil
}

// joinFeedback is the ground-truth core: resolve the series, join the
// report against the provenance ring, fold the verdict into the calibration
// monitor and the per-leaf evidence, and (when armed) attempt the automatic
// drift response. It answers 200 with out filled in, or the failure status
// and its message.
func (s *Server) joinFeedback(seriesID string, step, truth int, out *feedbackResponse) (int, string) {
	track, err := s.pool.ResolveSeries(seriesID)
	var rec core.FeedbackRecord
	if err == nil {
		rec, err = s.pool.TakeFeedback(track, step)
	}
	wrong := rec.Fused != truth
	if err == nil {
		err = s.calib.Observe(track, rec.Uncertainty, wrong)
	}
	if err != nil {
		return errStatus(err, seriesID)
	}
	// Attribute the verdict to the taQIM region that produced the judged
	// estimate — the per-leaf evidence the recalibration loop refreshes
	// bounds from.
	s.leafStats.Observe(track, rec.TAQIMLeaf, wrong)
	if s.autoRecalib && s.calib.DriftAlarmed() {
		// The drift alarm is active and the operator armed the automatic
		// response: attempt a recalibration swap. The policy's cooldown and
		// min-feedback-per-leaf guards make this cheap to call per feedback
		// while an alarm churns; a successful swap clears the alarm.
		if rep, err := s.recal.TryAuto(); err != nil {
			recalibLog.Error("auto recalibration failed", "err", err)
		} else if rep.Swapped {
			recalibLog.Info("drift alarm triggered recalibration",
				"old_version", rep.OldVersion, "new_version", rep.NewVersion)
		}
	}
	*out = feedbackResponse{
		SeriesID:     seriesID,
		Step:         rec.Step,
		Correct:      !wrong,
		FusedOutcome: rec.Fused,
		Uncertainty:  rec.Uncertainty,
		TAQIMLeaf:    rec.TAQIMLeaf,
		ModelVersion: rec.ModelVersion,
		DriftAlarm:   s.calib.DriftAlarmed(),
	}
	return http.StatusOK, ""
}

// errStatus is the one error-to-status table of both transports: unknown
// series 404 (a series that closed mid-request included); track budget and
// deadline 503; the feedback join's duplicate, expired and disabled
// conditions 409/410/501; anything else 500.
func errStatus(err error, seriesID string) (int, string) {
	switch {
	case errors.Is(err, core.ErrUnknownSeries), errors.Is(err, core.ErrUnknownTrack):
		return http.StatusNotFound, "unknown series " + strconv.Quote(seriesID)
	case errors.Is(err, core.ErrTrackBudget), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, err.Error()
	case errors.Is(err, core.ErrDuplicateFeedback):
		return http.StatusConflict, err.Error()
	case errors.Is(err, core.ErrStepUnavailable):
		return http.StatusGone, err.Error()
	case errors.Is(err, core.ErrFeedbackDisabled):
		return http.StatusNotImplemented, err.Error()
	}
	return http.StatusInternalServerError, err.Error()
}

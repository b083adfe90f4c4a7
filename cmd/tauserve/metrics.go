// metrics.go holds the observability endpoints of the serving layer: POST
// /v1/feedback joins ground-truth reports to served estimates and feeds the
// runtime calibration monitor, and GET /metrics exposes the aggregated
// monitoring state in Prometheus text format. Both run on the reflection-
// free codec and the pooled request scratch, so neither allocates in steady
// state; /metrics aggregates the shard counters on scrape, so the step hot
// path never maintains scrape-shaped state or contends with a scraper.
package main

import (
	"net/http"

	"github.com/iese-repro/tauw/internal/xlog"
)

// recalibLog reports recalibration outcomes (swaps are rare,
// operator-relevant events; failures doubly so) as structured
// component=recalib records.
var recalibLog = xlog.New("recalib")

// handleFeedback is the JSON shell of the ground-truth core (joinFeedback
// in pipeline.go). The report names a series, the step being judged (the
// total_steps echoed by the step response), and the true outcome class; the
// server joins it to the provenance ring's record of what was served at
// that step and folds the verdict into the calibration monitor. Status
// codes spell out the join result so clients can tell remediable
// conditions apart:
//
//	200 joined (body echoes the judged estimate and the verdict)
//	400 malformed request, or step/truth missing
//	404 unknown or closed series
//	409 duplicate report for an already-judged step
//	410 step no longer joinable (feedback arrived later than the ring
//	    retains, the step never happened, or the series was reset)
//	501 feedback disabled (-feedback-ring 0)
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	sc := s.enterHTTP(w, r, &s.adm.feedback, maxStepBodyBytes)
	if sc == nil {
		return
	}
	defer s.leaveHTTP(sc)
	var fb wireFeedback
	if err := sc.dec.decodeFeedbackRequest(&fb); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	var resp feedbackResponse
	status, msg := s.joinFeedback(fb.seriesID, fb.step, fb.truth, &resp)
	var err error
	if status == http.StatusOK {
		sc.out, err = appendFeedbackResponse(sc.out[:0], &resp)
	}
	reply(w, sc, status, msg, err, "feedback")
}

// handleRecalibrate is the manual recalibration trigger: refresh every taQIM
// leaf bound that has accumulated enough ground-truth feedback, hot-swap the
// refreshed model into the pool, and answer with the old/new version plus
// the per-leaf deltas (the audit trail of the swap). The policy's cooldown
// does not apply to manual triggers; the min-feedback-per-leaf guard does,
// and when no leaf qualifies the response reports swapped=false with the
// reason instead of bumping the version for nothing. The endpoint is cold
// (one call per swap), so the stdlib encoder renders it through writeJSON.
func (s *Server) handleRecalibrate(w http.ResponseWriter, r *http.Request) {
	drainBody(w, r)
	rep, err := s.recal.Recalibrate()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if rep.Swapped {
		recalibLog.Info("manual recalibration swapped the model",
			"old_version", rep.OldVersion, "new_version", rep.NewVersion)
	}
	writeJSON(w, http.StatusOK, recalibResponseFrom(rep), "recalibrate")
}

// handleMetrics renders the Prometheus exposition into the pooled response
// buffer and flushes it with one Write. The scrape path allocates only the
// Content-Type header slot (BenchmarkMetricsScrape records 1 alloc/op,
// which enrolls it in the bench alloc-decay gate): the rendering itself is
// allocation-free, and no Content-Length is set — formatting the length
// would cost two more allocations per scrape and net/http frames the
// response itself.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	sc := getScratch()
	defer sc.release()
	sc.out = s.expo.AppendMetrics(sc.out[:0])
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(sc.out); err != nil {
		logWriteFailure("metrics", http.StatusOK, err)
	}
}

// admission_test.go covers the overload-protection layer: the per-endpoint
// limiter's admit/shed state machine at the unit level, and the server-level
// deadline shedding plus its tauw_shed_total exposition.
package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/iese-repro/tauw/internal/eval"
	"github.com/iese-repro/tauw/internal/simplex"
)

// testServerSrv is testServerWith also handing back the *Server for state
// the HTTP surface cannot flip (SetReady).
func testServerSrv(t *testing.T, opts ...ServerOption) (*httptest.Server, *Server) {
	t.Helper()
	studyOnce.Do(func() {
		cfg := eval.TinyConfig()
		cfg.NumSeries = 90
		cfg.TrainAugmentations = 3
		cfg.EvalAugmentations = 3
		studyVal, studyErr = eval.BuildStudy(cfg)
	})
	if studyErr != nil {
		t.Fatalf("BuildStudy: %v", studyErr)
	}
	srv, err := NewServer(studyVal.Base, studyVal.TAQIM, simplex.DefaultTSRPolicy(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// checkShedResponse asserts a shed verdict renders as a well-formed HTTP
// shed: the expected status, Retry-After, and the unified JSON error shape.
func checkShedResponse(t *testing.T, verdict, wantCode int) {
	t.Helper()
	rec := httptest.NewRecorder()
	shedResponse(rec, verdict)
	if rec.Code != wantCode {
		t.Fatalf("shed status = %d, want %d", rec.Code, wantCode)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var body errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("shed body %q is not the {\"error\": ...} shape (%v)", rec.Body.String(), err)
	}
}

func TestLimiterDisabledIsFree(t *testing.T) {
	var l limiter
	l.init("step", 0, 0, 0)
	for i := 0; i < 3; i++ {
		if l.admit() != http.StatusOK {
			t.Fatal("disabled limiter refused a request")
		}
		l.release()
	}
}

func TestLimiterQueueFullSheds429(t *testing.T) {
	var l limiter
	l.init("step", 1, 0, 0)
	if l.admit() != http.StatusOK {
		t.Fatal("first request refused on an idle limiter")
	}
	verdict := l.admit()
	if verdict == http.StatusOK {
		t.Fatal("admitted past the inflight cap with no queue")
	}
	checkShedResponse(t, verdict, http.StatusTooManyRequests)
	if got := l.shedQueueFull.Load(); got != 1 {
		t.Fatalf("shedQueueFull = %d, want 1", got)
	}
	l.release()
	if l.admit() != http.StatusOK {
		t.Fatal("release did not free the admission slot")
	}
	l.release()
}

func TestLimiterDeadlineSheds503(t *testing.T) {
	var l limiter
	l.init("step", 1, 1, 20*time.Millisecond)
	if l.admit() != http.StatusOK {
		t.Fatal("first request refused")
	}
	start := time.Now()
	verdict := l.admit()
	if verdict == http.StatusOK {
		t.Fatal("admitted a second request past the cap")
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("shed after %v, before the %v admission budget ran out", waited, 20*time.Millisecond)
	}
	checkShedResponse(t, verdict, http.StatusServiceUnavailable)
	if got := l.shedDeadline.Load(); got != 1 {
		t.Fatalf("shedDeadline = %d, want 1", got)
	}
	l.release()
}

func TestLimiterQueuedRequestAdmitsOnRelease(t *testing.T) {
	var l limiter
	l.init("step", 1, 1, time.Second)
	if l.admit() != http.StatusOK {
		t.Fatal("first request refused")
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		l.release()
	}()
	if l.admit() != http.StatusOK {
		t.Fatal("queued request shed although a slot freed within its budget")
	}
	l.release()
	if l.shedQueueFull.Load() != 0 || l.shedDeadline.Load() != 0 {
		t.Fatal("successful queue wait counted as a shed")
	}
}

func TestEachShedVisitsEveryEndpointAndReason(t *testing.T) {
	var a admission
	a.step.init("step", 1, 0, 0)
	a.batch.init("steps", 0, 0, 0)
	a.feedback.init("feedback", 0, 0, 0)
	a.step.shedQueueFull.Store(3)
	got := map[string]uint64{}
	a.EachShed(func(endpoint, reason string, count uint64) {
		got[endpoint+"/"+reason] = count
	})
	want := map[string]uint64{
		"step/queue_full": 3, "step/deadline": 0,
		"steps/queue_full": 0, "steps/deadline": 0,
		"feedback/queue_full": 0, "feedback/deadline": 0,
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d series, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("series %s = %d, want %d", k, got[k], v)
		}
	}
}

// TestServerDeadlineShedsStep drives the whole HTTP path: with a deadline
// that is always already spent, a step request must be shed with 503 +
// Retry-After in the JSON error shape, and the shed must show up in the
// tauw_shed_total exposition.
func TestServerDeadlineShedsStep(t *testing.T) {
	ts := testServerWith(t, WithAdmission(1, 1), WithRequestTimeout(time.Nanosecond))
	resp := postJSON(t, ts.URL+"/v1/step", stepRequest{
		SeriesID: "s1", Outcome: 1,
		Quality: map[string]float64{}, PixelSize: 100,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("step with spent deadline = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("shed body is not the error shape (%v)", err)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	expo, err := io.ReadAll(metrics.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(expo), `tauw_shed_total{endpoint="step",reason="deadline"} 1`) {
		t.Fatalf("shed not exposed:\n%s", expo)
	}
}

// TestShedSeriesExistBeforeFirstShed: the exposition must render every
// endpoint×reason series at zero, so dashboards and alerts can rate() them
// from the first scrape.
func TestShedSeriesExistBeforeFirstShed(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	expo, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`tauw_shed_total{endpoint="step",reason="queue_full"} 0`,
		`tauw_shed_total{endpoint="step",reason="deadline"} 0`,
		`tauw_shed_total{endpoint="steps",reason="queue_full"} 0`,
		`tauw_shed_total{endpoint="steps",reason="deadline"} 0`,
		`tauw_shed_total{endpoint="feedback",reason="queue_full"} 0`,
		`tauw_shed_total{endpoint="feedback",reason="deadline"} 0`,
	} {
		if !strings.Contains(string(expo), line) {
			t.Fatalf("missing %q in exposition:\n%s", line, expo)
		}
	}
}

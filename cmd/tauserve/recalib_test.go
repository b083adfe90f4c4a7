package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/iese-repro/tauw/internal/monitor"
	"github.com/iese-repro/tauw/internal/recalib"
)

// judge posts one ground-truth report and returns the decoded response.
func judge(t *testing.T, url, id string, step, truth int) feedbackResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/feedback", feedbackWire{SeriesID: id, Step: step, Truth: truth})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback step %d = %d", step, resp.StatusCode)
	}
	return decode[feedbackResponse](t, resp)
}

// scrape fetches /metrics as text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestRecalibrateEndpoint(t *testing.T) {
	_, ts := monitoredServer(t,
		WithRecalibration(recalib.Config{MinLeafFeedback: 5, Cooldown: -1}))
	id := newSeries(t, ts)

	// Nothing accumulated yet: the trigger reports the guard instead of
	// bumping the version.
	resp := postJSON(t, ts.URL+"/v1/recalibrate", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recalibrate = %d", resp.StatusCode)
	}
	rr := decode[recalibResponse](t, resp)
	if rr.Swapped || rr.Reason == "" || rr.OldVersion != 1 || rr.NewVersion != 1 {
		t.Fatalf("empty recalibration = %+v", rr)
	}

	// Serve and judge 20 steps as wrong: the stepped region accumulates
	// heavy failure evidence.
	var first stepResponse
	for i := 1; i <= 20; i++ {
		sr := stepOnce(t, ts, id, 14)
		if i == 1 {
			first = sr
			if sr.ModelVersion != 1 {
				t.Fatalf("pre-swap step model_version = %d, want 1", sr.ModelVersion)
			}
		}
		judge(t, ts.URL, id, sr.TotalSteps, sr.FusedOutcome+1)
	}

	resp = postJSON(t, ts.URL+"/v1/recalibrate", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recalibrate = %d", resp.StatusCode)
	}
	rr = decode[recalibResponse](t, resp)
	if !rr.Swapped || rr.OldVersion != 1 || rr.NewVersion != 2 {
		t.Fatalf("recalibration with evidence = %+v", rr)
	}
	if len(rr.Leaves) == 0 {
		t.Fatal("no per-leaf deltas in the response")
	}
	lifted := 0
	for _, d := range rr.Leaves {
		if d.Refreshed {
			lifted++
			if d.NewBound <= d.OldBound {
				t.Errorf("all-wrong evidence must lift leaf %d: %g -> %g", d.Leaf, d.OldBound, d.NewBound)
			}
			if d.OnlineCount < 5 {
				t.Errorf("refreshed leaf %d below the evidence guard: %+v", d.Leaf, d)
			}
		}
	}
	if lifted == 0 {
		t.Fatal("no leaf was refreshed")
	}

	// The swap is live: the next step serves the new revision and a higher
	// bound for the same input.
	sr := stepOnce(t, ts, id, 14)
	if sr.ModelVersion != 2 {
		t.Errorf("post-swap step model_version = %d, want 2", sr.ModelVersion)
	}
	if sr.Uncertainty <= first.Uncertainty {
		t.Errorf("post-swap uncertainty %g not above pre-swap %g", sr.Uncertainty, first.Uncertainty)
	}

	// The swap is observable on /metrics.
	metrics := scrape(t, ts.URL)
	for _, want := range []string{
		"tauw_model_version 2\n",
		"tauw_recalibrations_total 1\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "tauw_model_last_swap_timestamp_seconds 0\n") {
		t.Error("last-swap timestamp still zero after a swap")
	}
}

func TestAutoRecalibOnDriftAlarm(t *testing.T) {
	_, ts := monitoredServer(t,
		WithAutoRecalib(true),
		WithRecalibration(recalib.Config{MinLeafFeedback: 3, Cooldown: -1}),
		WithMonitorConfig(monitor.Config{
			Drift: monitor.DriftConfig{Lambda: 2, MinSamples: 10},
		}))
	id := newSeries(t, ts)

	// A calibrated baseline: correct verdicts keep the squared error low.
	for i := 0; i < 15; i++ {
		sr := stepOnce(t, ts, id, 14)
		judge(t, ts.URL, id, sr.TotalSteps, sr.FusedOutcome)
	}
	if m := scrape(t, ts.URL); !strings.Contains(m, "tauw_model_version 1\n") {
		t.Fatal("model swapped during the calibrated baseline")
	}

	// Sustained degradation: wrong verdicts push the Page-Hinkley statistic
	// over lambda, the alarm fires, and the armed auto trigger swaps.
	swapped := false
	for i := 0; i < 60 && !swapped; i++ {
		sr := stepOnce(t, ts, id, 14)
		judge(t, ts.URL, id, sr.TotalSteps, sr.FusedOutcome+1)
		swapped = sr.ModelVersion >= 2
	}
	if !swapped {
		t.Fatal("auto recalibration never swapped under sustained degradation")
	}
	metrics := scrape(t, ts.URL)
	if !strings.Contains(metrics, "tauw_recalibrations_total") ||
		strings.Contains(metrics, "tauw_recalibrations_total 0\n") {
		t.Errorf("auto swap not visible in metrics")
	}
	// The swap re-armed the detector: the alarm is no longer active.
	if strings.Contains(metrics, "tauw_drift_active 1\n") {
		t.Error("drift alarm still active after the auto swap")
	}
}

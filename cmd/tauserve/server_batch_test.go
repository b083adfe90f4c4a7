package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/iese-repro/tauw/internal/augment"
	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/eval"
	"github.com/iese-repro/tauw/internal/simplex"
)

// testServerWith is testServer with server options (budget caps,
// admission) for the batch and regression tests.
func testServerWith(t *testing.T, opts ...ServerOption) *httptest.Server {
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
	return ts
}

func newSeries(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/series", struct{}{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("new series = %d", resp.StatusCode)
	}
	return decode[newSeriesResponse](t, resp).SeriesID
}

// TestServerBatchStepMixed posts one batch mixing healthy steps, an unknown
// series, and an invalid quality map: each item gets its own status, valid
// items are served, and the summary counters add up.
func TestServerBatchStepMixed(t *testing.T) {
	ts := testServer(t)
	a := newSeries(t, ts)
	b := newSeries(t, ts)

	req := batchStepRequest{Steps: []stepRequest{
		{SeriesID: a, Outcome: 14, Quality: map[string]float64{"rain": 0.1}, PixelSize: 180},
		{SeriesID: "ghost", Outcome: 14, PixelSize: 180},
		{SeriesID: b, Outcome: 7, PixelSize: 150},
		{SeriesID: a, Outcome: 14, Quality: map[string]float64{"bogus": 0.5}, PixelSize: 180},
		{SeriesID: a, Outcome: 14, PixelSize: 180},
	}}
	resp := postJSON(t, ts.URL+"/v1/steps", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	got := decode[batchStepResponse](t, resp)
	if len(got.Results) != len(req.Steps) {
		t.Fatalf("%d results, want %d", len(got.Results), len(req.Steps))
	}
	wantStatus := []int{200, 404, 200, 400, 200}
	for i, w := range wantStatus {
		if got.Results[i].Status != w {
			t.Errorf("item %d status = %d (%s), want %d", i, got.Results[i].Status, got.Results[i].Error, w)
		}
	}
	if got.OK != 3 || got.Failed != 2 {
		t.Errorf("ok/failed = %d/%d, want 3/2", got.OK, got.Failed)
	}
	// Items 0 and 4 both stepped series a, in request order.
	if got.Results[0].Step == nil || got.Results[4].Step == nil {
		t.Fatal("successful items missing step payloads")
	}
	if got.Results[0].Step.SeriesLen != 1 || got.Results[4].Step.SeriesLen != 2 {
		t.Errorf("series %q lengths = %d,%d, want 1,2",
			a, got.Results[0].Step.SeriesLen, got.Results[4].Step.SeriesLen)
	}
	if got.Results[2].Step.SeriesID != b {
		t.Errorf("item 2 echoes series %q, want %q", got.Results[2].Step.SeriesID, b)
	}
	for _, i := range []int{0, 2, 4} {
		s := got.Results[i].Step
		if s.Uncertainty < 0 || s.Uncertainty > 1 {
			t.Errorf("item %d uncertainty %g out of range", i, s.Uncertainty)
		}
		if s.Countermeasure == "" {
			t.Errorf("item %d missing countermeasure", i)
		}
	}
	// Failed items carry errors, not payloads.
	for _, i := range []int{1, 3} {
		if got.Results[i].Step != nil {
			t.Errorf("item %d has a payload despite status %d", i, got.Results[i].Status)
		}
		if got.Results[i].Error == "" {
			t.Errorf("item %d missing error message", i)
		}
	}
}

// TestServerBatchAgreesWithSingleStep drives one series through /v1/steps
// and a twin series through /v1/step: the uncertainties must match exactly
// step for step.
func TestServerBatchAgreesWithSingleStep(t *testing.T) {
	ts := testServer(t)
	viaBatch := newSeries(t, ts)
	viaSingle := newSeries(t, ts)

	const steps = 5
	batch := batchStepRequest{}
	for i := 0; i < steps; i++ {
		batch.Steps = append(batch.Steps, stepRequest{
			SeriesID: viaBatch, Outcome: 14,
			Quality:   map[string]float64{"darkness": 0.2},
			PixelSize: 160,
		})
	}
	resp := postJSON(t, ts.URL+"/v1/steps", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	batched := decode[batchStepResponse](t, resp)

	for i := 0; i < steps; i++ {
		resp := postJSON(t, ts.URL+"/v1/step", stepRequest{
			SeriesID: viaSingle, Outcome: 14,
			Quality:   map[string]float64{"darkness": 0.2},
			PixelSize: 160,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single step %d = %d", i, resp.StatusCode)
		}
		single := decode[stepResponse](t, resp)
		b := batched.Results[i].Step
		if b == nil {
			t.Fatalf("batch item %d failed: %s", i, batched.Results[i].Error)
		}
		if b.SeriesLen != single.SeriesLen || b.FusedOutcome != single.FusedOutcome ||
			b.Uncertainty != single.Uncertainty || b.Countermeasure != single.Countermeasure {
			t.Errorf("step %d diverges: batch (%d,%d,%g,%s) vs single (%d,%d,%g,%s)", i,
				b.SeriesLen, b.FusedOutcome, b.Uncertainty, b.Countermeasure,
				single.SeriesLen, single.FusedOutcome, single.Uncertainty, single.Countermeasure)
		}
	}
}

func TestServerBatchValidation(t *testing.T) {
	ts := testServer(t)

	// Empty batch.
	resp := postJSON(t, ts.URL+"/v1/steps", batchStepRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed JSON.
	r, err := http.Post(ts.URL+"/v1/steps", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON = %d, want 400", r.StatusCode)
	}

	// Too many items (but under the byte cap): the item-count rejection.
	over := batchStepRequest{Steps: make([]stepRequest, maxBatchItems+1)}
	for i := range over.Steps {
		over.Steps[i] = stepRequest{SeriesID: "x", Outcome: 1, PixelSize: 100}
	}
	resp = postJSON(t, ts.URL+"/v1/steps", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Body over the byte cap: rejected at the transport with 413, the
	// "split your batch" signal, before any decoding allocates it.
	pad := strings.Repeat("x", maxStepBodyBytes+1)
	r, err = http.Post(ts.URL+"/v1/step", "application/json",
		strings.NewReader(`{"series_id":"`+pad+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap body = %d, want 413", r.StatusCode)
	}
}

// TestServerSeriesLeakRegression is the HTTP-level regression test for the
// series leak: when opening a series fails (budget exhausted), the minted id
// must not linger — stepping it must answer 404 (unknown series), not 500.
func TestServerSeriesLeakRegression(t *testing.T) {
	ts := testServerWith(t, WithMaxSeries(1))

	id := newSeries(t, ts)
	resp := postJSON(t, ts.URL+"/v1/series", struct{}{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget create = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// The failed create minted "s2" without opening its track; a step on it
	// must answer 404 (unknown series), not 500 (unknown track).
	resp = postJSON(t, ts.URL+"/v1/step", stepRequest{SeriesID: "s2", Outcome: 1, PixelSize: 100})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("step on leaked id = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Closing the survivor frees the budget again.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/series/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	if got := newSeries(t, ts); got == "" {
		t.Error("create after close must succeed")
	}
}

// TestServerConcurrentBatchClients fires single-step and batch clients at
// the server simultaneously (run under -race): every request must succeed
// and the stats must account for every gated step.
func TestServerConcurrentBatchClients(t *testing.T) {
	ts := testServerWith(t)
	const (
		clients  = 8
		rounds   = 5
		perBatch = 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp := postJSONNoT(ts.URL+"/v1/series", struct{}{})
			if resp == nil || resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("client %d: create failed", c)
				return
			}
			var created newSeriesResponse
			err := json.NewDecoder(resp.Body).Decode(&created)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds; r++ {
				if c%2 == 0 {
					// Batch client: one request, perBatch steps.
					batch := batchStepRequest{}
					for i := 0; i < perBatch; i++ {
						batch.Steps = append(batch.Steps, stepRequest{
							SeriesID: created.SeriesID, Outcome: c % 3, PixelSize: 150,
						})
					}
					resp := postJSONNoT(ts.URL+"/v1/steps", batch)
					if resp == nil || resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("client %d: batch failed", c)
						return
					}
					var got batchStepResponse
					err := json.NewDecoder(resp.Body).Decode(&got)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if got.OK != perBatch || got.Failed != 0 {
						errs <- fmt.Errorf("client %d: batch ok/failed = %d/%d", c, got.OK, got.Failed)
						return
					}
				} else {
					// Single-step client: perBatch requests.
					for i := 0; i < perBatch; i++ {
						resp := postJSONNoT(ts.URL+"/v1/step", stepRequest{
							SeriesID: created.SeriesID, Outcome: c % 3, PixelSize: 150,
						})
						if resp == nil || resp.StatusCode != http.StatusOK {
							errs <- fmt.Errorf("client %d: step failed", c)
							return
						}
						resp.Body.Close()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[statsResponse](t, resp)
	if want := clients * rounds * perBatch; stats.Gated != want {
		t.Errorf("gated = %d, want %d", stats.Gated, want)
	}
	if stats.ActiveSeries != clients {
		t.Errorf("active = %d, want %d", stats.ActiveSeries, clients)
	}
	if stats.PoolShards != core.DefaultShards {
		t.Errorf("pool shards = %d, want %d", stats.PoolShards, core.DefaultShards)
	}
}

// TestQualityFromMap is the table-driven edge-case suite for the quality
// vector assembly shared by both step endpoints.
func TestQualityFromMap(t *testing.T) {
	names := augment.Names()
	cases := []struct {
		name      string
		m         map[string]float64
		pixelSize float64
		wantErr   string
	}{
		{name: "nil map ok", m: nil, pixelSize: 100},
		{name: "empty map ok", m: map[string]float64{}, pixelSize: 100},
		{name: "all channels at bounds", m: func() map[string]float64 {
			m := make(map[string]float64)
			for i, n := range names {
				m[n] = float64(i % 2) // alternate 0 and 1, both legal
			}
			return m
		}(), pixelSize: 1},
		{name: "unknown factor", m: map[string]float64{"bogus": 0.5}, pixelSize: 100, wantErr: "unknown quality factor"},
		{name: "below range", m: map[string]float64{names[0]: -0.01}, pixelSize: 100, wantErr: "outside [0,1]"},
		{name: "above range", m: map[string]float64{names[0]: 1.01}, pixelSize: 100, wantErr: "outside [0,1]"},
		{name: "NaN intensity", m: map[string]float64{names[0]: math.NaN()}, pixelSize: 100, wantErr: "outside [0,1]"},
		{name: "zero pixel size", m: nil, pixelSize: 0, wantErr: "pixel_size must be positive"},
		{name: "NaN pixel size", m: nil, pixelSize: math.NaN(), wantErr: "pixel_size must be positive"},
		{name: "negative pixel size", m: nil, pixelSize: -4, wantErr: "pixel_size must be positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			qf, err := qualityFromMap(c.m, c.pixelSize)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(qf) != len(names)+1 {
				t.Fatalf("vector len %d, want %d", len(qf), len(names)+1)
			}
			if qf[len(names)] != c.pixelSize {
				t.Errorf("pixel slot = %g, want %g", qf[len(names)], c.pixelSize)
			}
			for i, n := range names {
				if want := c.m[n]; qf[i] != want {
					t.Errorf("channel %q = %g, want %g", n, qf[i], want)
				}
			}
		})
	}
}

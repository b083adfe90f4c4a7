package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/iese-repro/tauw/internal/eval"
	"github.com/iese-repro/tauw/internal/simplex"
)

// benchServer builds a served study once (sharing the test fixture's
// sync.Once) and returns a ready httptest server.
func benchServer(b *testing.B, opts ...ServerOption) *httptest.Server {
	b.Helper()
	studyOnce.Do(func() {
		cfg := eval.TinyConfig()
		cfg.NumSeries = 90
		cfg.TrainAugmentations = 3
		cfg.EvalAugmentations = 3
		studyVal, studyErr = eval.BuildStudy(cfg)
	})
	if studyErr != nil {
		b.Fatalf("BuildStudy: %v", studyErr)
	}
	srv, err := NewServer(studyVal.Base, studyVal.TAQIM, simplex.DefaultTSRPolicy(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	benchSrv = srv
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return ts
}

func benchPost(b *testing.B, url string, body any) *http.Response {
	b.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	return resp
}

func benchNewSeries(b *testing.B, ts *httptest.Server) string {
	b.Helper()
	resp := benchPost(b, ts.URL+"/v1/series", struct{}{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("new series = %d", resp.StatusCode)
	}
	var created newSeriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		b.Fatal(err)
	}
	return created.SeriesID
}

// BenchmarkHTTPSingleStep measures the classic one-step-per-request path:
// the per-step price is a full HTTP round trip plus JSON both ways.
func BenchmarkHTTPSingleStep(b *testing.B) {
	// The bounded buffer keeps per-step cost stationary, so the number
	// measures HTTP+JSON+step, not an ever-growing fusion scan.
	ts := benchServer(b, WithBufferLimit(64))
	id := benchNewSeries(b, ts)
	req := stepRequest{SeriesID: id, Outcome: 14, PixelSize: 160}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := benchPost(b, ts.URL+"/v1/step", req)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("step = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// BenchmarkHTTPBatchStep measures the batched path: 64 series advance one
// step in a single request. Reported time is per request; divide by 64 for
// the per-step price to compare against BenchmarkHTTPSingleStep. As in
// BenchmarkWireBatchStep, benchWarmBatches untimed requests first fill
// every buffer and grow every provenance ring to its cap, so the timed
// requests measure the steady state whatever -benchtime is.
func BenchmarkHTTPBatchStep(b *testing.B) {
	const batchSize = 64
	ts := benchServer(b, WithBufferLimit(64))
	req := batchStepRequest{}
	for i := 0; i < batchSize; i++ {
		id := benchNewSeries(b, ts)
		req.Steps = append(req.Steps, stepRequest{SeriesID: id, Outcome: 14, PixelSize: 160})
	}
	for i := 0; i < benchWarmBatches; i++ {
		resp := benchPost(b, ts.URL+"/v1/steps", req)
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("warm-up batch = %d", resp.StatusCode)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := benchPost(b, ts.URL+"/v1/steps", req)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("batch = %d", resp.StatusCode)
		}
		var got batchStepResponse
		err := json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if got.Failed != 0 {
			b.Fatalf("batch failed %d items", got.Failed)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/step")
}

// ---- server-side codec benchmarks: the handler without client or socket ----

// discardWriter is the minimal ResponseWriter the handler benchmarks write
// into: headers and body bytes are accepted and dropped.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// benchHandlerServer builds a Server (not an httptest listener) plus n open
// series ids for direct handler invocation.
func benchHandlerServer(b *testing.B, n int, opts ...ServerOption) (http.Handler, []string) {
	b.Helper()
	ts := benchServer(b, opts...)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = benchNewSeries(b, ts)
	}
	// The httptest server and the handler share the Server instance; the
	// benchmark drives the handler directly so no socket or client JSON
	// appears in the measurement.
	return benchSrv.Handler(), ids
}

// benchSrv is the Server behind benchServer's httptest listener, captured so
// handler benchmarks can bypass the socket.
var benchSrv *Server

// benchWarmBatches is the number of untimed batches the batch benchmarks
// send first: past the 64-record buffer cap and the default 256-slot
// provenance ring, which a series' ring reaches at step 129.
const benchWarmBatches = 160

// BenchmarkServerStepBatch is the server-side price of one 64-item batch
// request: reflection-free decode, pool dispatch, gate, append-based encode,
// one Write — no client JSON, no network. Divide ns/op by 64 (or read the
// ns/step metric) to compare with the HTTP benchmarks. benchWarmBatches
// untimed requests first bring every series to its steady state.
func BenchmarkServerStepBatch(b *testing.B) {
	const batchSize = 64
	handler, ids := benchHandlerServer(b, batchSize, WithBufferLimit(64))
	req := batchStepRequest{}
	for _, id := range ids {
		req.Steps = append(req.Steps, stepRequest{SeriesID: id, Outcome: 14, PixelSize: 160})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	httpReq := httptest.NewRequest(http.MethodPost, "/v1/steps", nil)
	var rd bytes.Reader
	w := &discardWriter{}
	serve := func() {
		rd.Reset(body)
		httpReq.Body = io.NopCloser(&rd)
		w.code = 0
		handler.ServeHTTP(w, httpReq)
		if w.code != http.StatusOK {
			b.Fatalf("batch = %d", w.code)
		}
	}
	for i := 0; i < benchWarmBatches; i++ {
		serve()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/step")
}

// BenchmarkServerStepSingle is the server-side price of one single-step
// request through the hot codec.
func BenchmarkServerStepSingle(b *testing.B) {
	handler, ids := benchHandlerServer(b, 1, WithBufferLimit(64))
	body, err := json.Marshal(stepRequest{SeriesID: ids[0], Outcome: 14, PixelSize: 160})
	if err != nil {
		b.Fatal(err)
	}
	httpReq := httptest.NewRequest(http.MethodPost, "/v1/step", nil)
	var rd bytes.Reader
	w := &discardWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		httpReq.Body = io.NopCloser(&rd)
		w.code = 0
		handler.ServeHTTP(w, httpReq)
		if w.code != http.StatusOK {
			b.Fatalf("step = %d", w.code)
		}
	}
}

// BenchmarkServerFeedback is the server-side price of one step + one
// ground-truth feedback join through the hot codec — the full monitoring
// round without HTTP. Each iteration serves a fresh step so its feedback is
// never a duplicate.
func BenchmarkServerFeedback(b *testing.B) {
	handler, ids := benchHandlerServer(b, 1, WithBufferLimit(64))
	stepBody, err := json.Marshal(stepRequest{SeriesID: ids[0], Outcome: 14, PixelSize: 160})
	if err != nil {
		b.Fatal(err)
	}
	stepReq := httptest.NewRequest(http.MethodPost, "/v1/step", nil)
	fbReq := httptest.NewRequest(http.MethodPost, "/v1/feedback", nil)
	var stepRd, fbRd bytes.Reader
	w := &discardWriter{}
	// The series is freshly opened, so the timed steps are 1..b.N; the
	// feedback body is re-rendered with the current step number each round.
	fbBody := make([]byte, 0, 128)
	step := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepRd.Reset(stepBody)
		stepReq.Body = io.NopCloser(&stepRd)
		w.code = 0
		handler.ServeHTTP(w, stepReq)
		if w.code != http.StatusOK {
			b.Fatalf("step = %d", w.code)
		}
		step++
		fbBody = fbBody[:0]
		fbBody = append(fbBody, `{"series_id":"`...)
		fbBody = append(fbBody, ids[0]...)
		fbBody = append(fbBody, `","step":`...)
		fbBody = strconv.AppendInt(fbBody, int64(step), 10)
		fbBody = append(fbBody, `,"truth":14}`...)
		fbRd.Reset(fbBody)
		fbReq.Body = io.NopCloser(&fbRd)
		w.code = 0
		handler.ServeHTTP(w, fbReq)
		if w.code != http.StatusOK {
			b.Fatalf("feedback = %d at step %d", w.code, step)
		}
	}
}

// BenchmarkMetricsScrape is the price of one GET /metrics: shard-counter
// aggregation plus the hand-rolled Prometheus rendering, with monitoring
// state populated. The committed trajectory enrolls it in the alloc-decay
// gate — a steady-state scrape must stay allocation-free.
func BenchmarkMetricsScrape(b *testing.B) {
	handler, ids := benchHandlerServer(b, 8, WithBufferLimit(64))
	// Populate: steps on every series plus feedback so every exposition
	// section renders real data.
	for _, id := range ids {
		for s := 0; s < 4; s++ {
			res, err := benchSrv.pool.StepSeries(id, 14, qualityVec(b))
			if err != nil {
				b.Fatal(err)
			}
			rec, err := benchSrv.pool.TakeFeedbackSeries(id, res.TotalSteps)
			if err != nil {
				b.Fatal(err)
			}
			if err := benchSrv.calib.Observe(s, rec.Uncertainty, rec.Fused != 14); err != nil {
				b.Fatal(err)
			}
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := &discardWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.code = 0
		handler.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("metrics = %d", w.code)
		}
	}
}

// qualityVec is the fixture quality vector for direct pool calls (nine
// deficit channels at zero plus a healthy pixel size).
func qualityVec(b *testing.B) []float64 {
	b.Helper()
	qf := make([]float64, len(qualityNames)+1)
	qf[len(qf)-1] = 160
	return qf
}

// BenchmarkCodecDecodeBatch isolates the decoder: one 64-item body parsed
// into pooled scratch per op.
func BenchmarkCodecDecodeBatch(b *testing.B) {
	const batchSize = 64
	req := batchStepRequest{}
	quality := map[string]float64{qualityNames[0]: 0.25, qualityNames[3]: 0.75}
	for i := 0; i < batchSize; i++ {
		req.Steps = append(req.Steps, stepRequest{
			SeriesID: fmt.Sprintf("s%d", i+1), Outcome: 14, Quality: quality, PixelSize: 160,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	var d decoder
	var steps []wireStep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.reset(body)
		steps, err = d.decodeBatchRequest(steps)
		if err != nil || len(steps) != batchSize {
			b.Fatalf("decode: %v (%d items)", err, len(steps))
		}
	}
}

// BenchmarkCodecEncodeBatch isolates the encoder: one 64-item response
// rendered into a reused buffer per op.
func BenchmarkCodecEncodeBatch(b *testing.B) {
	const batchSize = 64
	resp := batchStepResponse{OK: batchSize}
	bodies := make([]stepResponse, batchSize)
	for i := range bodies {
		bodies[i] = stepResponse{
			SeriesID: fmt.Sprintf("s%d", i+1), FusedOutcome: 14, Uncertainty: 0.0072,
			StatelessU: 0.25, SeriesLen: 30, TotalSteps: 64, Countermeasure: "proceed", Accepted: true,
		}
		resp.Results = append(resp.Results, batchItemResponse{Status: http.StatusOK, Step: &bodies[i]})
	}
	var out []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = appendBatchStepResponse(out[:0], &resp)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = out
}

// BenchmarkCodecEncodeBatchStdlib is the same response through
// encoding/json — the "before" column for the encoder swap.
func BenchmarkCodecEncodeBatchStdlib(b *testing.B) {
	const batchSize = 64
	resp := batchStepResponse{OK: batchSize}
	bodies := make([]stepResponse, batchSize)
	for i := range bodies {
		bodies[i] = stepResponse{
			SeriesID: fmt.Sprintf("s%d", i+1), FusedOutcome: 14, Uncertainty: 0.0072,
			StatelessU: 0.25, SeriesLen: 30, TotalSteps: 64, Countermeasure: "proceed", Accepted: true,
		}
		resp.Results = append(resp.Results, batchItemResponse{Status: http.StatusOK, Step: &bodies[i]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(resp); err != nil {
			b.Fatal(err)
		}
	}
}

package main

import (
	//tauwcheck:ignore codecpure cold admin responses only; hot codecs are hand-rolled in codec.go
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/iese-repro/tauw/internal/augment"
	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/monitor"
	"github.com/iese-repro/tauw/internal/recalib"
	"github.com/iese-repro/tauw/internal/simplex"
	"github.com/iese-repro/tauw/internal/store"
	"github.com/iese-repro/tauw/internal/trace"
	"github.com/iese-repro/tauw/internal/uw"
	"github.com/iese-repro/tauw/internal/xlog"
)

// maxBatchItems caps one POST /v1/steps request; larger batches should be
// split by the client.
const maxBatchItems = 4096

// Request bodies are size-capped before decoding so a hostile payload is
// rejected at the transport instead of allocated in full: the item cap
// alone would only be checked after json.Decode had materialised the slice.
const (
	maxStepBodyBytes  = 1 << 20  // one step plus slack
	maxBatchBodyBytes = 16 << 20 // maxBatchItems generously sized steps
)

// Server exposes a calibrated timeseries-aware uncertainty wrapper as a
// runtime-monitoring HTTP service: perception components stream their
// momentaneous outcomes and quality factors per tracked object, and receive
// the fused outcome, its dependable uncertainty, and the simplex
// countermeasure to take. Ground truth reported back through POST
// /v1/feedback feeds the runtime calibration monitor, whose reliability
// statistics and drift alarms GET /metrics exposes in Prometheus text
// format.
//
// All session state (series ids and their wrappers) lives in the sharded
// core.WrapperPool; the server itself holds no lock and no per-request
// mutable state beyond shard-aligned monitoring counters, so request
// handling scales with the pool's shard count.
type Server struct {
	gate *simplex.Monitor
	pool *core.WrapperPool

	// calib is the runtime calibration monitor fed by /v1/feedback; expo
	// renders it (plus the pool counters, gate counts, and the latency
	// histograms) for /metrics.
	calib *monitor.Monitor
	expo  *monitor.Exposition
	// stages times the request pipeline's internal stages (decode, step,
	// encode here; store_append/checkpoint/fsync in the durability layer)
	// for the tauw_stage_duration_seconds exposition.
	stages *monitor.StageSet

	// trace is the flight recorder every layer records into (nil disables
	// tracing and the /debug/flight routes); flightBuf and anomBuf are the
	// dump endpoints' reusable event buffers, guarded by flightMu.
	trace     *trace.Recorder
	flightMu  sync.Mutex
	flightBuf []trace.Event
	anomBuf   []trace.Event

	// leafStats attributes each feedback verdict to the taQIM region that
	// produced the judged estimate; recal turns that evidence into model
	// hot-swaps (POST /v1/recalibrate, and — when autoRecalib is set — the
	// automatic response to a drift alarm).
	leafStats   *monitor.LeafStats
	recal       *recalib.Recalibrator
	autoRecalib bool

	// ready gates /readyz: flipped false by SetReady when the process
	// starts draining, so load balancers stop routing new work while
	// in-flight batches finish.
	ready atomic.Bool

	// adm holds the hot endpoints' overload gates and latency histograms
	// (see admission.go); requestTimeout is the hot-request deadline they
	// shed against, also propagated as a context through pool batch steps.
	// degraded reports the durability circuit breaker's state for /readyz
	// (nil when no store is attached — never degraded).
	adm            admission
	requestTimeout time.Duration
	degraded       func() bool

	// faults is the fault-injection wrapper around the store when the
	// chaos harness armed it (-fault-inject); Handler registers the
	// /debug/fault endpoint only then.
	faults *store.FaultStore

	// wire is the binary-transport listener when one is serving (see
	// wire.go); ShutdownWire drains it alongside the HTTP drain.
	// writeTimeout bounds each of its flushes, the -write-timeout the HTTP
	// server applies to a response (0 = none).
	wireMu       sync.Mutex
	wire         *wireServer
	writeTimeout time.Duration
}

// ServerOption customises server construction.
type ServerOption func(*serverOptions)

type serverOptions struct {
	maxSeries      int
	bufferLimit    int
	feedbackRing   int
	monitorCfg     monitor.Config
	recalibCfg     recalib.Config
	autoRecalib    bool
	journal        bool
	maxInflight    int
	admissionQueue int
	requestTimeout time.Duration
	trace          *trace.Recorder
}

// DefaultFeedbackRing is the default cap on the per-series provenance
// ring: ground truth may trail a served estimate by up to this many steps
// of the same series and still join. A series' ring opens at 16 slots of
// about 40 bytes and doubles toward the cap only as the series outgrows
// it, so a short encounter holds 640 bytes and only a series of 129 steps
// or more pays the full 10 KiB.
const DefaultFeedbackRing = 256

// WithMaxSeries caps the number of concurrently open series (0 = unlimited).
// When the cap is reached, POST /v1/series answers 503 until a series ends.
func WithMaxSeries(n int) ServerOption {
	return func(o *serverOptions) { o.maxSeries = n }
}

// WithBufferLimit caps each series' timeseries buffer (0 = unbounded). The
// step hot path is O(1) in series length either way; the cap bounds memory
// and fixes the taQF window, so long-lived deployments should still set it.
func WithBufferLimit(n int) ServerOption {
	return func(o *serverOptions) { o.bufferLimit = n }
}

// WithFeedbackRing caps the per-series provenance ring that POST
// /v1/feedback joins ground truth against, which is how many steps back
// feedback may reach (default DefaultFeedbackRing; 0 disables the feedback
// endpoint, which then answers 501). Rings grow to the cap by use.
func WithFeedbackRing(n int) ServerOption {
	return func(o *serverOptions) { o.feedbackRing = n }
}

// WithMonitorConfig overrides the runtime calibration monitor's
// configuration (Brier window, reliability bins, drift detection); zero
// fields keep the monitor package defaults, which the tauserve command
// serves.
func WithMonitorConfig(cfg monitor.Config) ServerOption {
	return func(o *serverOptions) { o.monitorCfg = cfg }
}

// WithRecalibration overrides the online-recalibration policy (min feedback
// per leaf, auto-trigger cooldown, Laplace smoothing, prior handling); zero
// fields keep the recalib package defaults, which the tauserve command
// serves. The recalibration machinery is always wired — this only tunes it.
func WithRecalibration(cfg recalib.Config) ServerOption {
	return func(o *serverOptions) { o.recalibCfg = cfg }
}

// WithAdmission bounds the hot endpoints (step, steps, feedback):
// maxInflight caps concurrently processed requests per endpoint (0 =
// unlimited, the default), queue bounds how many more may wait for a slot
// before the endpoint sheds with 429. Both caps are per endpoint, so a
// batch stampede cannot starve single-step traffic of admission slots.
func WithAdmission(maxInflight, queue int) ServerOption {
	return func(o *serverOptions) { o.maxInflight, o.admissionQueue = maxInflight, queue }
}

// WithRequestTimeout sets the hot-request deadline (0 = none): a queued
// request that waits this long for admission is shed with 503, and the
// batch endpoint propagates the remaining budget as a context.Context
// through the pool's batch stepper, so a deadline that expires mid-batch
// fails the unstepped items instead of blocking the worker on work the
// client has already abandoned.
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.requestTimeout = d }
}

// WithTrace wires a flight recorder through every layer of the server —
// pool steps, batch fan-outs, feedback joins, swaps, admission sheds, and
// (when durability is attached) store activity — and serves its dumps on
// GET /debug/flight and /debug/flight/last-anomaly. Nil disables tracing;
// every record site is nil-safe, so the untraced server pays one pointer
// check per site.
func WithTrace(rec *trace.Recorder) ServerOption {
	return func(o *serverOptions) { o.trace = rec }
}

// WithAutoRecalib arms the automatic drift response: when the calibration-
// drift alarm is active, the feedback path triggers a recalibration swap
// (subject to the policy's cooldown and evidence guards). Off by default —
// the drift alarm then only reports, and recalibration happens through
// POST /v1/recalibrate.
func WithAutoRecalib(on bool) ServerOption {
	return func(o *serverOptions) { o.autoRecalib = on }
}

// NewServer wires a server from calibrated models.
func NewServer(base *uw.Wrapper, taqim *uw.QualityImpactModel, policy simplex.Policy, opts ...ServerOption) (*Server, error) {
	if base == nil || taqim == nil {
		return nil, errors.New("tauserve: base wrapper and taQIM are required")
	}
	o := serverOptions{feedbackRing: DefaultFeedbackRing}
	for _, opt := range opts {
		opt(&o)
	}
	if o.maxSeries < 0 {
		return nil, fmt.Errorf("tauserve: max series %d must be >= 0", o.maxSeries)
	}
	if o.feedbackRing < 0 {
		return nil, fmt.Errorf("tauserve: feedback ring %d must be >= 0", o.feedbackRing)
	}
	if o.maxInflight < 0 || o.admissionQueue < 0 {
		return nil, fmt.Errorf("tauserve: max inflight %d and admission queue %d must be >= 0",
			o.maxInflight, o.admissionQueue)
	}
	if o.requestTimeout < 0 {
		return nil, fmt.Errorf("tauserve: request timeout %v must be >= 0", o.requestTimeout)
	}
	gate, err := simplex.NewMonitor(policy)
	if err != nil {
		return nil, err
	}
	// The flight recorder threads through every layer that records into it:
	// the monitor (drift alarms), the recalibrator (retrain attempts), the
	// pool (steps, batches, feedback, swaps), and the admission gates below.
	o.monitorCfg.Trace = o.trace
	o.recalibCfg.Trace = o.trace
	calib, err := monitor.New(o.monitorCfg)
	if err != nil {
		return nil, err
	}
	poolOpts := []core.PoolOption{core.WithMonitoring(o.feedbackRing)}
	if o.journal {
		poolOpts = append(poolOpts, core.WithStateJournal())
	}
	if o.trace != nil {
		poolOpts = append(poolOpts, core.WithTrace(o.trace))
	}
	pool, err := core.NewWrapperPool(base, taqim, core.Config{BufferLimit: o.bufferLimit},
		o.maxSeries, poolOpts...)
	if err != nil {
		return nil, err
	}
	leafStats, err := monitor.NewLeafStats(taqim.NumRegions(), 0)
	if err != nil {
		return nil, err
	}
	recal, err := recalib.New(pool, leafStats, calib, o.recalibCfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		gate:           gate,
		pool:           pool,
		calib:          calib,
		leafStats:      leafStats,
		recal:          recal,
		autoRecalib:    o.autoRecalib,
		requestTimeout: o.requestTimeout,
		stages:         monitor.NewStageSet(),
		trace:          o.trace,
	}
	s.adm.step.init("step", o.maxInflight, o.admissionQueue, o.requestTimeout)
	s.adm.batch.init("steps", o.maxInflight, o.admissionQueue, o.requestTimeout)
	s.adm.feedback.init("feedback", o.maxInflight, o.admissionQueue, o.requestTimeout)
	// Sheds reach the flight recorder too (they are exactly the events an
	// anomaly dump needs around an overload): each gate records under its
	// endpoint id.
	s.adm.step.trace, s.adm.step.endpoint = o.trace, trace.EndpointStep
	s.adm.batch.trace, s.adm.batch.endpoint = o.trace, trace.EndpointSteps
	s.adm.feedback.trace, s.adm.feedback.endpoint = o.trace, trace.EndpointFeedback
	s.adm.step.lat, s.adm.batch.lat, s.adm.feedback.lat =
		monitor.NewLatencyHist(), monitor.NewLatencyHist(), monitor.NewLatencyHist()
	s.expo = &monitor.Exposition{
		Monitor: calib,
		Pool:    pool,
		Gate:    gate,
		Swap:    recal,
		Shed:    &s.adm,
		Latencies: []monitor.EndpointLatency{
			{Name: "step", Hist: s.adm.step.lat},
			{Name: "steps", Hist: s.adm.batch.lat},
			{Name: "feedback", Hist: s.adm.feedback.lat},
		},
		Stages: s.stages,
		Go:     monitor.NewGoStats(),
	}
	s.ready.Store(true)
	return s, nil
}

// SetReady flips the /readyz verdict: the shutdown path calls
// SetReady(false) before http.Server.Shutdown so load balancers drain the
// instance before in-flight work is waited on.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Calibration exposes the runtime calibration monitor (tests, the drain
// summary log).
func (s *Server) Calibration() *monitor.Monitor { return s.calib }

// route is one registered endpoint's method+path for the catch-all
// handler's 404/405 distinction: path is the exact match, or — when wild is
// set — a "/"-terminated prefix that must be followed by exactly one more
// non-empty segment (the {id} patterns).
type route struct {
	method string
	path   string
	wild   bool
}

func (rt route) matchesPath(p string) bool {
	if !rt.wild {
		return p == rt.path
	}
	rest, ok := strings.CutPrefix(p, rt.path)
	return ok && rest != "" && !strings.Contains(rest, "/")
}

// Handler returns the HTTP routing table. Every route also lands in a side
// table consulted by the catch-all handler, so unmatched requests get the
// same {"error": ...} JSON shape as every other failure — the stock
// ServeMux writes text/plain 404s and 405s — with a correct Allow header on
// 405.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	var routes []route
	handle := func(method, pattern string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+pattern, h)
		rt := route{method: method, path: pattern}
		if i := strings.Index(pattern, "{"); i >= 0 {
			rt.path, rt.wild = pattern[:i], true
		}
		routes = append(routes, rt)
	}
	handle("POST", "/v1/series", s.handleNewSeries)
	handle("DELETE", "/v1/series/{id}", s.handleEndSeries)
	handle("POST", "/v1/step", s.handleStep)
	handle("POST", "/v1/steps", s.handleStepBatch)
	handle("POST", "/v1/feedback", s.handleFeedback)
	handle("POST", "/v1/recalibrate", s.handleRecalibrate)
	handle("GET", "/v1/stats", s.handleStats)
	handle("GET", "/v1/model/rules", s.handleRules)
	handle("GET", "/v1/model/leaves", s.handleLeaves)
	handle("GET", "/metrics", s.handleMetrics)
	handle("GET", "/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	handle("GET", "/readyz", s.handleReady)
	if s.faults != nil {
		handle("POST", "/debug/fault", s.handleFault)
	}
	if s.trace != nil {
		handle("GET", "/debug/flight", s.handleFlight)
		handle("GET", "/debug/flight/last-anomaly", s.handleFlightAnomaly)
	}
	mux.HandleFunc("/", s.catchAll(routes))
	return mux
}

// catchAll answers requests no registered route matched: 405 with an Allow
// header when the path exists under other methods, 404 otherwise — both in
// the unified JSON error shape. Allocations here are fine; this is the
// "client is confused" path, not a hot one.
func (s *Server) catchAll(routes []route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		drainBody(w, r)
		var allow []string
		for _, rt := range routes {
			if rt.matchesPath(r.URL.Path) {
				allow = append(allow, rt.method)
				if rt.method == "GET" {
					allow = append(allow, "HEAD")
				}
			}
		}
		if len(allow) > 0 {
			w.Header().Set("Allow", strings.Join(allow, ", "))
			httpError(w, http.StatusMethodNotAllowed,
				fmt.Sprintf("method %s not allowed for %s", r.Method, r.URL.Path))
			return
		}
		httpError(w, http.StatusNotFound, "no such endpoint "+r.URL.Path)
	}
}

// handleReady is the readiness probe: 200 while the server accepts new
// work, 503 once draining has begun. Liveness (/healthz) stays 200 through
// a drain — the process is healthy, just leaving the rotation. Degraded
// mode (durability suspended by the store circuit breaker) answers 200
// with body "degraded": the instance must stay in rotation — serving from
// RAM is the whole point of the breaker — while orchestration and humans
// can still see the state without scraping metrics.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	if s.degraded != nil && s.degraded() {
		fmt.Fprintln(w, "degraded")
		return
	}
	fmt.Fprintln(w, "ok")
}

// newSeriesResponse is the body of POST /v1/series.
type newSeriesResponse struct {
	SeriesID string `json:"series_id"`
}

func (s *Server) handleNewSeries(w http.ResponseWriter, r *http.Request) {
	drainBody(w, r)
	id, err := s.pool.OpenSeries()
	if err != nil {
		status, msg := errStatus(err, "")
		httpError(w, status, msg)
		return
	}
	writeJSON(w, http.StatusCreated, newSeriesResponse{SeriesID: id}, "series")
}

func (s *Server) handleEndSeries(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.pool.CloseSeries(id); err != nil {
		status, msg := errStatus(err, id)
		httpError(w, status, msg)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// stepRequest is the body of POST /v1/step: one momentaneous DDM outcome
// with the quality factors observed alongside it. It is also one item of
// POST /v1/steps.
type stepRequest struct {
	SeriesID string `json:"series_id"`
	// Outcome is the DDM's class decision for the current frame.
	Outcome int `json:"outcome"`
	// Quality maps quality-factor names (the nine deficit channels) to
	// intensities in [0,1].
	Quality map[string]float64 `json:"quality"`
	// PixelSize is the apparent sign size in pixels.
	PixelSize float64 `json:"pixel_size"`
}

// stepResponse reports the fused outcome, its dependable uncertainty, and
// the selected countermeasure.
type stepResponse struct {
	SeriesID     string  `json:"series_id"`
	FusedOutcome int     `json:"fused_outcome"`
	Uncertainty  float64 `json:"uncertainty"`
	StatelessU   float64 `json:"stateless_uncertainty"`
	// SeriesLen is the buffered window length the taQF were computed over;
	// TotalSteps counts every step since the series opened, including steps
	// evicted once a -buffer-limit ring fills. They differ exactly when
	// eviction has happened.
	SeriesLen  int `json:"series_len"`
	TotalSteps int `json:"total_steps"`
	// ModelVersion is the taQIM revision that produced the uncertainty
	// (increments on every runtime recalibration hot-swap).
	ModelVersion   uint64 `json:"model_version"`
	Countermeasure string `json:"countermeasure"`
	Accepted       bool   `json:"accepted"`
	// level is the countermeasure's index in the wire hello table (the
	// gate's Decision.Index), how a wire step result names it in one byte.
	level uint8
}

// enterHTTP starts a hot JSON exchange on ep: admission, then the body
// (capped at limit) read into a pooled scratch whose decoder is reset over
// it. It returns nil after answering the request itself — a shed, or a body
// it could not read; otherwise the caller ends the exchange with leaveHTTP.
func (s *Server) enterHTTP(w http.ResponseWriter, r *http.Request, ep *hotEndpoint, limit int64) *serveScratch {
	sc := getScratch()
	if status, _ := s.enter(ep, &sc.x); status != http.StatusOK {
		sc.release()
		shedResponse(w, status)
		return nil
	}
	var err error
	if sc.body, err = readBody(sc.body, http.MaxBytesReader(w, r.Body, limit)); err != nil {
		httpError(w, decodeStatus(err), "reading request: "+err.Error())
		s.leaveHTTP(sc)
		return nil
	}
	sc.dec.reset(sc.body)
	return sc
}

// leaveHTTP ends a hot JSON exchange after its response is written.
func (s *Server) leaveHTTP(sc *serveScratch) {
	s.finish(&sc.x)
	sc.release()
}

// reply writes a hot JSON exchange's outcome: sc.out as the 200 body, or
// the unified error shape for a failed exchange or a body that could not be
// encoded (err).
func reply(w http.ResponseWriter, sc *serveScratch, status int, msg string, err error, endpoint string) {
	if err != nil {
		status, msg = http.StatusInternalServerError, err.Error()
	}
	if status != http.StatusOK {
		httpError(w, status, msg)
		return
	}
	writeRaw(w, status, sc.out, endpoint)
}

// handleStep is the JSON shell of the step core (pipeline.go): the body is
// parsed by the reflection-free codec straight into pooled scratch and the
// response rendered into a pooled buffer flushed with one Write (see
// codec.go). The stdlib encoder never runs on the success path.
func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	sc := s.enterHTTP(w, r, &s.adm.step, maxStepBodyBytes)
	if sc == nil {
		return
	}
	defer s.leaveHTTP(sc)
	var step wireStep
	if err := sc.dec.decodeStepRequest(&step); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	var resp stepResponse
	status, msg := s.stepOne(&sc.x, &step, &resp)
	var err error
	if status == http.StatusOK {
		sc.out, err = appendStepResponse(sc.out[:0], &resp)
	}
	reply(w, sc, status, msg, err, "step")
}

// batchStepRequest is the body of POST /v1/steps: a slice of per-series
// steps processed in one round trip. Items are independent; one bad item
// fails with its own status without failing the batch.
type batchStepRequest struct {
	Steps []stepRequest `json:"steps"`
}

// batchItemResponse carries one item's outcome: Status mirrors the code the
// single-step endpoint would have answered (200, 400, 404, 500), and exactly
// one of Step / Error is set.
type batchItemResponse struct {
	Status int           `json:"status"`
	Step   *stepResponse `json:"step,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// batchStepResponse is the body of POST /v1/steps: per-item results in
// request order plus summary counters.
type batchStepResponse struct {
	Results []batchItemResponse `json:"results"`
	OK      int                 `json:"ok"`
	Failed  int                 `json:"failed"`
}

// handleStepBatch is the JSON shell of the batch core: body, decoded
// items, pool batch inputs/results, response structs, and the response
// bytes all live in one pooled scratch, so a steady-state batch request
// allocates only transient error strings on failed items.
func (s *Server) handleStepBatch(w http.ResponseWriter, r *http.Request) {
	sc := s.enterHTTP(w, r, &s.adm.batch, maxBatchBodyBytes)
	if sc == nil {
		return
	}
	defer s.leaveHTTP(sc)
	var err error
	if sc.steps, err = sc.dec.decodeBatchRequest(sc.steps); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	status, msg := s.stepBatch(r.Context(), &sc.x, sc)
	if status == http.StatusOK {
		sc.out, err = appendBatchStepResponse(sc.out[:0], &sc.resp)
	}
	reply(w, sc, status, msg, err, "steps")
}

// drainBody consumes (and discards) the request body on endpoints whose
// contract takes none. Handlers that return without reading the body force
// net/http to either drain it (small bodies) or tear the connection down
// (bodies past its internal post-handler limit, 256 KiB), so a keep-alive
// client that POSTs a non-empty body would lose its connection — and every
// pipelined request behind it — to a handler that simply didn't look. The
// drain is size-capped like every other endpoint; a body past the cap still
// costs the connection, by MaxBytesReader design, but reads as a deliberate
// limit instead of an accident.
func drainBody(w http.ResponseWriter, r *http.Request) {
	if r.Body == nil {
		return
	}
	io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, maxStepBodyBytes)) //nolint:errcheck // best-effort drain
}

// decodeStatus distinguishes "your JSON is broken" (400) from "your body
// blew the size cap" (413) so batch clients know the remedy is splitting,
// not fixing, the request.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// qualityIndex maps each deficit-channel name to its vector slot; the
// channel set is fixed at compile time, so build the index once instead of
// per step (the batch endpoint calls qualityFromMap up to 4096 times per
// request).
var qualityIndex = func() map[string]int {
	names := augment.Names()
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	return index
}()

// qualityFromMap assembles the wrapper's quality-factor vector from named
// channels; missing channels default to 0 (no deficit), unknown names fail.
func qualityFromMap(m map[string]float64, pixelSize float64) ([]float64, error) {
	numNames := len(qualityIndex)
	qf := make([]float64, numNames+1)
	for name, v := range m {
		i, ok := qualityIndex[name]
		if !ok {
			return nil, fmt.Errorf("unknown quality factor %q", name)
		}
		// The negated form also rejects NaN, which satisfies neither bound.
		if !(v >= 0 && v <= 1) {
			return nil, fmt.Errorf("quality factor %q = %g outside [0,1]", name, v)
		}
		qf[i] = v
	}
	// Negated so NaN (which satisfies no comparison) is rejected too.
	if !(pixelSize > 0) {
		return nil, fmt.Errorf("pixel_size must be positive, got %g", pixelSize)
	}
	qf[numNames] = pixelSize
	return qf, nil
}

// statsResponse is the body of GET /v1/stats.
type statsResponse struct {
	ActiveSeries int            `json:"active_series"`
	PoolShards   int            `json:"pool_shards"`
	Gated        int            `json:"gated_total"`
	PerLevel     map[string]int `json:"per_countermeasure"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.gate.Snapshot()
	writeJSON(w, http.StatusOK, statsResponse{
		ActiveSeries: s.pool.Active(),
		PoolShards:   s.pool.NumShards(),
		Gated:        snap.Total,
		PerLevel:     snap.PerLevel,
	}, "stats")
}

// handleRules renders the rules of the taQIM revision currently serving —
// after a recalibration hot-swap the transparency surface must describe the
// refreshed bounds, not the construction-time model.
func (s *Server) handleRules(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "=== timeseries-aware quality impact model ===")
	fmt.Fprint(w, s.pool.CurrentTAQIM().Rules())
}

// handleLeaves exposes the machine-readable audit report: every calibrated
// region of the serving revision with its bound, calibration evidence, and
// routing conditions.
func (s *Server) handleLeaves(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.pool.CurrentTAQIM().LeafReport(), "leaves")
}

type errorResponse struct {
	Error string `json:"error"`
}

// httpError writes the unified {"error": "..."} shape every 4xx/5xx
// carries, rendered by the reflection-free codec into pooled scratch so
// even an error storm does not allocate response bodies. All error bodies
// share one write-failure limiter key: a client that vanishes mid-error is
// one story regardless of which handler it was talking to.
func httpError(w http.ResponseWriter, code int, msg string) {
	sc := getScratch()
	sc.out = appendErrorResponse(sc.out[:0], msg)
	writeRaw(w, code, sc.out, "error")
	sc.release()
}

// logf is the server's error logger, a package variable so tests can
// capture what the write paths report. It keeps the printf signature the
// historical call sites (and their tests) were written against; the xlog
// backing renders each line as an error-level component=server record.
var logf = xlog.New("server").Printf

// writeFailures rate-limits the response-write-failure log path to one
// line per second per endpoint: clients vanish in herds (a draining load
// balancer, a killed batch driver), and the log should record the herd,
// not echo it.
var writeFailures = newLogLimiter(time.Now)

// logWriteFailure reports one failed response write through the limiter,
// folding the count of suppressed same-endpoint failures into the next
// line that passes.
func logWriteFailure(endpoint string, code int, err error) {
	ok, suppressed := writeFailures.allow(endpoint)
	if !ok {
		return
	}
	if suppressed > 0 {
		logf("tauserve: writing %d response (%s): %v (%d earlier write failures on this endpoint suppressed)",
			code, endpoint, err, suppressed)
		return
	}
	logf("tauserve: writing %d response (%s): %v", code, endpoint, err)
}

// writeJSON renders v with the stdlib encoder (cold endpoints only). The
// header is already written when encoding or writing fails, so the error
// cannot reach the client anymore — but it must not vanish either: every
// failure is logged (rate-limited per endpoint) with the status it was
// meant to carry.
func writeJSON(w http.ResponseWriter, code int, v any, endpoint string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logWriteFailure(endpoint, code, err)
	}
}

// writeRaw flushes a pre-rendered hot-path body in a single Write with an
// exact Content-Length. Write failures (client gone, connection reset) are
// logged like writeJSON's.
func writeRaw(w http.ResponseWriter, code int, body []byte, endpoint string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		logWriteFailure(endpoint, code, err)
	}
}

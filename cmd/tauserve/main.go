// Command tauserve runs the timeseries-aware uncertainty wrapper as a
// runtime-monitoring HTTP service. On startup it loads the calibrated
// wrapper of the chosen preset, a deployment bundle compiled into the
// binary (presets.go), then serves fused outcomes with dependable
// uncertainties and simplex countermeasures. Training and calibration stay
// offline, as in the source paper's pipeline.
//
// Session state lives in a sharded wrapper pool: opens, steps, and closes
// on different series never contend on a global lock, and the batch endpoint
// fans a large batch out across the shards, one worker per 256 items and at
// most one per schedulable CPU.
// A runtime calibration monitor watches the estimates on live traffic:
// ground truth reported to POST /v1/feedback is joined to the exact
// estimates it judges, streamed into windowed Brier / reliability-bin / ECE
// statistics, and guarded by a Page-Hinkley drift alarm; GET /metrics
// exposes everything in Prometheus text format.
//
// -tcp-addr adds the binary streaming transport (internal/wire): pipelined
// length-prefixed frames over persistent TCP connections. It runs the same
// request pipeline as the JSON endpoints (pipeline.go), so a frame gets the
// same admission, deadline, stage timing and error statuses as an HTTP
// request.
//
// On SIGINT/SIGTERM the server drains gracefully: /readyz flips to 503 so
// load balancers stop routing, in-flight requests on both listeners finish
// (bounded by -drain-timeout), the final checkpoint runs (with -state-dir,
// also after a drain that timed out), then the process exits.
//
// With -state-dir the serving state is durable: series rings, feedback
// provenance, monitor accumulators, and the serving model revision are
// checkpointed to disk write-behind (a background flusher harvests
// dirty series every -flush-interval; a full checkpoint runs every
// -checkpoint-interval or when the WAL outgrows -wal-max-bytes), and on
// startup the server restores them before accepting traffic. A crash loses
// at most one flush interval of series history; a graceful drain ends with
// a final checkpoint that loses nothing. The state is bound to the preset's
// model by its fingerprint: a server started with another preset refuses
// to restore it and exits.
//
// Durability failures never reach the hot path: each store operation is
// retried with jittered exponential backoff (-store-retry-attempts,
// -store-retry-base), and -breaker-threshold consecutive failed cycles trip
// a circuit breaker into degraded mode — traffic keeps serving from RAM,
// /readyz reports "degraded" (still 200, so the instance stays in load
// balancer rotation), and tauw_degraded / tauw_store_errors_total expose
// the state. While degraded, the store is probed every -breaker-probe; a
// successful probe writes a full recovery checkpoint (closing the WAL gap
// the outage opened) and restores durability. -fault-inject arms a
// runtime-programmable fault injector (POST /debug/fault) for chaos
// testing; never set it in production.
//
// Overload is shed, not queued unboundedly, on both listeners: -max-inflight
// caps concurrently processed requests per hot endpoint
// (step/steps/feedback), -admission-queue bounds how many may wait for a
// slot (excess answers 429, with Retry-After over HTTP), and
// -request-timeout is a per-request deadline — spent waiting in the
// admission queue (503 on expiry) and propagated as a context through batch
// processing. Sheds are counted per endpoint and reason in
// tauw_shed_total. -read-timeout / -write-timeout bound the connection I/O
// itself; -write-timeout also bounds each flush on a binary-transport
// connection, so a peer that stops reading is dropped.
//
// The drift loop is closed: ground-truth feedback is also attributed to the
// taQIM region (leaf) that produced each judged estimate, and the
// accumulated per-leaf evidence can be folded back into the model — POST
// /v1/recalibrate refreshes every sufficiently-evidenced leaf's binomial
// bound and hot-swaps the refreshed model into the serving pool with zero
// downtime (in-flight steps finish on the old revision; a monotonically
// increasing model version is stamped into every step response). With
// -auto-recalib the swap also happens automatically when the drift alarm
// fires, guarded by a cooldown and a min-feedback-per-leaf requirement.
// The monitor, the drift detector and the recalibration policy run their
// package defaults, as the wrapper pool runs core.DefaultShards shards; a
// program embedding the server tunes them with WithMonitorConfig and
// WithRecalibration.
//
// Usage:
//
//	tauserve [-addr :8080] [-tcp-addr ""] [-preset tiny|quick|paper]
//	         [-max-series 0] [-buffer-limit 0] [-feedback-ring 256]
//	         [-auto-recalib]
//	         [-state-dir ""] [-flush-interval 1s] [-checkpoint-interval 1m]
//	         [-wal-max-bytes 16777216]
//	         [-store-retry-attempts 3] [-store-retry-base 10ms]
//	         [-breaker-threshold 3] [-breaker-probe 5s] [-fault-inject]
//	         [-max-inflight 0] [-admission-queue 0] [-request-timeout 0]
//	         [-read-timeout 1m] [-write-timeout 1m]
//	         [-drain-timeout 10s] [-drain-grace 0] [-debug-addr ""]
//
// Endpoints:
//
//	POST   /v1/series          start tracking a new physical object
//	POST   /v1/step            {series_id, outcome, quality{...}, pixel_size}
//	POST   /v1/steps           {steps: [per-series steps]} — batched, per-item statuses
//	POST   /v1/feedback        {series_id, step, truth} — ground-truth join
//	POST   /v1/recalibrate     refresh leaf bounds from feedback, hot-swap the model
//	DELETE /v1/series/{id}     stop tracking
//	GET    /v1/stats           monitor counters, active series, shard count
//	GET    /v1/model/rules     calibrated taQIM rules (transparency)
//	GET    /metrics            Prometheus text exposition (reliability, drift, model version, latency)
//	GET    /healthz            liveness
//	GET    /readyz             readiness (503 while draining; 200 "degraded" while durability is suspended)
//	POST   /debug/fault        reprogram the injected store fault plan (-fault-inject only)
//
// The step/steps/feedback codecs in this package are hand-rolled
// (codec.go); //tauw:codec machine-enforces that they stay that way. The
// two encoding/json imports that remain (debug fault config, cold admin
// responses) carry explicit tauwcheck:ignore exemptions.
//
//tauw:codec
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	// The pprof handlers register on http.DefaultServeMux, which only the
	// -debug-addr listener serves (the API listener uses its own mux), so
	// profiling never leaks onto the public port.
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/simplex"
	"github.com/iese-repro/tauw/internal/store"
	"github.com/iese-repro/tauw/internal/trace"
	"github.com/iese-repro/tauw/internal/xlog"
)

// mainLog is the process-lifecycle logger (startup, shutdown, listeners).
var mainLog = xlog.New("server")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tauserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tauserve", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		tcpAddr = fs.String("tcp-addr", "",
			"binary streaming transport listen address (empty disables it); "+
				"persistent-connection frame protocol for clients that outgrow "+
				"the JSON endpoints' per-request HTTP overhead")
		preset = fs.String("preset", "tiny",
			"calibrated wrapper to serve: tiny, quick, or paper (bundles built offline "+
				"from the study of the same name and compiled into the binary)")
		maxSeries    = fs.Int("max-series", 0, "cap on concurrently open series (0 = unlimited)")
		bufferLimit  = fs.Int("buffer-limit", 0, "per-series timeseries buffer cap (0 = unbounded)")
		feedbackRing = fs.Int("feedback-ring", DefaultFeedbackRing,
			"cap on the per-series provenance ring joined by /v1/feedback: how many "+
				"steps back feedback may reach; each ring grows to it by use (0 disables feedback)")
		autoRecalib = fs.Bool("auto-recalib", false,
			"recalibrate and hot-swap the taQIM automatically when the drift alarm fires")
		stateDir = fs.String("state-dir", "",
			"directory for durable serving state (checkpoint + write-ahead log); "+
				"empty disables durability. On startup the directory is replayed, so "+
				"a restart resumes every open series, the calibration monitor, and "+
				"the recalibrated model where the previous process left them")
		flushInterval = fs.Duration("flush-interval", store.DefaultFlushInterval,
			"write-behind flush period: dirty series state is appended to the WAL "+
				"and fsynced this often, so a crash loses at most this much history")
		checkpointInterval = fs.Duration("checkpoint-interval", store.DefaultCheckpointInterval,
			"full-checkpoint period: how often the WAL is compacted into a "+
				"complete snapshot of every open series plus monitor state")
		walMaxBytes = fs.Int64("wal-max-bytes", store.DefaultMaxWALBytes,
			"WAL size that triggers an early compacting checkpoint (negative disables the size trigger)")
		storeRetryAttempts = fs.Int("store-retry-attempts", store.DefaultRetryAttempts,
			"tries per store operation before a flush/checkpoint cycle gives up "+
				"(1 disables retries); between tries the checkpointer backs off "+
				"exponentially from -store-retry-base with jitter")
		storeRetryBase = fs.Duration("store-retry-base", store.DefaultRetryBase,
			"initial backoff between store-operation retries")
		breakerThreshold = fs.Int("breaker-threshold", store.DefaultBreakerThreshold,
			"consecutive failed flush/checkpoint cycles that trip the circuit "+
				"breaker into degraded mode — durability suspended, traffic keeps "+
				"serving from RAM (negative disables the breaker)")
		breakerProbe = fs.Duration("breaker-probe", store.DefaultProbeInterval,
			"half-open probe interval while degraded; a successful probe writes "+
				"a full recovery checkpoint and restores durability")
		faultInject = fs.Bool("fault-inject", false,
			"TESTING ONLY: wrap the store in a fault injector and serve "+
				"POST /debug/fault to reprogram its fault plan at runtime")
		maxInflight = fs.Int("max-inflight", 0,
			"per-endpoint cap on concurrently processed hot requests "+
				"(step/steps/feedback; 0 = unlimited)")
		admissionQueue = fs.Int("admission-queue", 0,
			"bounded wait queue per hot endpoint once -max-inflight is "+
				"saturated; requests beyond it are shed with 429 (0 = shed "+
				"immediately at the cap)")
		requestTimeout = fs.Duration("request-timeout", 0,
			"deadline per hot request: spent waiting for admission (503 on "+
				"expiry) and propagated as a context through batch steps (0 = none)")
		readTimeout = fs.Duration("read-timeout", time.Minute,
			"max duration for reading an entire request, body included "+
				"(0 = no limit)")
		writeTimeout = fs.Duration("write-timeout", time.Minute,
			"max duration for writing a response (0 = no limit)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second,
			"how long a shutdown waits for in-flight requests")
		drainGrace = fs.Duration("drain-grace", 0,
			"pause between flipping /readyz to 503 and closing the listener; "+
				"set it to the load balancer's readiness-probe interval so the probe "+
				"observes the 503 while the listener still accepts traffic")
		debugAddr = fs.String("debug-addr", "",
			"serve net/http/pprof on this separate listener (empty disables it); "+
				"bind it to loopback — the profiler is an operator surface and must "+
				"never share the public address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateServeFlags(serveFlagValues{
		flushInterval:      *flushInterval,
		checkpointInterval: *checkpointInterval,
		walMaxBytes:        *walMaxBytes,
		stateDir:           *stateDir,
		faultInject:        *faultInject,
		storeRetryAttempts: *storeRetryAttempts,
		storeRetryBase:     *storeRetryBase,
		breakerProbe:       *breakerProbe,
		maxInflight:        *maxInflight,
		admissionQueue:     *admissionQueue,
		requestTimeout:     *requestTimeout,
		readTimeout:        *readTimeout,
		writeTimeout:       *writeTimeout,
		drainTimeout:       *drainTimeout,
		drainGrace:         *drainGrace,
	}); err != nil {
		return err
	}
	start := time.Now()
	w, err := loadPreset(*preset)
	if err != nil {
		return err
	}
	took := time.Since(start)
	fingerprint, err := core.ModelFingerprint(w.Base().QIM(), w.TAQIM())
	if err != nil {
		return err
	}
	mainLog.Info("loaded calibrated wrapper",
		"preset", *preset, "fingerprint", fingerprint, "took", took)
	// The flight recorder is always on (its hot-path cost is two atomic
	// operations per event); anomaly freezes surface as a structured log
	// line pointing the operator at /debug/flight/last-anomaly.
	traceLog := xlog.New("trace")
	flight := trace.New(trace.Config{
		OnAnomaly: func(reason string, at int64, events int) {
			traceLog.Error("anomaly snapshot frozen — GET /debug/flight/last-anomaly holds the window",
				"reason", reason, "events", events, "at_unix_ns", at)
		},
	})
	opts := []ServerOption{
		WithTrace(flight), WithMaxSeries(*maxSeries),
		WithBufferLimit(*bufferLimit), WithFeedbackRing(*feedbackRing),
		WithAutoRecalib(*autoRecalib),
		WithAdmission(*maxInflight, *admissionQueue),
		WithRequestTimeout(*requestTimeout),
	}
	if *stateDir != "" {
		opts = append(opts, WithDurability())
	}
	srv, err := NewServer(w.Base(), w.TAQIM(), simplex.DefaultTSRPolicy(), opts...)
	if err != nil {
		return err
	}

	// Durability attaches before the listener opens: recovery replays the
	// previous process's state into the still-idle pool, then the
	// write-behind checkpointer starts persisting on its own clock.
	var cp *store.Checkpointer
	if *stateDir != "" {
		cp, err = srv.attachDurability(*stateDir, *faultInject, store.CheckpointConfig{
			FlushInterval:      *flushInterval,
			CheckpointInterval: *checkpointInterval,
			MaxWALBytes:        *walMaxBytes,
			RetryAttempts:      *storeRetryAttempts,
			RetryBase:          *storeRetryBase,
			BreakerThreshold:   *breakerThreshold,
			ProbeInterval:      *breakerProbe,
		})
		if err != nil {
			return err
		}
	}
	// Server-side timeouts bound what a slow or stalled client can hold: a
	// connection that cannot deliver its body or take its response within
	// the window is cut, freeing its goroutine and (under admission) its
	// queue slot.
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
	}

	// The binary streaming transport listens alongside HTTP when enabled,
	// under the same -write-timeout per flush; its drain rides the same
	// shutdown sequence (see serveUntilShutdown).
	srv.writeTimeout = *writeTimeout
	if *tcpAddr != "" {
		ln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			return fmt.Errorf("binary transport listener: %w", err)
		}
		go func() {
			if err := srv.ServeWire(ln); err != nil {
				mainLog.Error("binary transport listener failed", "err", err)
			}
		}()
		mainLog.Info("binary transport listening", "addr", *tcpAddr)
	}

	// The debug listener serves the stdlib profiler (and nothing else) on
	// its own address, so taking a CPU profile or a goroutine dump during an
	// incident needs no redeploy — and no exposure on the public port.
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				mainLog.Error("debug (pprof) listener failed", "err", err)
			}
		}()
		mainLog.Info("debug (pprof) listener enabled", "addr", *debugAddr)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM flips readiness and
	// drains in-flight requests; a second signal (stop() restores default
	// handling) kills the process the classic way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	mainLog.Info("listening", "addr", *addr)
	return serveUntilShutdown(ctx, stop, httpServer, srv, cp, *drainGrace, *drainTimeout, httpServer.ListenAndServe)
}

// serveFlagValues is the parsed flag subset validateServeFlags checks; a
// struct (rather than a parameter list) so the table test in main_test.go
// can name the field it perturbs.
type serveFlagValues struct {
	flushInterval      time.Duration
	checkpointInterval time.Duration
	walMaxBytes        int64
	stateDir           string
	faultInject        bool
	storeRetryAttempts int
	storeRetryBase     time.Duration
	breakerProbe       time.Duration
	maxInflight        int
	admissionQueue     int
	requestTimeout     time.Duration
	readTimeout        time.Duration
	writeTimeout       time.Duration
	drainTimeout       time.Duration
	drainGrace         time.Duration
}

// validateServeFlags rejects flag values whose runtime behavior would be
// undefined (a negative ticker interval panics time.NewTicker; a zero
// -wal-max-bytes means "default" to the config but reads like "no limit")
// with one clear startup error instead of a crash or a silent surprise
// minutes into serving.
func validateServeFlags(v serveFlagValues) error {
	if v.flushInterval < 0 {
		return fmt.Errorf("-flush-interval %v must be >= 0", v.flushInterval)
	}
	if v.checkpointInterval < 0 {
		return fmt.Errorf("-checkpoint-interval %v must be >= 0", v.checkpointInterval)
	}
	if v.walMaxBytes == 0 {
		return fmt.Errorf("-wal-max-bytes 0 is ambiguous: pass a positive size, or a negative one to disable the size trigger")
	}
	if v.storeRetryAttempts < 0 {
		return fmt.Errorf("-store-retry-attempts %d must be >= 0", v.storeRetryAttempts)
	}
	if v.storeRetryBase < 0 {
		return fmt.Errorf("-store-retry-base %v must be >= 0", v.storeRetryBase)
	}
	if v.breakerProbe < 0 {
		return fmt.Errorf("-breaker-probe %v must be >= 0", v.breakerProbe)
	}
	if v.maxInflight < 0 {
		return fmt.Errorf("-max-inflight %d must be >= 0", v.maxInflight)
	}
	if v.admissionQueue < 0 {
		return fmt.Errorf("-admission-queue %d must be >= 0", v.admissionQueue)
	}
	if v.requestTimeout < 0 {
		return fmt.Errorf("-request-timeout %v must be >= 0", v.requestTimeout)
	}
	if v.readTimeout < 0 {
		return fmt.Errorf("-read-timeout %v must be >= 0", v.readTimeout)
	}
	if v.writeTimeout < 0 {
		return fmt.Errorf("-write-timeout %v must be >= 0", v.writeTimeout)
	}
	if v.drainTimeout < 0 {
		return fmt.Errorf("-drain-timeout %v must be >= 0", v.drainTimeout)
	}
	if v.drainGrace < 0 {
		return fmt.Errorf("-drain-grace %v must be >= 0", v.drainGrace)
	}
	if v.faultInject && v.stateDir == "" {
		return fmt.Errorf("-fault-inject needs -state-dir: there is no store to inject faults into")
	}
	return nil
}

// serveUntilShutdown runs the listener until it fails or ctx is cancelled
// (a termination signal in production); on cancellation it flips readiness
// off so load balancers drain the instance, keeps the listener open for
// drainGrace so readiness probes can actually observe the 503 before new
// connections start being refused, then waits up to drainTimeout for
// in-flight requests on both listeners and logs a final monitoring summary.
// When durability is attached (cp non-nil), the drain ends with a final full
// checkpoint — also when a drain missed its timeout, since a shutdown that
// skipped it would lose every step since the last flush. Errors of both
// drains and the checkpoint are returned joined. restoreSignals
// (signal.NotifyContext's stop; nil in tests) runs before the waits so a
// second signal regains its default disposition and kills the process
// instead of being swallowed for the whole grace+timeout. Factored out of
// run so the drain sequence is testable without sending the test process a
// signal.
func serveUntilShutdown(ctx context.Context, restoreSignals func(), httpServer *http.Server,
	srv *Server, cp *store.Checkpointer, drainGrace, drainTimeout time.Duration, listen func() error) error {
	errCh := make(chan error, 1)
	go func() { errCh <- listen() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	if restoreSignals != nil {
		restoreSignals()
	}
	srv.SetReady(false)
	if drainGrace > 0 {
		mainLog.Info("shutdown requested; /readyz now 503, still accepting traffic (drain grace)",
			"grace", drainGrace)
		time.Sleep(drainGrace)
	}
	mainLog.Info("draining in-flight requests", "timeout", drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	var shutdownErr error
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		shutdownErr = fmt.Errorf("drain incomplete: %w", err)
	}
	// The binary transport drains inside the same timeout window: idle
	// connections unblock immediately, in-flight frames complete.
	if err := srv.ShutdownWire(shutdownCtx); err != nil {
		shutdownErr = errors.Join(shutdownErr, err)
	}
	// The final checkpoint runs after the drains: once they completed no
	// step is mutating pool state anymore, so the blob is the complete
	// serving history.
	if cp != nil {
		if err := cp.Stop(); err != nil {
			shutdownErr = errors.Join(shutdownErr, fmt.Errorf("final checkpoint: %w", err))
		} else {
			mainLog.Info("final checkpoint written",
				"checkpoints", cp.CheckpointStats().Checkpoints,
				"flushes", cp.CheckpointStats().Flushes)
		}
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	snap := srv.Calibration().Snapshot()
	mainLog.Info("drained cleanly",
		"steps_served", srv.pool.StepCount(), "feedbacks", snap.Feedbacks,
		"windowed_brier", fmt.Sprintf("%.4f", snap.WindowedBrier))
	return nil
}

// Package tauw is a from-scratch Go reproduction of "Timeseries-aware
// Uncertainty Wrappers for Uncertainty Quantification of Information-Fusion-
// Enhanced AI Models based on Machine Learning" (Groß, Kläs, Jöckel, Gerber;
// VERDI @ IEEE/IFIP DSN 2023).
//
// The library lives under internal/: the paper's contribution in
// internal/core (timeseries buffer, taQF, taQIM, the taUW runtime wrapper,
// and the sharded WrapperPool serving substrate with its batch step API),
// the base uncertainty-wrapper framework in internal/uw, and every substrate
// it depends on — CART trees (internal/dtree), binomial bounds and Brier
// decompositions (internal/stats), information/uncertainty fusion
// (internal/fusion), the synthetic GTSRB benchmark (internal/gtsrb), the
// augmentation pipeline (internal/augment), the DDM classifiers
// (internal/ddm), Kalman tracking (internal/track), runtime gating
// (internal/simplex), runtime calibration monitoring (internal/monitor:
// streaming reliability statistics over ground-truth feedback, per-leaf
// evidence accumulators, Page-Hinkley drift alarms, and the
// zero-allocation Prometheus exposition behind tauserve's POST
// /v1/feedback and GET /metrics), the adaptive recalibration loop
// (internal/recalib: refreshing taQIM leaf bounds from the accumulated
// online evidence and hot-swapping the refreshed model into the serving
// pool with zero downtime, either on the operator's POST /v1/recalibrate
// or automatically when the drift alarm fires), the binary streaming
// transport (internal/wire: the length-prefixed frame protocol, its
// zero-copy reader and append-based codec, and the pipelining client
// behind tauserve's -tcp-addr listener), the durability layer
// (internal/store: a versioned reflection-free snapshot codec for every
// piece of serving state, a CRC-framed torn-write-safe write-ahead log
// behind a pluggable Store interface, and the write-behind Checkpointer
// that restores a crashed server bit-identically from tauserve's
// -state-dir), the observability layer (internal/trace: the always-on
// flight recorder — per-stripe event rings written lock-free from every
// layer at two atomic operations per event, merged time-ordered on
// tauserve's GET /debug/flight, with automatic anomaly snapshots on drift
// alarms, breaker trips, and shed storms at /debug/flight/last-anomaly —
// and internal/xlog, the leveled logfmt logging shim every component logs
// through), and the study harness
// (internal/eval, whose offline replay is re-scored through the same
// monitor so offline and online reliability numbers come from one
// implementation, and whose drifted replay pins the closed loop: injected
// label noise raises the alarm, recalibration lifts the degraded leaf
// bounds, and the post-swap windowed Brier recovers).
//
// See README.md for the architecture map, the tauserve HTTP API (including
// the batched POST /v1/steps endpoint with its 4096-item and body-size
// caps), and how to run the tier-1 tests, the race-hardened concurrency
// suite, and the benchmarks. The benchmarks in bench_test.go regenerate
// every table and figure of the paper's evaluation and measure the serving
// layer (sharded pool vs global mutex, batched vs single-step HTTP).
//
// # Allocation discipline
//
// The serving path is allocation-free in steady state, and CI enforces it:
// any benchmark recorded at <= 2 allocs/op in the committed BENCH_*.json
// trajectory fails the bench gate if it decays past that
// (scripts/bench compare -alloc-gate). The zero-alloc paths are the
// wrapper step (core.Wrapper.Step with an incremental fuser), the pool
// batch with a recycled result slice (core.WrapperPool.StepBatchInto /
// StepBatchSeriesInto: pooled counting-sort grouping, closure-free
// fan-out), taQIM inference (dtree.Compiled, including the PredictBatch /
// ApplyBatch block walks), the tauserve hot-endpoint codec (pooled
// request/response buffers, reflection-free encode/decode, and one quality
// arena per pooled scratch that every request reuses: the pool keeps no
// step's quality vector once the step returns), the runtime
// calibration monitoring on the step path (shard-local atomic counters
// plus a per-series provenance ring, zero-alloc on every step but the few
// that double a series' ring toward its cap — also while models
// hot-swap underneath, which BenchmarkPoolStepDuringSwap gates, and while
// the checkpointer flushes underneath, which
// BenchmarkPoolStepDuringCheckpoint gates: durability marks a series dirty
// with one bool store under a lock the step already holds), and the
// Prometheus scrape
// (monitor.Exposition renders into a pooled buffer with cached visitor
// closures).
package tauw

// checkpointer.go is the write-behind glue between the serving state and a
// Store. The serving hot path never sees it: steps only flip a per-track
// dirty bit under a lock they already hold, and the checkpointer harvests
// those bits on its own clock — an incremental flush (dirty series +
// drained closes + changed meta, appended to the WAL and synced) every
// FlushInterval, compacted into a full checkpoint (every open series +
// monitor state + meta, atomically replacing the previous checkpoint) every
// CheckpointInterval or once the WAL outgrows MaxWALBytes.
//
// Monitor state is deliberately checkpoint-granular: the reliability
// windows are the bulk of the state (shards × window × 8 bytes), far too
// heavy to append per flush, and unlike series state they degrade
// gracefully — losing the tail of a sliding statistic costs precision, not
// correctness. Series state is flush-granular; a crash loses at most the
// last FlushInterval of steps.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/monitor"
	"github.com/iese-repro/tauw/internal/trace"
	"github.com/iese-repro/tauw/internal/uw"
	"github.com/iese-repro/tauw/internal/xlog"
)

// Defaults for CheckpointConfig's zero values.
const (
	DefaultFlushInterval      = time.Second
	DefaultCheckpointInterval = time.Minute
	DefaultMaxWALBytes        = 16 << 20
	DefaultRetryAttempts      = 3
	DefaultRetryBase          = 10 * time.Millisecond
	DefaultBreakerThreshold   = 3
	DefaultProbeInterval      = 5 * time.Second
)

// maxProbeBackoffFactor caps the exponential growth of the degraded-mode
// probe interval at this multiple of ProbeInterval.
const maxProbeBackoffFactor = 8

// CheckpointConfig tunes the write-behind cadence and its fault handling.
type CheckpointConfig struct {
	// FlushInterval is the incremental-flush period (0 means
	// DefaultFlushInterval) — the durability window: a crash loses at most
	// this much serving history.
	FlushInterval time.Duration
	// CheckpointInterval is the full-checkpoint period (0 means
	// DefaultCheckpointInterval).
	CheckpointInterval time.Duration
	// MaxWALBytes triggers an early checkpoint once the WAL outgrows it
	// (0 means DefaultMaxWALBytes; negative disables the size trigger).
	MaxWALBytes int64

	// RetryAttempts is the total tries per store operation before the cycle
	// gives up on a transient failure (0 means DefaultRetryAttempts; 1
	// disables retries). Between tries the checkpointer backs off
	// exponentially from RetryBase (0 means DefaultRetryBase) with ±50%
	// jitter, so a fleet recovering from a shared-storage hiccup does not
	// hammer it in lockstep.
	RetryAttempts int
	RetryBase     time.Duration

	// BreakerThreshold is the circuit breaker: after this many consecutive
	// failed flush/checkpoint cycles the checkpointer enters degraded mode —
	// durability is suspended, traffic keeps serving from RAM, and the
	// store is only touched by half-open probes every ProbeInterval
	// (backing off up to 8× while probes keep failing). A successful probe
	// is a full recovery checkpoint, which reconciles everything the WAL
	// missed while degraded in one blob. 0 means DefaultBreakerThreshold;
	// negative disables the breaker (every failed cycle just logs and
	// retries next tick, the pre-breaker behavior).
	BreakerThreshold int
	ProbeInterval    time.Duration

	// Trace wires the durability layer into the flight recorder: WAL
	// appends, flush/checkpoint cycles, every failed retry attempt, and
	// breaker transitions (a trip also freezes the anomaly snapshot that
	// explains it). Nil disables tracing.
	Trace *trace.Recorder
	// Stages, when set, receives the store_append/checkpoint/fsync stage
	// timings of the tauw_stage_duration_seconds attribution.
	Stages *monitor.StageSet
	// Log is the structured logger for cycle failures and breaker
	// transitions; nil means a default component=store logger.
	Log *xlog.Logger
}

func (c CheckpointConfig) withDefaults() CheckpointConfig {
	if c.FlushInterval == 0 {
		c.FlushInterval = DefaultFlushInterval
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = DefaultCheckpointInterval
	}
	if c.MaxWALBytes == 0 {
		c.MaxWALBytes = DefaultMaxWALBytes
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = DefaultRetryAttempts
	}
	if c.RetryBase == 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.Log == nil {
		c.Log = xlog.New("store")
	}
	return c
}

// Stats is a point-in-time read of the checkpointer's counters, the
// backing of the tauw_checkpoint_* metrics.
type Stats struct {
	// Checkpoints and Flushes count completed full checkpoints and
	// incremental flushes; Errors counts failed ones (state stays dirty and
	// is retried on the next tick).
	Checkpoints, Flushes, Errors uint64
	// WALRecords and WALBytes count records appended to the log since
	// construction (not reset by checkpoints).
	WALRecords, WALBytes uint64
	// LastCheckpointUnixNano is the completion time of the newest
	// checkpoint (0 before the first); LastCheckpointBytes its blob size.
	LastCheckpointUnixNano int64
	LastCheckpointBytes    uint64
	// StoreErrors counts failed store operations (every attempt, so a retry
	// that eventually succeeds still shows up here); Degraded is true while
	// the circuit breaker holds durability suspended, and DegradedEntries
	// counts how many times it has tripped.
	StoreErrors     uint64
	Degraded        bool
	DegradedEntries uint64
}

// Checkpointer drives the write-behind loop. Flush/Checkpoint serialise
// through an internal mutex, so the background loop and a drain-time final
// checkpoint can overlap safely.
type Checkpointer struct {
	store  Store
	pool   *core.WrapperPool
	mon    *monitor.Monitor
	leaves *monitor.LeafStats
	cfg    CheckpointConfig

	mu      sync.Mutex // serialises flush/checkpoint cycles
	scratch core.SeriesState
	buf     []byte // record scratch
	blob    []byte // checkpoint blob scratch
	// closed holds the closes drained from the pool's journal that the log
	// does not hold yet: a failed cycle keeps them for the next one.
	closed []int
	mrec   MonitorRecord

	// lastMeta* dedupe the meta record: flushes rewrite it only on change.
	lastMetaCounter uint64
	lastMetaVersion uint64
	// fingerprint is the pool's construction model, stamped into every
	// meta record.
	fingerprint core.Fingerprint

	checkpoints atomic.Uint64
	flushes     atomic.Uint64
	errorsN     atomic.Uint64
	walRecords  atomic.Uint64
	walBytes    atomic.Uint64
	lastCPNanos atomic.Int64
	lastCPBytes atomic.Uint64
	stopOnce    sync.Once
	stop        chan struct{}
	done        chan struct{}
	loopStarted bool
	loopStartMu sync.Mutex

	// Circuit-breaker state. degraded/degradedN/storeErrors are atomics so
	// /readyz and the metrics scrape read them without touching c.mu; the
	// rest is owned by the background loop (consecFails, nextProbe,
	// probeBackoff never race — only tick/probe mutate them).
	degraded     atomic.Bool
	degradedN    atomic.Uint64
	storeErrors  atomic.Uint64
	consecFails  int
	nextProbe    time.Time
	probeBackoff time.Duration

	// now/sleep/rng are the clock, backoff sleeper, and jitter source —
	// fields so resilience tests run the whole retry/breaker machinery
	// without real time passing.
	now   func() time.Time
	sleep func(time.Duration)
	rng   uint64
}

// NewCheckpointer wires a pool (required) and the optional feedback-side
// state to a store. The pool should be built with core.WithStateJournal so
// closes reach the log. This constructor is the clock/rng seam: the real
// time.Now and time.Sleep become the injectable defaults here, and every
// other use in the package must go through c.now / c.sleep / c.rng.
//
//tauw:seamimpl
func NewCheckpointer(s Store, pool *core.WrapperPool, mon *monitor.Monitor, leaves *monitor.LeafStats, cfg CheckpointConfig) (*Checkpointer, error) {
	if s == nil || pool == nil {
		return nil, fmt.Errorf("store: checkpointer needs a store and a pool")
	}
	cfg = cfg.withDefaults()
	if cfg.FlushInterval < 0 || cfg.CheckpointInterval < 0 {
		return nil, fmt.Errorf("store: flush interval %v and checkpoint interval %v must be >= 0",
			cfg.FlushInterval, cfg.CheckpointInterval)
	}
	if cfg.RetryAttempts < 0 || cfg.RetryBase < 0 {
		return nil, fmt.Errorf("store: retry attempts %d and retry base %v must be >= 0",
			cfg.RetryAttempts, cfg.RetryBase)
	}
	if cfg.ProbeInterval < 0 {
		return nil, fmt.Errorf("store: probe interval %v must be >= 0", cfg.ProbeInterval)
	}
	fp, err := pool.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &Checkpointer{
		store:       s,
		pool:        pool,
		mon:         mon,
		leaves:      leaves,
		cfg:         cfg,
		fingerprint: fp,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		now:         time.Now,
		sleep:       time.Sleep,
		rng:         uint64(time.Now().UnixNano()) | 1,
	}, nil
}

// Start launches the background loop. Safe to call once.
func (c *Checkpointer) Start() {
	c.loopStartMu.Lock()
	defer c.loopStartMu.Unlock()
	if c.loopStarted {
		return
	}
	c.loopStarted = true
	go c.run()
}

// run is the background loop. Its tickers are deliberately ambient — tests
// never run the loop, they call tick/flush/checkpoint directly through the
// injected clock — so the loop is part of the production seam wiring.
//
//tauw:seamimpl
func (c *Checkpointer) run() {
	defer close(c.done)
	flushT := time.NewTicker(c.cfg.FlushInterval)
	defer flushT.Stop()
	cpT := time.NewTicker(c.cfg.CheckpointInterval)
	defer cpT.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-flushT.C:
			c.tick(false)
		case <-cpT.C:
			c.tick(true)
		}
	}
}

// tick is one background-cycle attempt: while healthy it runs the scheduled
// flush (or a full checkpoint on the checkpoint tick / WAL-size trip) and
// feeds the breaker; while degraded it only probes. Exclusively called from
// the run loop, so the breaker bookkeeping needs no lock.
func (c *Checkpointer) tick(full bool) {
	if c.degraded.Load() {
		c.probe()
		return
	}
	trip := full || (c.cfg.MaxWALBytes > 0 && c.store.LogSize() >= c.cfg.MaxWALBytes)
	var err error
	if trip {
		err = c.Checkpoint()
	} else {
		err = c.Flush()
	}
	if err == nil {
		c.consecFails = 0
		return
	}
	c.errorsN.Add(1)
	c.consecFails++
	if c.cfg.BreakerThreshold > 0 && c.consecFails >= c.cfg.BreakerThreshold {
		c.enterDegraded(err)
		return
	}
	c.cfg.Log.Warn("cycle failed — state stays dirty, retrying next tick", "err", err)
}

// enterDegraded trips the breaker: durability is suspended (ticks stop
// touching the store, dirty bits keep accumulating in the pool at one bool
// per mutated series) and half-open probes take over.
func (c *Checkpointer) enterDegraded(err error) {
	c.degraded.Store(true)
	c.degradedN.Add(1)
	c.probeBackoff = c.cfg.ProbeInterval
	c.nextProbe = c.now().Add(c.probeBackoff)
	// Record the transition before freezing so the anomaly snapshot holds
	// the breaker event alongside the store errors that tripped it.
	c.cfg.Trace.Record(trace.KindBreaker, trace.StatusTripped, 0, 0, uint64(c.consecFails))
	c.cfg.Trace.Freeze("breaker_trip")
	c.cfg.Log.Error("entering degraded mode — durability suspended, serving from RAM",
		"consecutive_failures", c.consecFails, "probe_in", c.probeBackoff, "err", err)
}

// probe is the half-open state: at most one store attempt per backoff
// window, and that attempt is a full recovery checkpoint — on success it
// captures every series the WAL missed while degraded in one consistent
// blob, so closing the breaker (done inside Checkpoint) and reconciling the
// gap are the same act.
func (c *Checkpointer) probe() {
	if c.now().Before(c.nextProbe) {
		return
	}
	if err := c.Checkpoint(); err != nil {
		c.errorsN.Add(1)
		if c.probeBackoff < maxProbeBackoffFactor*c.cfg.ProbeInterval {
			c.probeBackoff *= 2
		}
		c.nextProbe = c.now().Add(c.probeBackoff)
		c.cfg.Log.Warn("degraded-mode probe failed", "next_probe", c.probeBackoff, "err", err)
		return
	}
	c.consecFails = 0
}

// Degraded reports whether the circuit breaker currently holds durability
// suspended (the tauw_degraded gauge and the /readyz body).
func (c *Checkpointer) Degraded() bool { return c.degraded.Load() }

// withRetry runs one store operation with bounded exponential backoff and
// jitter: transient failures (a flaky disk, a network-attached store
// hiccuping) are absorbed here, persistent ones surface to the breaker.
// Every failed attempt counts into StoreErrors.
func (c *Checkpointer) withRetry(fn func() error) error {
	delay := c.cfg.RetryBase
	var err error
	for attempt := 0; attempt < c.cfg.RetryAttempts; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		c.storeErrors.Add(1)
		c.cfg.Trace.Record(trace.KindRetry, trace.StatusError, 0, 0, uint64(attempt+1))
		if attempt < c.cfg.RetryAttempts-1 {
			c.sleep(c.jitter(delay))
			delay *= 2
		}
	}
	return err
}

// jitter spreads d over [d/2, 3d/2) with a xorshift64 step, so fleet-wide
// retries against shared storage de-synchronise.
func (c *Checkpointer) jitter(d time.Duration) time.Duration {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(x%uint64(d))
}

// Stop halts the loop and writes a final full checkpoint — the drain-time
// hook: after it returns, every served step is in the checkpoint. When the
// store is still failing (degraded mode that never healed), the final
// checkpoint fails after its bounded retries and Stop surfaces the error
// instead of hanging — the operator learns the drain lost the un-flushed
// window rather than the process wedging on a dead disk.
func (c *Checkpointer) Stop() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.loopStartMu.Lock()
	started := c.loopStarted
	c.loopStartMu.Unlock()
	if started {
		<-c.done
	}
	return c.Checkpoint()
}

// Flush appends every dirty series, the drained closes, and a changed meta
// record to the log, then syncs. One failed append aborts the cycle with
// the affected series re-marked dirty.
func (c *Checkpointer) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var traceStart int64
	if c.cfg.Trace != nil {
		traceStart = c.cfg.Trace.Now()
	}
	recs0 := c.walRecords.Load()
	err := c.flushLocked()
	if c.cfg.Trace != nil {
		status := trace.StatusOK
		if err != nil {
			status = trace.StatusError
		}
		c.cfg.Trace.RecordSince(traceStart, trace.KindFlush, status, 0, 0, c.walRecords.Load()-recs0)
	}
	return err
}

func (c *Checkpointer) flushLocked() error {
	_, err := c.pool.CollectDirty(&c.scratch, func(st *core.SeriesState) error {
		c.buf = AppendSeriesRecord(c.buf[:0], st)
		return c.append(c.buf)
	})
	if err != nil {
		return err
	}
	// Closes drain strictly after the sweep's snapshots (see
	// core.CollectDirty's ordering contract), behind those an earlier cycle
	// drained but did not write; a failed append keeps the unwritten rest.
	c.closed = c.pool.DrainClosed(c.closed)
	for i, track := range c.closed {
		c.buf = AppendCloseRecord(c.buf[:0], track)
		if err := c.append(c.buf); err != nil {
			c.closed = append(c.closed[:0], c.closed[i:]...)
			return err
		}
	}
	c.closed = c.closed[:0]
	if err := c.appendMetaIfChanged(); err != nil {
		return err
	}
	if err := c.timedSync(); err != nil {
		return err
	}
	c.flushes.Add(1)
	return nil
}

// timedSync is the store Sync with fsync-stage attribution: of a flush's
// cost, the Sync is the part the deployment's storage determines, so it
// gets its own stage histogram.
func (c *Checkpointer) timedSync() error {
	if c.cfg.Stages == nil {
		return c.withRetry(c.store.Sync)
	}
	t0 := c.now()
	err := c.withRetry(c.store.Sync)
	c.cfg.Stages.Fsync.Observe(c.now().Sub(t0))
	return err
}

// append writes one WAL record with the retry policy. Retrying an Append is
// sound because the Store contract requires a failed Append to leave the log
// as if the call never happened (FileStore truncates a partial frame back
// out), so the retry can never land behind garbage of its own making.
//
// Only a failed append records a KindWALAppend event: a flush appends tens
// of thousands of records, and its KindFlush event already carries their
// count, so an event per record would evict every other store event from
// the recorder's stripe. The store_append stage still times every record.
func (c *Checkpointer) append(rec []byte) error {
	var traceStart int64
	if c.cfg.Trace != nil {
		traceStart = c.cfg.Trace.Now()
	}
	var t0 time.Time
	if c.cfg.Stages != nil {
		t0 = c.now()
	}
	err := c.withRetry(func() error { return c.store.Append(rec) })
	if c.cfg.Stages != nil {
		c.cfg.Stages.StoreAppend.Observe(c.now().Sub(t0))
	}
	if err != nil {
		c.cfg.Trace.RecordSince(traceStart, trace.KindWALAppend, trace.StatusError, 0, 0, uint64(len(rec)))
		return err
	}
	c.walRecords.Add(1)
	c.walBytes.Add(uint64(len(rec)))
	return nil
}

// appendMetaIfChanged writes the meta record when the series counter or
// serving model moved since the last write.
func (c *Checkpointer) appendMetaIfChanged() error {
	counter := c.pool.SeriesCounter()
	_, version := c.pool.ServingModel()
	if counter == c.lastMetaCounter && version == c.lastMetaVersion {
		return nil
	}
	rec, err := c.metaRecord(c.buf[:0])
	if err != nil {
		return err
	}
	c.buf = rec
	if err := c.append(rec); err != nil {
		return err
	}
	c.lastMetaCounter = counter
	c.lastMetaVersion = version
	return nil
}

// metaRecord renders the current meta record, embedding the serving model
// as JSON once it has been swapped past the construction revision.
func (c *Checkpointer) metaRecord(dst []byte) ([]byte, error) {
	qim, version := c.pool.ServingModel()
	m := Meta{SeriesCounter: c.pool.SeriesCounter(), ModelVersion: version, Fingerprint: c.fingerprint}
	if version > 1 {
		js, err := qim.MarshalJSON()
		if err != nil {
			return dst, fmt.Errorf("store: encode serving model: %w", err)
		}
		m.ModelJSON = js
	}
	return AppendMetaRecord(dst, &m), nil
}

// Checkpoint captures the complete state — meta, monitor, every open
// series — into one blob and atomically replaces the previous checkpoint,
// clearing the WAL.
func (c *Checkpointer) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var traceStart int64
	if c.cfg.Trace != nil {
		traceStart = c.cfg.Trace.Now()
	}
	var t0 time.Time
	if c.cfg.Stages != nil {
		t0 = c.now()
	}
	err := c.checkpointLocked()
	if c.cfg.Stages != nil {
		c.cfg.Stages.Checkpoint.Observe(c.now().Sub(t0))
	}
	if c.cfg.Trace != nil {
		status := trace.StatusOK
		if err != nil {
			status = trace.StatusError
		}
		c.cfg.Trace.RecordSince(traceStart, trace.KindCheckpoint, status, 0, 0, c.lastCPBytes.Load())
	}
	return err
}

func (c *Checkpointer) checkpointLocked() error {
	// Closes drained before the sweep are of tracks the sweep no longer
	// captures, so the blob settles them once the store accepts it. A close
	// that lands during the sweep stays journalled for the next flush, which
	// writes it after the blob (see core.CollectDirty).
	c.closed = c.pool.DrainClosed(c.closed)
	blob := c.blob[:0]
	rec, err := c.metaRecord(c.buf[:0])
	if err != nil {
		return err
	}
	c.buf = rec
	blob = AppendBlobRecord(blob, rec)

	c.mrec.HasMonitor = c.mon != nil
	if c.mon != nil {
		c.mon.ExportState(&c.mrec.Monitor)
	}
	c.mrec.HasLeaves = c.leaves != nil
	if c.leaves != nil {
		c.leaves.ExportState(&c.mrec.Leaves)
	}
	c.pool.ExportStats(&c.mrec.PoolStats)
	c.buf = AppendMonitorRecord(c.buf[:0], &c.mrec)
	blob = AppendBlobRecord(blob, c.buf)

	_, err = c.pool.ForEachTrack(&c.scratch, func(st *core.SeriesState) error {
		c.buf = AppendSeriesRecord(c.buf[:0], st)
		blob = AppendBlobRecord(blob, c.buf)
		return nil
	})
	if err != nil {
		return err
	}
	c.blob = blob
	if err := c.withRetry(func() error { return c.store.Checkpoint(blob) }); err != nil {
		return err
	}
	// The checkpoint holds the closes drained before its sweep and the
	// current meta: drop them and re-arm the meta dedupe.
	c.closed = c.closed[:0]
	c.lastMetaCounter = c.pool.SeriesCounter()
	_, c.lastMetaVersion = c.pool.ServingModel()
	c.checkpoints.Add(1)
	c.lastCPNanos.Store(c.now().UnixNano())
	c.lastCPBytes.Store(uint64(len(blob)))
	// A successful full checkpoint holds the complete serving state, so
	// whatever WAL gap degraded mode opened is reconciled by construction:
	// any path that lands one (background probe, drain-time Stop, a manual
	// trigger) closes the breaker.
	if c.degraded.Swap(false) {
		c.cfg.Trace.Record(trace.KindBreaker, trace.StatusRecovered, 0, 0, 0)
		c.cfg.Log.Info("store recovered — degraded mode cleared, recovery checkpoint reconciled the WAL gap")
	}
	return nil
}

// CheckpointStats implements the exposition's CheckpointSource.
func (c *Checkpointer) CheckpointStats() monitor.CheckpointStats {
	return monitor.CheckpointStats{
		Checkpoints:            c.checkpoints.Load(),
		Flushes:                c.flushes.Load(),
		Errors:                 c.errorsN.Load(),
		WALRecords:             c.walRecords.Load(),
		WALBytes:               c.walBytes.Load(),
		LastCheckpointUnixNano: c.lastCPNanos.Load(),
		LastCheckpointBytes:    c.lastCPBytes.Load(),
		StoreErrors:            c.storeErrors.Load(),
		Degraded:               c.degraded.Load(),
		DegradedEntries:        c.degradedN.Load(),
	}
}

// RecoverStats summarises what a recovery restored.
type RecoverStats struct {
	// Series is the number of live series after recovery; Closes the close
	// records applied; Records the log records replayed on top of the
	// checkpoint; ModelVersion the restored serving version (1 = the
	// construction model, nothing was restored over it).
	Series, Closes, Records int
	ModelVersion            uint64
	HadCheckpoint           bool
}

// ErrModelMismatch is returned by Recover when the state was written by a
// pool built with a different construction model: its series would
// continue under estimates the other model never calibrated.
var ErrModelMismatch = errors.New("store: state was written by a different model")

// Recover replays a store into a freshly built pool (and optional monitor
// state), before any traffic: checkpoint records first, then the WAL tail.
// Unknown record kinds are skipped — a newer writer's records do not brick
// an older reader — and close records for tracks that never materialised
// are ignored. A meta record whose fingerprint differs from the pool's
// fails the recovery with ErrModelMismatch; a meta record without one
// (written before fingerprints existed) restores unchecked.
func Recover(s Store, pool *core.WrapperPool, mon *monitor.Monitor, leaves *monitor.LeafStats) (RecoverStats, error) {
	var rs RecoverStats
	var st core.SeriesState
	var meta Meta
	var mrec MonitorRecord
	fp, err := pool.Fingerprint()
	if err != nil {
		return rs, err
	}
	apply := func(rec []byte) error {
		kind, err := RecordKind(rec)
		if err != nil {
			return err
		}
		switch kind {
		case kindSeries:
			if err := DecodeSeriesRecord(rec, &st); err != nil {
				return err
			}
			if err := pool.RestoreTrack(&st); err != nil {
				return err
			}
		case kindClose:
			track, err := DecodeCloseRecord(rec)
			if err != nil {
				return err
			}
			if pool.Close(track) == nil {
				rs.Closes++
			}
		case kindMeta:
			if err := DecodeMetaRecord(rec, &meta); err != nil {
				return err
			}
			if meta.Fingerprint != (core.Fingerprint{}) && meta.Fingerprint != fp {
				return fmt.Errorf("%w: state fingerprint %s, serving model fingerprint %s",
					ErrModelMismatch, meta.Fingerprint, fp)
			}
			pool.SetSeriesCounter(meta.SeriesCounter)
			if len(meta.ModelJSON) > 0 && meta.ModelVersion > 1 {
				qim, err := uw.LoadQIM(meta.ModelJSON)
				if err != nil {
					return fmt.Errorf("store: restore serving model: %w", err)
				}
				if err := pool.InstallModel(qim, meta.ModelVersion); err != nil {
					return err
				}
			}
		case kindMonitor:
			if err := DecodeMonitorRecord(rec, &mrec); err != nil {
				return err
			}
			if mrec.HasMonitor && mon != nil {
				if err := mon.RestoreState(&mrec.Monitor); err != nil {
					return err
				}
			}
			if mrec.HasLeaves && leaves != nil {
				if err := leaves.RestoreState(&mrec.Leaves); err != nil {
					return err
				}
			}
			pool.RestoreStats(&mrec.PoolStats)
		}
		return nil
	}
	err = s.Recover(
		func(blob []byte) error {
			rs.HadCheckpoint = true
			return WalkBlob(blob, apply)
		},
		func(rec []byte) error {
			rs.Records++
			return apply(rec)
		},
	)
	if err != nil {
		return rs, err
	}
	// Recovery's own Close calls journalled themselves; those tracks are
	// gone, so drop the entries instead of logging tombstones for ghosts.
	pool.DrainClosed(nil)
	rs.Series = pool.Active()
	rs.ModelVersion = pool.ModelVersion()
	return rs, nil
}

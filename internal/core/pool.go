package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/iese-repro/tauw/internal/trace"
	"github.com/iese-repro/tauw/internal/uw"
)

// WrapperPool manages one timeseries-aware wrapper per tracked object, the
// session layer every runtime deployment needs: tracks open and close as
// the tracker reports object changes, and each track's wrapper keeps its
// own buffer.
//
// The pool is sharded: track ids hash to one of N shards, each with its own
// lock and track map, so opens/steps/closes on different tracks almost never
// contend. Shard selection itself is lock-free. Steps for the same track are
// serialised; steps for different tracks proceed independently. The pool is
// safe for concurrent use.
//
// Alongside the integer track ids the pool mints string series ids
// (OpenSeries/StepSeries/CloseSeries), the session handle a network serving
// layer hands to clients. A series id names its track: "s<n>" is track -n
// (see seriesID and parseSeries).
type WrapperPool struct {
	base  *uw.Wrapper
	taqim *uw.QualityImpactModel
	// cfg is the resolved configuration (defaults filled in); every
	// track's wrapper shares its Features slice, which nothing writes.
	cfg       Config
	maxTracks int

	// model is the serving taQIM revision, hot-swappable at runtime
	// (SwapModel) without blocking or tearing concurrent steps: every step
	// loads the pointer exactly once, so it sees one consistent
	// (model, version) pair, and the version is stamped into its Result.
	// The construction-time taqim field above stays as revision 1 and as
	// the probe for validating new tracks' configuration.
	model atomic.Pointer[modelState]

	// active counts open tracks; nextSeries mints monotonically increasing
	// series handles. Both are atomics so neither is a global hot spot.
	active     atomic.Int64
	nextSeries atomic.Uint64

	shards []trackShard
	// shardShift is 64 - log2(len(shards)): shard selection takes the top
	// bits of the Fibonacci hash (see shardIndex).
	shardShift uint8

	// monitored enables the runtime calibration-monitoring hooks (see
	// monitor.go): shard-local step counters in stepStats and, when
	// ringSize > 0, a per-track provenance ring feedback is joined against.
	monitored bool
	ringSize  int
	stepStats []stepStatsShard

	// journaling enables the close journal the durability layer drains (see
	// WithStateJournal / DrainClosed in state.go). journalMu only guards the
	// journal slice; it is taken inside shard locks (Close) and never the
	// other way around.
	journaling bool
	journalMu  sync.Mutex
	journal    []int

	// trace is the flight recorder (nil on untraced pools: the hot paths
	// pay one predictable branch per event site and nothing else).
	trace *trace.Recorder
}

type pooledWrapper struct {
	// mu guards the wrapper and its ring. Trace recording while holding it
	// is forbidden (the ring reservation spin must never extend a critical
	// section); record after unlock, as Step does.
	//
	//tauw:notrace
	mu sync.Mutex
	// w is the track's wrapper, held by value with its buffer inside it:
	// a track's fixed-size state is this one object, plus the storage its
	// wrapper and ring allocate when the track opens.
	w Wrapper
	// ring is the track's provenance ring (nil unless the pool was built
	// WithMonitoring and a positive ring size). It opens at
	// initialRingSlots and doubles up to the pool's ringSize as the
	// series' steps need it (see ringLen). Slots are addressed by the
	// step's TotalSteps modulo the ring length; guarded by mu.
	ring []provRecord
	// dirty marks state mutated since the durability layer's last capture
	// (see CollectDirty in state.go); guarded by mu. Set unconditionally on
	// the mutation paths — a plain store under a lock the path already
	// holds is cheaper than branching on whether anyone collects it.
	dirty bool
	// logged marks a track the durability layer has captured (a sweep
	// snapshot, or a restore), so the log may hold a series record for it;
	// closed marks a track Close has retired, which sweeps then skip.
	// Close journals only a logged track. Both guarded by mu.
	logged, closed bool
}

// PoolOption customises pool construction.
type PoolOption func(*poolOptions)

type poolOptions struct {
	shards    int
	monitored bool
	ringSize  int
	journal   bool
	trace     *trace.Recorder
}

// WithTrace wires the pool's event sites — single steps, batch envelopes
// and their per-shard-group runs, failed batch items, feedback joins, model
// swaps — into the flight recorder. Recording one event costs two atomic
// operations and zero allocations (see internal/trace), so the step path
// keeps its 0 allocs/op contract; BenchmarkPoolStepTraced and the traced
// rows of BenchmarkPoolStepBatch hold the line in CI.
func WithTrace(rec *trace.Recorder) PoolOption {
	return func(o *poolOptions) { o.trace = rec }
}

// WithShards overrides the shard count (rounded up to a power of two;
// 0 keeps DefaultShards). More shards reduce contention at slightly more
// memory; one shard degenerates to the classic single-mutex pool.
func WithShards(n int) PoolOption {
	return func(o *poolOptions) { o.shards = n }
}

// NewWrapperPool creates a pool that serves at most maxTracks concurrent
// tracks (0 means unlimited).
func NewWrapperPool(base *uw.Wrapper, taqim *uw.QualityImpactModel, cfg Config, maxTracks int, opts ...PoolOption) (*WrapperPool, error) {
	if base == nil || taqim == nil {
		return nil, errors.New("core: base wrapper and taQIM are required")
	}
	if maxTracks < 0 {
		return nil, fmt.Errorf("core: maxTracks %d must be >= 0", maxTracks)
	}
	var o poolOptions
	for _, opt := range opts {
		opt(&o)
	}
	nshards, err := normShards(o.shards)
	if err != nil {
		return nil, err
	}
	if o.ringSize < 0 {
		return nil, fmt.Errorf("core: feedback ring size %d must be >= 0", o.ringSize)
	}
	cfg, err = resolveConfig(base, taqim, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Features = append([]Feature(nil), cfg.Features...)
	p := &WrapperPool{
		base:       base,
		taqim:      taqim,
		cfg:        cfg,
		maxTracks:  maxTracks,
		shards:     make([]trackShard, nshards),
		shardShift: uint8(64 - bits.TrailingZeros(uint(nshards))),
		monitored:  o.monitored,
		ringSize:   o.ringSize,
		journaling: o.journal,
		trace:      o.trace,
	}
	if p.monitored {
		p.stepStats = make([]stepStatsShard, nshards)
	}
	p.model.Store(&modelState{qim: taqim, version: 1})
	for i := range p.shards {
		p.shards[i].tracks = make(map[int]*pooledWrapper)
	}
	return p, nil
}

// NumShards reports the pool's shard count (a power of two).
func (p *WrapperPool) NumShards() int { return len(p.shards) }

// ErrTrackBudget is returned when opening a track would exceed the pool's
// budget.
var ErrTrackBudget = errors.New("core: track budget exhausted")

// ErrUnknownTrack is returned when stepping or closing a track that is not
// open.
var ErrUnknownTrack = errors.New("core: unknown track")

// ErrUnknownSeries is returned when stepping or closing a string series id
// that names no open track (never issued, already closed, or not a series
// id at all). A series track that is not open answers both ErrUnknownTrack
// and ErrUnknownSeries (see unknownTrack).
var ErrUnknownSeries = errors.New("core: unknown series")

// unknownSeries is the error of an operation on a series id that names no
// open track.
func unknownSeries(id string) error { return fmt.Errorf("%w: %q", ErrUnknownSeries, id) }

// unknownTrack is the error of an operation on a track that is not open. For
// a series track it also wraps unknownSeries of its id, so a series-level
// caller can match the not-found condition whichever layer found it.
func unknownTrack(trackID int) error {
	if trackID < 0 {
		return fmt.Errorf("%w: %w", unknownSeries(seriesID(uint64(-int64(trackID)))), ErrUnknownTrack)
	}
	return fmt.Errorf("%w: %d", ErrUnknownTrack, trackID)
}

// Open starts a fresh timeseries for the given track id; an existing track
// with the same id is reset (the tracker said the object changed). Track
// ids must be non-negative: the negative space belongs to series ids (see
// OpenSeries), and letting callers open into it would alias series tracks.
func (p *WrapperPool) Open(trackID int) error {
	if trackID < 0 {
		return fmt.Errorf("core: track id %d must be >= 0 (negative ids are reserved for series)", trackID)
	}
	return p.open(trackID)
}

func (p *WrapperPool) open(trackID int) error {
	sh := p.trackShardFor(trackID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if pw, ok := sh.tracks[trackID]; ok {
		pw.mu.Lock()
		pw.w.NewSeries()
		// A reset restarts TotalSteps at 1, so surviving ring slots from
		// the previous series would collide with the new step numbers:
		// clear them, making feedback for the dead series unjoinable
		// (ErrStepUnavailable) instead of silently joined to the wrong
		// estimate. A grown ring keeps its length, as Buffer.Reset keeps
		// its capacity.
		clear(pw.ring)
		pw.dirty = true
		pw.mu.Unlock()
		return nil
	}
	// The budget is enforced with an optimistic reservation: claim a slot,
	// roll back if that overshot. Holding only the shard lock here means
	// concurrent opens on other shards cannot be double-counted past the
	// budget, only transiently rejected at the boundary.
	if n := p.active.Add(1); p.maxTracks > 0 && n > int64(p.maxTracks) {
		p.active.Add(-1)
		return fmt.Errorf("%w: %d tracks open", ErrTrackBudget, p.maxTracks)
	}
	pw := &pooledWrapper{dirty: true}
	pw.w.init(p.base, p.taqim, p.cfg)
	if p.monitored && p.ringSize > 0 {
		pw.ring = make([]provRecord, ringLen(0, p.ringSize))
	}
	sh.tracks[trackID] = pw
	return nil
}

// Step feeds one timestep to the track's wrapper and records its KindStep
// event on a traced pool. The pool keeps no reference to quality once Step
// returns (see Wrapper.Step), so the caller may reuse the slice.
//
//tauw:hotpath
func (p *WrapperPool) Step(trackID, outcome int, quality []float64) (Result, error) {
	// Trace timing reads the clock only on traced pools; the event itself
	// is recorded after stepInto has dropped the wrapper lock, so the
	// ring's spin word never nests inside pw.mu.
	var traceStart int64
	if p.trace != nil {
		traceStart = p.trace.Now()
	}
	var res Result
	version, err := p.stepInto(trackID, outcome, quality, &res)
	if p.trace != nil {
		p.trace.RecordSince(traceStart, trace.KindStep, stepStatus(err), uint16(p.shardIndex(trackID)), uint64(trackID), version)
	}
	return res, err
}

// stepInto feeds one timestep to the track's wrapper and writes its result
// into *res, Result{} when the step fails. It returns the model version the
// step loaded (0 when the track is not open) and records no trace event:
// Step records one per step, a batch one per run (see batch.go). The
// unlock is explicit rather than deferred: this is the pool's hottest
// function and the wrapper's step is pure arithmetic over owned state, so
// there is no panic path the defer would be protecting.
//
//tauw:hotpath
func (p *WrapperPool) stepInto(trackID, outcome int, quality []float64, res *Result) (uint64, error) {
	shard := p.shardIndex(trackID)
	sh := &p.shards[shard]
	sh.mu.Lock()
	pw, ok := sh.tracks[trackID]
	sh.mu.Unlock()
	if !ok {
		*res = Result{}
		return 0, unknownTrack(trackID)
	}
	pw.mu.Lock()
	// One atomic load pins this step's model revision: a concurrent
	// SwapModel replaces the pointer for later steps but can never tear
	// this one (the compiled tree behind pm.qim is immutable).
	pm := p.model.Load()
	err := pw.w.stepInto(pm.qim, outcome, quality, nil, res)
	if err == nil {
		res.ModelVersion = pm.version
		pw.dirty = true
		if p.monitored {
			p.recordStep(pw, shard, res)
		}
	}
	pw.mu.Unlock()
	if err != nil {
		*res = Result{}
	}
	return pm.version, err
}

// stepStatus is the trace status of a step's error: not found for a track
// that is not open, error for any other failure.
func stepStatus(err error) trace.Status {
	switch {
	case err == nil:
		return trace.StatusOK
	case errors.Is(err, ErrUnknownTrack):
		return trace.StatusNotFound
	}
	return trace.StatusError
}

// Close retires a track. On a journaling pool it journals the track only
// if a sweep or a restore has captured it: a track the log has never seen
// needs no close record. The closed mark, set in the same hold of pw.mu
// that reads logged, keeps a later sweep from capturing the track, so every
// series record in the log is followed by its track's close.
func (p *WrapperPool) Close(trackID int) error {
	sh := p.trackShardFor(trackID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pw, ok := sh.tracks[trackID]
	if !ok {
		return unknownTrack(trackID)
	}
	delete(sh.tracks, trackID)
	p.active.Add(-1)
	pw.mu.Lock()
	pw.closed = true
	logged := pw.logged
	pw.mu.Unlock()
	if p.journaling && logged {
		p.journalMu.Lock()
		p.journal = append(p.journal, trackID)
		p.journalMu.Unlock()
	}
	return nil
}

// Active returns the number of open tracks.
func (p *WrapperPool) Active() int { return int(p.active.Load()) }

// OpenSeries mints a fresh string series id and opens its track. The id is
// resolvable exactly while its track is open, so a failed open (e.g.
// exhausted budget) leaves nothing behind: later steps on the minted id
// report ErrUnknownSeries, a not-found condition.
//
// Series tracks live in the negative track-id space (see parseSeries), so
// they never collide with tracker-assigned ids passed to Open directly.
func (p *WrapperPool) OpenSeries() (string, error) {
	n := p.nextSeries.Add(1)
	if err := p.open(-int(n)); err != nil {
		return "", err
	}
	return seriesID(n), nil
}

// seriesID formats the id of minted series number n: "s" then n in decimal.
// It is formatted in a stack buffer that holds the longest id, so minting
// costs one allocation, the string, whatever n is.
func seriesID(n uint64) string {
	var b [len("s18446744073709551615")]byte
	b[0] = 's'
	return string(strconv.AppendUint(b[:1], n, 10))
}

// parseSeries returns the track a series id names: -n for "s<n>". It accepts
// exactly the strings seriesID emits for 1 <= n <= math.MaxInt — no sign, no
// leading zero, no other byte — so every open series has one id and an id
// that fails to parse names no series. Trackers hand non-negative object ids
// to Open; keeping series tracks negative means the two id families share one
// pool without the series layer ever resetting or closing a tracker's track.
func parseSeries(id string) (int, bool) {
	if len(id) < 2 || id[0] != 's' || id[1] == '0' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(id); i++ {
		d := int(id[i]) - '0'
		if d < 0 || d > 9 || n > (math.MaxInt-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return -n, true
}

// ResolveSeries maps the id of an open series to its track id.
func (p *WrapperPool) ResolveSeries(id string) (int, error) {
	track, ok := parseSeries(id)
	if ok {
		sh := p.trackShardFor(track)
		sh.mu.Lock()
		_, ok = sh.tracks[track]
		sh.mu.Unlock()
	}
	if !ok {
		return 0, unknownSeries(id)
	}
	return track, nil
}

// StepSeries feeds one timestep to the series' wrapper. Like Step, it keeps
// no reference to quality once it returns.
func (p *WrapperPool) StepSeries(id string, outcome int, quality []float64) (Result, error) {
	track, ok := parseSeries(id)
	if !ok {
		return Result{}, unknownSeries(id)
	}
	return p.Step(track, outcome, quality)
}

// CloseSeries retires a series and its track.
func (p *WrapperPool) CloseSeries(id string) error {
	track, ok := parseSeries(id)
	if !ok {
		return unknownSeries(id)
	}
	return p.Close(track)
}

package trace

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Recorder defaults: 8 ring stripes of 4096 events cover ~30k events of
// recent history (about a second of saturated single-core stepping, minutes
// of realistic mixed traffic) in ~1.3 MiB; an anomaly snapshot keeps up to
// the last 30 seconds, as far back as the rings still reach; 256 sheds
// inside one second freeze a shed-rate anomaly.
const (
	DefaultRings      = 8
	DefaultRingEvents = 4096
	DefaultWindow     = 30 * time.Second
	DefaultShedPerSec = 256
)

// Config tunes a Recorder. The zero value means defaults everywhere.
type Config struct {
	// Rings is the number of ring stripes (rounded up to a power of two).
	// Events stripe by pool shard, so contention on one stripe's spin word
	// only arises between shards that share it.
	Rings int
	// RingEvents is each stripe's capacity in events (rounded up to a
	// power of two); the oldest events are overwritten when full.
	RingEvents int
	// Window bounds how far back an anomaly snapshot reaches; it holds
	// less when the rings have already overwritten the window's start.
	Window time.Duration
	// ShedPerSec freezes a "shed_rate" anomaly when this many admission
	// sheds land inside one second; < 0 disables the trigger.
	ShedPerSec int
	// OnAnomaly, when set, is called once per frozen snapshot (reason, the
	// freeze time in Unix nanoseconds, and the captured event count) — the
	// hook behind the structured anomaly log line. It runs with the
	// recorder's anomaly lock held and must not call back into Freeze.
	OnAnomaly func(reason string, at int64, events int)
}

// stripePad aligns each ring stripe to its own cache lines, the same
// false-sharing discipline as the pool's shards: two cores recording to
// neighbouring stripes must not ping-pong one line between them.
const stripePad = 128

type ringState struct {
	// lock is the stripe's spin word: 0 free, 1 held. Writers CAS it to 1,
	// write their slot, and release with a plain atomic store — the two
	// atomic operations of the hot-path budget. The CAS acquire and the
	// release store pair into a happens-before edge, so the plain pos/buf
	// accesses inside the critical section are race-free by the memory
	// model, not just in practice.
	lock atomic.Uint32
	// pos counts events ever recorded to this stripe; pos & (len(buf)-1)
	// is the next slot, so the live region is the last min(pos, len(buf))
	// events ending at pos.
	pos uint64
	buf []Event
}

type ring struct {
	ringState
	_ [stripePad - unsafe.Sizeof(ringState{})%stripePad]byte
}

// Recorder is the flight recorder: striped event rings plus the anomaly
// snapshot state. All methods are safe on a nil *Recorder and do nothing,
// so layers wire `cfg.Trace.Record(...)` unconditionally.
type Recorder struct {
	rings []ring
	mask  uint64

	// The event clock: one wall-clock anchor captured at construction plus
	// the monotonic delta since. Monotonic reads keep merged dumps ordered
	// through NTP slews; the wall anchor keeps timestamps meaningful to an
	// operator reading the dump next to the logs.
	baseWall int64
	baseMono time.Time

	window    int64
	shedLimit int64
	onAnomaly func(reason string, at int64, events int)

	// Shed-rate trigger: a one-second tumbling window. The counter races
	// benignly across the window flip (a shed storm straddling a second
	// boundary may need a few extra events to trigger), which is fine for
	// an anomaly heuristic.
	shedSec   atomic.Int64
	shedCount atomic.Int64

	// anomaly is the last frozen snapshot; scratch is the reusable merge
	// buffer freezes snapshot into. Both live under anomMu.
	anomMu  sync.Mutex
	scratch []Event
	anomaly anomalyState
}

type anomalyState struct {
	info   AnomalyInfo
	events []Event
}

// AnomalyInfo describes a frozen anomaly snapshot.
type AnomalyInfo struct {
	// Reason is the trigger: "breaker_trip", "drift_alarm", "shed_rate".
	Reason string
	// At is the freeze time in Unix nanoseconds; Seq counts freezes since
	// construction, so a poller can tell a new anomaly from the last one.
	At  int64
	Seq uint64
}

// normPow2 rounds n up to a power of two (the ring index masks depend on
// it), mirroring the pool's shard normalisation.
func normPow2(n, def int) int {
	if n <= 0 {
		n = def
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New builds a Recorder. The zero Config is valid and gives the defaults.
func New(cfg Config) *Recorder {
	rings := normPow2(cfg.Rings, DefaultRings)
	events := normPow2(cfg.RingEvents, DefaultRingEvents)
	window := cfg.Window
	if window <= 0 {
		window = DefaultWindow
	}
	shed := int64(cfg.ShedPerSec)
	if cfg.ShedPerSec == 0 {
		shed = DefaultShedPerSec
	}
	now := time.Now()
	r := &Recorder{
		rings:     make([]ring, rings),
		mask:      uint64(rings - 1),
		baseWall:  now.UnixNano(),
		baseMono:  now,
		window:    int64(window),
		shedLimit: shed,
		onAnomaly: cfg.OnAnomaly,
	}
	for i := range r.rings {
		r.rings[i].buf = make([]Event, events)
	}
	return r
}

// Now returns the recorder's clock — Unix nanoseconds derived from the
// monotonic anchor. Callers timing an operation read it once at the start
// and hand it to RecordSince, so one event costs exactly two clock reads.
//
//tauw:hotpath
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.baseWall + int64(time.Since(r.baseMono))
}

// Record logs one instant event (no duration).
//
//tauw:hotpath
//tauw:noescape
func (r *Recorder) Record(kind Kind, status Status, shard uint16, series, arg uint64) {
	if r == nil {
		return
	}
	r.record(Event{TS: r.Now(), Series: series, Arg: arg, Kind: kind, Status: status, Shard: shard})
}

// RecordSince logs one timed event: start is a value previously read from
// Now, the event's timestamp is the present, and the duration the
// difference.
//
//tauw:hotpath
//tauw:noescape
func (r *Recorder) RecordSince(start int64, kind Kind, status Status, shard uint16, series, arg uint64) {
	if r == nil {
		return
	}
	ts := r.Now()
	r.record(Event{TS: ts, Series: series, Dur: ts - start, Arg: arg, Kind: kind, Status: status, Shard: shard})
}

// record claims the event's stripe and writes the slot: one CAS, one
// struct copy, one release store.
//
//tauw:noescape
func (r *Recorder) record(ev Event) {
	rg := &r.rings[uint64(ev.Shard)&r.mask]
	for spins := 0; !rg.lock.CompareAndSwap(0, 1); spins++ {
		if spins > 64 {
			// A dump holds the stripe for a bounded copy; yield instead of
			// burning the core it needs to finish.
			runtime.Gosched()
		}
	}
	rg.buf[rg.pos&uint64(len(rg.buf)-1)] = ev
	rg.pos++
	rg.lock.Store(0)

	if ev.Kind == KindShed && r.shedLimit > 0 {
		r.noteShed(ev.TS)
	}
}

// noteShed advances the one-second shed window and freezes a shed-rate
// anomaly the moment the count crosses the limit (== not >=, so one storm
// freezes once).
func (r *Recorder) noteShed(ts int64) {
	sec := ts / int64(time.Second)
	if w := r.shedSec.Load(); w != sec {
		if r.shedSec.CompareAndSwap(w, sec) {
			r.shedCount.Store(0)
		}
	}
	if r.shedCount.Add(1) == r.shedLimit {
		// The freeze is the storm's one cold transition: at most once per
		// shed window, and worth its snapshot cost by definition.
		//tauwcheck:ignore hotpath anomaly freeze fires once per storm, deliberately cold
		r.Freeze("shed_rate")
	}
}

// drain appends the stripe's live events to dst in recording order. It
// holds the stripe's spin word for the copy, so callers should pass a dst
// with capacity to spare: growing the slice while writers spin would
// stretch a bounded pause into an allocation.
func (rg *ring) drain(dst []Event) []Event {
	for spins := 0; !rg.lock.CompareAndSwap(0, 1); spins++ {
		if spins > 64 {
			runtime.Gosched()
		}
	}
	n := uint64(len(rg.buf))
	start := uint64(0)
	if rg.pos > n {
		start = rg.pos - n
	}
	for i := start; i < rg.pos; i++ {
		dst = append(dst, rg.buf[i&(n-1)])
	}
	rg.lock.Store(0)
	return dst
}

// Snapshot merges every stripe's live events into dst (reset to length
// zero first) and returns them sorted by timestamp — the /debug/flight
// dump. Steady-state cost is the copy plus an in-place sort: zero
// allocations once dst has grown to the rings' total capacity.
func (r *Recorder) Snapshot(dst []Event) []Event {
	dst = dst[:0]
	if r == nil {
		return dst
	}
	for i := range r.rings {
		dst = r.rings[i].drain(dst)
	}
	slices.SortFunc(dst, func(a, b Event) int { return cmp.Compare(a.TS, b.TS) })
	return dst
}

// Capacity reports the recorder's total event capacity (all stripes), the
// snapshot buffer size a caller should pre-grow to.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.rings) * len(r.rings[0].buf)
}

// Freeze captures the events of the last Window that the rings still hold
// as the recorder's anomaly snapshot, records a KindAnomaly marker in the
// live stream, and fires the OnAnomaly hook. Re-freezing replaces the
// previous snapshot: the *last* anomaly is the one an operator is paged
// about.
func (r *Recorder) Freeze(reason string) {
	if r == nil {
		return
	}
	now := r.Now()
	r.record(Event{TS: now, Kind: KindAnomaly, Status: StatusOK})

	r.anomMu.Lock()
	defer r.anomMu.Unlock()
	r.scratch = r.Snapshot(r.scratch)
	evs := r.scratch
	cut := now - r.window
	lo := 0
	for lo < len(evs) && evs[lo].TS < cut {
		lo++
	}
	evs = evs[lo:]
	r.anomaly.info.Reason = reason
	r.anomaly.info.At = now
	r.anomaly.info.Seq++
	r.anomaly.events = append(r.anomaly.events[:0], evs...)
	if r.onAnomaly != nil {
		r.onAnomaly(reason, now, len(evs))
	}
}

// LastAnomaly appends the last frozen snapshot's events to dst and returns
// its metadata. A zero-valued AnomalyInfo (Seq 0) means nothing has been
// frozen yet.
func (r *Recorder) LastAnomaly(dst []Event) (AnomalyInfo, []Event) {
	dst = dst[:0]
	if r == nil {
		return AnomalyInfo{}, dst
	}
	r.anomMu.Lock()
	defer r.anomMu.Unlock()
	return r.anomaly.info, append(dst, r.anomaly.events...)
}

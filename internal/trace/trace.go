// Package trace is the serving stack's flight recorder: an always-on,
// allocation-free ring of fixed-size binary events recorded from every
// layer — pool steps, batch fan-out, feedback joins, model swaps,
// checkpoint/flush/WAL activity, retry attempts, breaker transitions,
// admission sheds, and drift alarms. The recorder keeps only the recent
// past (each ring overwrites its oldest events), which is exactly what an
// operator needs when an anomaly fires: the seconds *before* the breaker
// tripped, not an unbounded log.
//
// The hot-path contract mirrors the monitoring layer's (see
// internal/core's recordStep): recording one event costs two atomic
// operations (a CAS acquire and a release store on the ring's spin word),
// one ring-slot write, and zero allocations, so the step path's 0 allocs/op
// survives tracing. The package imports nothing beyond the standard
// library and is imported by every other layer, never the reverse.
package trace

// Kind identifies which layer emitted an event.
type Kind uint8

const (
	// KindStep is one pool step (enter→exit): Series is the track id, Dur
	// the step latency, Arg the model version that served it.
	KindStep Kind = 1 + iota
	// KindBatch is one batch (the envelope of its step_run and failed-step
	// events): Arg is the item count, Dur the whole-batch latency.
	KindBatch
	// KindFeedback is one feedback join: Series is the track id, Arg the
	// step index the truth arrived for.
	KindFeedback
	// KindSwap is one model hot-swap: Arg is the new model version.
	KindSwap
	// KindRecalib is one recalibration attempt (the layer above the swap):
	// Dur is the retrain time, Arg the new version on success.
	KindRecalib
	// KindCheckpoint is one full checkpoint: Arg is the blob size in bytes.
	KindCheckpoint
	// KindFlush is one incremental flush sweep: Arg is the record count.
	KindFlush
	// KindWALAppend is one failed WAL append: Arg is the record size in
	// bytes. A successful append records nothing; its flush's KindFlush
	// counts it.
	KindWALAppend
	// KindRetry is one failed store attempt inside the retry loop: Arg is
	// the attempt number (1-based).
	KindRetry
	// KindBreaker is a circuit-breaker transition: StatusTripped entering
	// degraded mode, StatusRecovered leaving it.
	KindBreaker
	// KindShed is one admission shed: Arg identifies the endpoint
	// (EndpointStep/EndpointSteps/EndpointFeedback), Status the reason.
	KindShed
	// KindDrift is a calibration drift alarm: Series is the track whose
	// feedback crossed the threshold, Arg the total alarm count.
	KindDrift
	// KindAnomaly marks a frozen anomaly snapshot inside the live stream,
	// so a later /debug/flight dump shows when the freeze happened.
	KindAnomaly
	// KindStepRun is one batch worker's run over one shard group: Shard is
	// the shard, Series the worker index (0 is the goroutine that
	// dispatched the batch), Arg the run's item count, Dur its stepping
	// time. Status is error when any item of the run failed. A batch
	// records these instead of one KindStep per successful item; a failed
	// item still records its own KindStep.
	KindStepRun

	numKinds = iota + 1
)

// kindNames indexes Kind to its wire name (the JSON "kind" field).
var kindNames = [numKinds]string{
	"", "step", "batch", "feedback", "swap", "recalib", "checkpoint",
	"flush", "wal_append", "retry", "breaker", "shed", "drift", "anomaly",
	"step_run",
}

// Name returns the kind's wire name ("step", "breaker", ...).
func (k Kind) Name() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Status classifies an event's outcome — the error class, not the error
// text (events are fixed-size binary; the text lives in the logs).
type Status uint8

const (
	// StatusOK is a successful operation.
	StatusOK Status = iota
	// StatusError is a failed operation (store error, step error, ...).
	StatusError
	// StatusNotFound is an operation against an unknown series.
	StatusNotFound
	// StatusDuplicate is an idempotently-dropped duplicate feedback.
	StatusDuplicate
	// StatusQueueFull is an admission shed because the queue was full.
	StatusQueueFull
	// StatusDeadline is an admission shed because the deadline passed
	// while queued.
	StatusDeadline
	// StatusTripped is a breaker transition into degraded mode.
	StatusTripped
	// StatusRecovered is a breaker transition out of degraded mode.
	StatusRecovered
	// StatusAlarm is a raised drift alarm.
	StatusAlarm

	numStatuses = iota
)

// statusNames indexes Status to its wire name (the JSON "status" field).
var statusNames = [numStatuses]string{
	"ok", "error", "not_found", "duplicate", "queue_full", "deadline",
	"tripped", "recovered", "alarm",
}

// Name returns the status's wire name ("ok", "tripped", ...).
func (s Status) Name() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "unknown"
}

// Endpoint arguments for KindShed events (the Arg field).
const (
	EndpointStep uint64 = 1 + iota
	EndpointSteps
	EndpointFeedback
)

// Event is one fixed-size trace record. All fields are plain integers so a
// ring slot is one 40-byte struct copy — no pointers, nothing for the GC to
// scan, nothing torn once the ring's spin word is honoured.
type Event struct {
	// TS is the event's wall-clock time in nanoseconds since the Unix
	// epoch, derived from one process-wide monotonic clock so merged dumps
	// order correctly even across NTP adjustments.
	TS int64
	// Series is the numeric track id the event concerns, 0 when the event
	// is not about one series (checkpoints, breaker transitions, sheds).
	Series uint64
	// Dur is the operation's duration in nanoseconds, 0 for instant
	// events (transitions, sheds, alarms).
	Dur int64
	// Arg is the kind-specific payload — model version, byte count, item
	// count, attempt number, endpoint id (see the Kind docs).
	Arg uint64
	// Kind and Status classify the event; Shard is the pool shard it
	// happened on (also the ring stripe it was recorded to).
	Kind   Kind
	Status Status
	Shard  uint16
}

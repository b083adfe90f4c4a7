// admission.go is the overload-protection layer of the hot endpoints
// (step, steps, feedback) on both listeners: a per-endpoint concurrency cap
// with a bounded admission queue and deadline-aware shedding. The accept
// path is allocation-free — admission is one non-blocking channel send,
// release one receive — and only a request that finds the endpoint
// saturated pays for a queue slot (an atomic counter) and a pooled timer.
// A shed is a verdict, not a response: HTTP renders it as a pre-rendered
// JSON body with Retry-After, the wire listener as an error frame, so
// shedding a request under overload costs no allocation either: the
// cheaper rejection is, the better it protects the work that was admitted.
package main

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/iese-repro/tauw/internal/trace"
)

// Shed messages, and their HTTP bodies pre-rendered: the overload path must
// not allocate.
const (
	msgQueueFull = "server overloaded: admission queue full"
	msgDeadline  = "request deadline exceeded in admission queue"
)

var (
	errQueueFullBody = []byte(`{"error":"` + msgQueueFull + `"}`)
	errDeadlineBody  = []byte(`{"error":"` + msgDeadline + `"}`)
)

// limiter is one endpoint's admission gate. A nil tokens channel disables
// the gate entirely (the default): admit/release reduce to one nil check,
// so deployments that never set -max-inflight pay nothing.
type limiter struct {
	name string
	// tokens holds one slot per admitted in-flight request; admission is a
	// channel send, release a receive, so saturation and FIFO-ish wakeup
	// come from the runtime instead of hand-rolled queueing.
	tokens chan struct{}
	// queued counts requests waiting for a token; maxQueue bounds them. The
	// bound is what turns sustained overload into fast 429s instead of an
	// unbounded pile of goroutines all destined to time out.
	queued   atomic.Int64
	maxQueue int64
	// timeout is the admission-wait budget (0 = wait indefinitely; the
	// queue cap alone bounds exposure then).
	timeout time.Duration

	shedQueueFull atomic.Uint64
	shedDeadline  atomic.Uint64

	// trace records each shed into the flight recorder under the gate's
	// endpoint id (trace.EndpointStep/Steps/Feedback); nil disables it.
	trace    *trace.Recorder
	endpoint uint64
}

// admission is the server's hot endpoint set. It implements
// monitor.ShedSource for the tauw_shed_total exposition.
type admission struct {
	step, batch, feedback hotEndpoint
}

// init configures one endpoint's gate in place (the limiter embeds
// atomics, so it cannot be copied): maxInflight 0 disables it.
func (l *limiter) init(name string, maxInflight, maxQueue int, timeout time.Duration) {
	l.name = name
	l.maxQueue = int64(maxQueue)
	l.timeout = timeout
	if maxInflight > 0 {
		l.tokens = make(chan struct{}, maxInflight)
	}
}

// EachShed implements monitor.ShedSource: every endpoint×reason series is
// visited (zeros included, so the counters exist before the first shed).
func (a *admission) EachShed(visit func(endpoint, reason string, count uint64)) {
	for _, l := range [...]*limiter{&a.step.limiter, &a.batch.limiter, &a.feedback.limiter} {
		visit(l.name, "queue_full", l.shedQueueFull.Load())
		visit(l.name, "deadline", l.shedDeadline.Load())
	}
}

// timerPool recycles the queue-wait timers so a saturated endpoint does not
// allocate one timer per queued request.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		// Already fired; drain the channel if the value wasn't consumed so
		// the next Reset starts clean.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// admit gates one request and returns its verdict: http.StatusOK when the
// request holds a token (pair with release), 429 when the bounded queue is
// full (the client should back off and retry), 503 when the request spent
// its whole -request-timeout waiting for a token (the server is saturated
// beyond the queue's smoothing ability). Sheds are already counted.
func (l *limiter) admit() int {
	if l.tokens == nil {
		return http.StatusOK
	}
	select {
	case l.tokens <- struct{}{}:
		return http.StatusOK
	default:
	}
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		l.noteQueueFull()
		return http.StatusTooManyRequests
	}
	if l.timeout <= 0 {
		l.tokens <- struct{}{}
		l.queued.Add(-1)
		return http.StatusOK
	}
	t := getTimer(l.timeout)
	select {
	case l.tokens <- struct{}{}:
		l.queued.Add(-1)
		putTimer(t)
		return http.StatusOK
	case <-t.C:
		l.queued.Add(-1)
		l.noteDeadline()
		putTimer(t)
		return http.StatusServiceUnavailable
	}
}

// noteQueueFull and noteDeadline tally one shed and mirror it into the
// flight recorder — sheds are exactly the context an overload anomaly dump
// needs, and enough of them inside one second freeze a "shed_rate" anomaly
// on their own (trace.Config.ShedPerSec).
func (l *limiter) noteQueueFull() {
	l.shedQueueFull.Add(1)
	l.trace.Record(trace.KindShed, trace.StatusQueueFull, 0, 0, l.endpoint)
}

func (l *limiter) noteDeadline() {
	l.shedDeadline.Add(1)
	l.trace.Record(trace.KindShed, trace.StatusDeadline, 0, 0, l.endpoint)
}

// release returns the admission token. Must be called exactly once after a
// true admit.
func (l *limiter) release() {
	if l.tokens == nil {
		return
	}
	<-l.tokens
}

// shedMessage is the error message of a shed verdict on either transport.
func shedMessage(status int) string {
	if status == http.StatusTooManyRequests {
		return msgQueueFull
	}
	return msgDeadline
}

// shedResponse writes a shed verdict as a pre-rendered overload rejection:
// JSON error shape, exact Content-Length, and a Retry-After the client can
// obey (RFC 7231 §7.1.3). One second is deliberate — shedding exists to
// smooth bursts, and a burst that is still there a second later deserves to
// be shed again.
func shedResponse(w http.ResponseWriter, status int) {
	body := errDeadlineBody
	if status == http.StatusTooManyRequests {
		body = errQueueFullBody
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Retry-After", "1")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		logWriteFailure("shed", status, err)
	}
}

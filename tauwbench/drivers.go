package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// phase is one measured window of a load run; traced windows also record a
// span per request.
type phase struct {
	window
	traced bool
}

// phaseResult is what a load run measured inside one phase.
type phaseResult struct {
	// samples are the step round trips (one per single step, or one per
	// batch frame on durable-batch) completed inside the phase.
	samples []sample
	// steps counts verified step responses completed inside the phase.
	steps int64
	// requests counts every request completed inside the phase; busy sums
	// their round trips (busy / duration is the achieved in-flight depth).
	requests int64
	busy     int64
	logs     []*spanLog
}

// recorder is one load goroutine's per-phase accumulator. Requests are
// attributed to the phase their completion falls in; a request completing
// outside every phase is warm-up and is only counted by the accounting.
type recorder struct {
	phases []phase
	res    []phaseResult
	roots  []int32
	req    uint64
}

func newRecorder(phases []phase, id int) *recorder {
	r := &recorder{phases: phases, res: make([]phaseResult, len(phases)), roots: make([]int32, len(phases)),
		req: uint64(id) << 40}
	for i, p := range phases {
		r.roots[i] = -1
		if p.traced {
			r.res[i].logs = []*spanLog{{}}
		}
	}
	return r
}

// record notes one completed request; steps is the number of verified step
// responses it carried (0 for lifecycle requests), and isStep marks the
// requests whose round trip is a latency sample.
func (r *recorder) record(name string, isStep bool, steps int, t0, t1 int64) {
	for i := range r.phases {
		p := &r.phases[i]
		if !p.contains(t1) {
			continue
		}
		res := &r.res[i]
		res.requests++
		res.busy += t1 - t0
		res.steps += int64(steps)
		if isStep {
			res.samples = append(res.samples, sample{at: t1, rtt: t1 - t0})
		}
		if p.traced {
			log := res.logs[0]
			if r.roots[i] < 0 {
				r.roots[i] = log.add(span{name: "load.caller", parent: -1, req: r.req, start: p.start, end: p.end})
			}
			r.req++
			log.add(span{name: name, parent: r.roots[i], req: r.req, start: t0, end: t1, calls: 1})
		}
		return
	}
}

// merge folds the recorders of all load goroutines into one result per
// phase.
func merge(phases []phase, recs []*recorder) []phaseResult {
	out := make([]phaseResult, len(phases))
	for _, r := range recs {
		for i := range phases {
			a, b := &out[i], &r.res[i]
			a.samples = append(a.samples, b.samples...)
			a.steps += b.steps
			a.requests += b.requests
			a.busy += b.busy
			a.logs = append(a.logs, b.logs...)
		}
	}
	return out
}

// transportError marks a failure of the connection itself, after which a
// load goroutine stops; a non-OK status or a reference mismatch is counted
// and the loop goes on.
type transportError struct{ err error }

func (e *transportError) Error() string { return "transport: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

func isTransport(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// statusError is a request the server answered with a non-OK status.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.msg) }

// driver runs one workload's traffic against a ready server.
type driver interface {
	// start connects and opens the first series of every slot, stepping
	// the stagger frames of a staggered workload.
	start() error
	// run drives the closed loop until the last phase ends.
	run(phases []phase) []phaseResult
	// probe sends one request at a time for d: the unloaded round trips of
	// the transport's step and lifecycle requests.
	probe(d time.Duration) phaseResult
	openSeries() int
	close()
}

// streamConn is one connection of a stream workload, over either transport.
type streamConn interface {
	transport() string
	open() (string, error)
	step(id string, e, j int, out *served) error
	feedback(id string, step, truth int, out *servedFeedback) error
	closeSeries(id string) error
}

// caller is one closed-loop goroutine of a stream workload: each camera
// frame it steps its slots in turn over its connection (stream-wire's
// callers share one pipelined connection).
type caller struct {
	conn  streamConn
	slots []*slot
}

// slotOps is what both drivers share: the slots, the reference, the
// accounting, and the lifecycle requests around an encounter.
type slotOps struct {
	o     *oracle
	acct  *accounting
	slots []*slot
}

// open opens the slot's next series.
func (k *slotOps) open(conn streamConn, s *slot, rec *recorder) error {
	t0 := now()
	id, err := conn.open()
	rec.record(conn.transport()+".open", false, 0, t0, now())
	if k.acct.note(opOpen, err) {
		s.id = id
	}
	return err
}

// finish reports the ground truth of the slot's ended encounter, closes its
// series and moves the slot to its next encounter. It returns a transport
// error, after which the slot is left as it was; other failures are only
// counted.
func (k *slotOps) finish(conn streamConn, s *slot, rec *recorder) error {
	tr := conn.transport()
	var fb servedFeedback
	t0 := now()
	err := conn.feedback(s.id, s.pos, k.o.enc[s.enc].truth, &fb)
	rec.record(tr+".feedback", false, 0, t0, now())
	if err == nil {
		err = k.o.checkFeedback(s.enc, &fb)
	}
	if !k.acct.note(opFeedback, err) && isTransport(err) {
		return err
	}
	t0 = now()
	err = conn.closeSeries(s.id)
	rec.record(tr+".close", false, 0, t0, now())
	if !k.acct.note(opClose, err) && isTransport(err) {
		return err
	}
	s.id = ""
	s.next()
	return nil
}

// openSeries is the number of series open once a run or probe returned.
func (k *slotOps) openSeries() int {
	n := 0
	for _, s := range k.slots {
		if s.id != "" {
			n++
		}
	}
	return n
}

// streamDriver runs stream-wire and stream-http.
type streamDriver struct {
	slotOps
	callers []*caller
	closers []func()
}

func (d *streamDriver) start() error { return nil } // the first frame opens every slot's series

// ended reports whether the slot's encounter has had its last frame.
func (d *streamDriver) ended(s *slot) bool { return s.pos == d.o.enc[s.enc].frames() }

// step sends the next step of each of the caller's slots that has a series
// open and frames left. It reports false after a transport failure.
func (d *streamDriver) step(c *caller, rec *recorder) bool {
	for _, s := range c.slots {
		if s.id == "" || d.ended(s) {
			continue
		}
		var got served
		t0 := now()
		err := c.conn.step(s.id, s.enc, s.pos, &got)
		t1 := now()
		if err == nil {
			err = d.o.checkStep(s.enc, s.pos, &got)
		}
		verified := 0
		if d.acct.note(opStep, err) {
			d.acct.verified.Add(1)
			verified = 1
		}
		rec.record(c.conn.transport()+".step", true, verified, t0, t1)
		if isTransport(err) {
			return false
		}
		s.pos++
	}
	return true
}

// lifecycle reports the ground truth of each of the caller's ended
// encounters and closes its series, then opens a series for each slot
// without one. It reports false after a transport failure.
func (d *streamDriver) lifecycle(c *caller, rec *recorder) bool {
	for _, s := range c.slots {
		if s.id != "" && d.ended(s) && d.finish(c.conn, s, rec) != nil {
			return false
		}
		if s.id == "" {
			if err := d.open(c.conn, s, rec); isTransport(err) {
				return false
			}
		}
	}
	return true
}

// needsLifecycle reports whether some slot has ended its encounter or has
// no series open.
func (d *streamDriver) needsLifecycle() bool {
	for _, s := range d.slots {
		if s.id == "" || d.ended(s) {
			return true
		}
	}
	return false
}

// run drives the callers in lock-step camera frames, like a perception
// pipeline that acts on a camera frame once every reply of it is back. A
// frame has up to two phases, and in each every caller takes one turn
// concurrently. First, when some tracked sign has left the scene or is new,
// the lifecycle phase reports the ended encounters' ground truth, closes
// their series and opens the next ones. Then the step phase steps every
// tracked sign once. Step round trips are thus timed with only step
// requests in flight, and every step phase has the same shape.
func (d *streamDriver) run(phases []phase) []phaseResult {
	end := phases[len(phases)-1].end
	recs := make([]*recorder, len(d.callers))
	// starts[i] carries caller i's turns: true for a lifecycle turn, false
	// for a step turn.
	starts := make([]chan bool, len(d.callers))
	var turn, wg sync.WaitGroup
	var broken atomic.Bool
	for i, c := range d.callers {
		recs[i] = newRecorder(phases, i)
		starts[i] = make(chan bool)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for life := range starts[i] {
				var ok bool
				if life {
					ok = d.lifecycle(c, recs[i])
				} else {
					ok = d.step(c, recs[i])
				}
				if !ok {
					broken.Store(true)
				}
				turn.Done()
			}
		}()
	}
	everyone := func(life bool) {
		turn.Add(len(d.callers))
		for _, start := range starts {
			start <- life
		}
		turn.Wait()
	}
	for now() < end && !broken.Load() {
		if d.needsLifecycle() {
			everyone(true)
		}
		everyone(false)
	}
	for _, start := range starts {
		close(start)
	}
	wg.Wait()
	return merge(phases, recs)
}

// probe drives the first caller's first slot alone, one request in flight.
func (d *streamDriver) probe(dur time.Duration) phaseResult {
	start := now()
	p := []phase{{window: window{start, start + int64(dur)}, traced: true}}
	c := &caller{conn: d.callers[0].conn, slots: d.callers[0].slots[:1]}
	rec := newRecorder(p, len(d.callers))
	for now() < p[0].end && d.lifecycle(c, rec) && d.step(c, rec) {
	}
	return merge(p, []*recorder{rec})[0]
}

func (d *streamDriver) close() {
	for _, f := range d.closers {
		f()
	}
}

package main

import (
	"sync"
	"time"

	"github.com/iese-repro/tauw/internal/wire"
)

// lifecycleWorkers is how many goroutines pipeline open/feedback/close
// frames on durable-batch's second connection.
const lifecycleWorkers = 8

// durableDriver runs durable-batch: one 512-item step-batch frame in flight
// on the first connection, in slot order (so each frame holds 512
// consecutive slots and the 4096 slots take 8 frames). When a frame ends
// encounters, the lifecycle workers pipeline their feedback, close and next
// open on the second connection, like a tracker retiring and admitting
// tracks between camera frames, and they finish before the next frame goes
// out. Batch round trips are thus timed with no lifecycle frame in flight.
type durableDriver struct {
	slotOps
	batch, life *wire.Client

	items []wire.StepRequest
	out   []wire.BatchItemResult
	next  int
}

// lifeJob is one slot's lifecycle work: open its first series, or report
// the finished encounter's ground truth, close it and open the next.
type lifeJob struct {
	s      *slot
	finish bool
	done   *sync.WaitGroup
}

func newDurableDriver(srv *server, o *oracle, acct *accounting, slots []*slot) (*durableDriver, error) {
	batch, err := wire.Dial(srv.wireAddr)
	if err != nil {
		return nil, err
	}
	life, err := wire.Dial(srv.wireAddr)
	if err != nil {
		batch.Close()
		return nil, err
	}
	return &durableDriver{
		slotOps: slotOps{o: o, acct: acct, slots: slots},
		batch:   batch,
		life:    life,
		items:   make([]wire.StepRequest, 0, batchItems),
		out:     make([]wire.BatchItemResult, batchItems),
	}, nil
}

// lifecycle runs jobs on the second connection until jobs closes.
func (d *durableDriver) lifecycle(jobs <-chan lifeJob, rec *recorder) {
	conn := &wireConn{cl: d.life, o: d.o}
	for j := range jobs {
		// Failures are counted by the accounting; after a transport error
		// the open fails as well and the slot's next frame reports it.
		if j.finish {
			_ = d.finish(conn, j.s, rec)
		}
		_ = d.open(conn, j.s, rec)
		j.done.Done()
	}
}

// startLifecycle starts the lifecycle workers; the returned stop closes the
// job queue and waits for them.
func (d *durableDriver) startLifecycle(phases []phase) (chan<- lifeJob, []*recorder, func()) {
	// Sized to one chunk, the most jobs one batch frame can produce, so the
	// batch loop never blocks handing them over.
	jobs := make(chan lifeJob, batchItems)
	recs := make([]*recorder, lifecycleWorkers)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = newRecorder(phases, 1+i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.lifecycle(jobs, recs[i])
		}()
	}
	return jobs, recs, func() {
		close(jobs)
		wg.Wait()
	}
}

// start opens every slot's first series, then steps the stagger frames:
// slot i's first encounter advances i mod 10 frames before measuring.
func (d *durableDriver) start() error {
	jobs, _, stop := d.startLifecycle(nil)
	var opened sync.WaitGroup
	for _, s := range d.slots {
		opened.Add(1)
		jobs <- lifeJob{s: s, done: &opened}
	}
	opened.Wait()
	stop()
	rec := newRecorder(nil, 0)
	for f := 0; ; f++ {
		var warm []*slot
		for _, s := range d.slots {
			if s.warm > f && s.id != "" {
				warm = append(warm, s)
			}
		}
		if len(warm) == 0 {
			return nil
		}
		for len(warm) > 0 {
			n := min(len(warm), batchItems)
			d.stepBatch(warm[:n], rec, nil, nil)
			warm = warm[n:]
		}
	}
}

// stepBatch sends one frame stepping every slot in chunk once, verifies
// each item, and hands the slots whose encounter ended to the lifecycle
// workers (counted in done).
func (d *durableDriver) stepBatch(chunk []*slot, rec *recorder, jobs chan<- lifeJob, done *sync.WaitGroup) {
	d.items = d.items[:0]
	for _, s := range chunk {
		enc := &d.o.enc[s.enc]
		d.items = append(d.items, wire.StepRequest{SeriesID: s.id, Outcome: enc.outcomes[s.pos], Quality: enc.quality[s.pos]})
	}
	out := d.out[:len(chunk)]
	t0 := now()
	err := d.batch.StepBatch(d.items, out)
	t1 := now()
	if err != nil {
		err = wireErr(err)
	}
	verified := 0
	for i, s := range chunk {
		if err == nil {
			if ierr := d.checkItem(s, &out[i]); ierr == nil {
				verified++
			} else {
				err = ierr // the frame fails with its first bad item
			}
		}
		s.pos++
		if jobs != nil && s.pos == d.o.enc[s.enc].frames() {
			done.Add(1)
			jobs <- lifeJob{s: s, finish: true, done: done}
		}
	}
	d.acct.note(opBatch, err)
	d.acct.verified.Add(int64(verified))
	rec.record("wire.batch", true, verified, t0, t1)
}

// checkItem verifies one batch item against the reference.
func (d *durableDriver) checkItem(s *slot, r *wire.BatchItemResult) error {
	if r.Status != wire.StatusOK {
		return &statusError{status: r.Status, msg: r.Err}
	}
	got := servedFromWire(&r.Step)
	return d.o.checkStep(s.enc, s.pos, &got)
}

// loop sends frames until end; each frame's lifecycle jobs finish before
// the next frame.
func (d *durableDriver) loop(phases []phase, end int64) []phaseResult {
	jobs, recs, stop := d.startLifecycle(phases)
	rec := newRecorder(phases, 0)
	chunks := (len(d.slots) + batchItems - 1) / batchItems
	var done sync.WaitGroup
	for now() < end {
		c := d.next % chunks
		d.next++
		lo, hi := c*batchItems, min((c+1)*batchItems, len(d.slots))
		d.stepBatch(d.slots[lo:hi], rec, jobs, &done)
		done.Wait()
	}
	stop()
	return merge(phases, append([]*recorder{rec}, recs...))
}

func (d *durableDriver) run(phases []phase) []phaseResult {
	return d.loop(phases, phases[len(phases)-1].end)
}

// probe runs the same frames as run, in one traced phase of its own.
func (d *durableDriver) probe(dur time.Duration) phaseResult {
	start := now()
	p := []phase{{window: window{start, start + int64(dur)}, traced: true}}
	return d.loop(p, p[0].end)[0]
}

func (d *durableDriver) close() {
	d.batch.Close()
	d.life.Close()
}

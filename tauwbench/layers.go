package main

import (
	"fmt"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/eval"
	"github.com/iese-repro/tauw/internal/monitor"
	"github.com/iese-repro/tauw/internal/simplex"
	"github.com/iese-repro/tauw/internal/trace"
)

// layerSteps is how many step requests one in-process replay pass covers;
// layerReps passes run per entry point and the median pass is reported.
const (
	layerSteps = 40960
	layerReps  = 5
)

// servedRing is tauserve's default feedback ring (-feedback-ring), which
// the in-process pools are built with so they do the same per-step work.
const servedRing = 256

// layers replays a workload's own request stream through the public entry
// points tauserve composes, in process, one layer at a time. Each replay
// pass is a span covering its calls; per-call times are pass duration over
// calls, medianed across passes.
type layers struct {
	st   *eval.Study
	o    *oracle
	w    workload
	seed uint64
	log  *spanLog
	root int32
	// metrics collects the per-layer results, by per_layer metric name.
	metrics map[string]float64
}

func newLayers(st *eval.Study, o *oracle, w workload, seed uint64) *layers {
	l := &layers{st: st, o: o, w: w, seed: seed, log: &spanLog{}, metrics: map[string]float64{}}
	l.root = l.log.add(span{name: "inproc", parent: -1, start: now()})
	return l
}

// timed runs fn (which makes calls calls) as one span and returns its
// duration in ns.
func (l *layers) timed(name string, calls int, fn func()) int64 {
	start := now()
	fn()
	end := now()
	l.log.add(span{name: name, parent: l.root, start: start, end: end, calls: int32(calls)})
	return end - start
}

// perCall runs layerReps passes of fn (after setup, untimed) and records
// the median ns per call as metric; the first error stops it.
func (l *layers) perCall(metric, name string, calls int, setup, fn func() error) error {
	per := make([]float64, 0, layerReps)
	for range layerReps {
		if setup != nil {
			if err := setup(); err != nil {
				return err
			}
		}
		var err error
		d := l.timed(name, calls, func() { err = fn() })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, float64(d)/float64(calls))
	}
	l.metrics[metric] = median(per)
	return nil
}

// run measures every in-process layer on the workload's plan.
func (l *layers) run() error {
	p := newPlan(l.w, l.seed, l.o, max(1, layerSteps/l.w.live))
	ops := p.steps()
	enc := l.o.enc

	// uw: the stateless base wrapper, and the taQIM on the rows the wrapper
	// assembles (core.BuildRows is the same layout Wrapper.Step builds).
	err := l.perCall("uw.base_estimate_ns", "uw.Wrapper.Estimate", ops, nil, func() error {
		for _, r := range p.rounds {
			for _, op := range r {
				e := &enc[op.enc]
				if _, err := l.st.Base.Estimate(e.outcomes[op.frame], e.quality[op.frame], nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rows, err := l.taqimRows()
	if err != nil {
		return err
	}
	err = l.perCall("uw.taqim_predict_ns", "uw.QualityImpactModel.Predict", ops, nil, func() error {
		for _, r := range p.rounds {
			for _, op := range r {
				if _, _, err := l.st.TAQIM.Predict(rows[op.enc][op.frame]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// core.Wrapper: one fast-path wrapper per slot.
	wrappers := make([]*core.Wrapper, p.live)
	for i := range wrappers {
		if wrappers[i], err = core.NewWrapper(l.st.Base, l.st.TAQIM, core.Config{}); err != nil {
			return err
		}
	}
	warmWrappers := func() error {
		for _, w := range wrappers {
			w.NewSeries()
		}
		for _, op := range p.warm {
			e := &enc[op.enc]
			if _, err := wrappers[op.slot].Step(e.outcomes[op.frame], e.quality[op.frame]); err != nil {
				return err
			}
		}
		return nil
	}
	err = l.perCall("core.wrapper_step_ns", "core.Wrapper.Step", ops, warmWrappers, func() error {
		for _, r := range p.rounds {
			for _, op := range r {
				w := wrappers[op.slot]
				if op.frame == 0 {
					w.NewSeries()
				}
				e := &enc[op.enc]
				if _, err := w.Step(e.outcomes[op.frame], e.quality[op.frame]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	wrappers = nil

	if err := l.pool(p, false); err != nil {
		return err
	}
	if err := l.pool(p, true); err != nil {
		return err
	}
	l.metrics["trace.step_overhead_ns"] = l.metrics["core.pool_step_traced_ns"] - l.metrics["core.pool_step_ns"]
	if err := l.batch(0, "core.batch_item_ns"); err != nil {
		return err
	}
	if err := l.batch(1, "core.batch_serial_item_ns"); err != nil {
		return err
	}
	return l.gateAndObserve(p)
}

// taqimRows builds every encounter's taQIM rows.
func (l *layers) taqimRows() ([][][]float64, error) {
	series := make([]core.SeriesObservations, len(l.o.enc))
	for i, e := range l.o.enc {
		series[i] = core.SeriesObservations{Truth: e.truth, Outcomes: e.outcomes, Quality: e.quality}
	}
	flat, _, err := core.BuildRows(series, l.st.Base, nil, nil)
	if err != nil {
		return nil, err
	}
	rows := make([][][]float64, len(l.o.enc))
	for i, e := range l.o.enc {
		rows[i], flat = flat[:e.frames()], flat[e.frames():]
	}
	return rows, nil
}

// newServedPool builds a pool the way tauserve does: default shards and
// the default feedback ring, plus the flight recorder when traced.
func (l *layers) newServedPool(traced bool) (*core.WrapperPool, error) {
	opts := []core.PoolOption{core.WithShards(0), core.WithMonitoring(servedRing)}
	if traced {
		opts = append(opts, core.WithTrace(trace.New(trace.Config{})))
	}
	return core.NewWrapperPool(l.st.Base, l.st.TAQIM, core.Config{}, 0, opts...)
}

// openPlan opens one series per slot and steps the plan's stagger frames.
func openPlan(pool *core.WrapperPool, p *plan, enc []encounter) ([]string, error) {
	ids := make([]string, p.live)
	for i := range ids {
		id, err := pool.OpenSeries()
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	for _, op := range p.warm {
		e := &enc[op.enc]
		if _, err := pool.StepSeries(ids[op.slot], e.outcomes[op.frame], e.quality[op.frame]); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// pool replays the plan through a served pool: each round's steps as one
// timed block, then the round's feedback joins, then its close+open pairs.
func (l *layers) pool(p *plan, traced bool) error {
	var stepNs, joinNs, churnNs []float64
	var joins, attempts int
	prefix := "core.WrapperPool"
	if traced {
		prefix = "core.WrapperPool(traced)"
	}
	enc := l.o.enc
	for range layerReps {
		pool, err := l.newServedPool(traced)
		if err != nil {
			return err
		}
		ids, err := openPlan(pool, p, enc)
		if err != nil {
			return err
		}
		var steps, stepT, joinT, churnT, churns int64
		var finished []int32
		for _, r := range p.rounds {
			finished = finished[:0]
			stepT += l.timed(prefix+".StepSeries", len(r), func() {
				for _, op := range r {
					e := &enc[op.enc]
					if _, err = pool.StepSeries(ids[op.slot], e.outcomes[op.frame], e.quality[op.frame]); err != nil {
						return
					}
					if op.last {
						finished = append(finished, op.slot)
					}
				}
			})
			if err != nil {
				return err
			}
			steps += int64(len(r))
			if len(finished) == 0 {
				continue
			}
			joinT += l.timed(prefix+".TakeFeedbackSeries", len(finished), func() {
				for _, s := range finished {
					attempts++
					if _, err := pool.TakeFeedbackSeries(ids[s], enc[r[s].enc].frames()); err == nil {
						joins++
					}
				}
			})
			churnT += l.timed(prefix+".CloseSeries+OpenSeries", len(finished), func() {
				for _, s := range finished {
					if err = pool.CloseSeries(ids[s]); err != nil {
						return
					}
					if ids[s], err = pool.OpenSeries(); err != nil {
						return
					}
				}
			})
			if err != nil {
				return err
			}
			churns += int64(len(finished))
		}
		stepNs = append(stepNs, float64(stepT)/float64(steps))
		if churns > 0 {
			joinNs = append(joinNs, float64(joinT)/float64(churns))
			churnNs = append(churnNs, float64(churnT)/float64(churns))
		}
	}
	if traced {
		l.metrics["core.pool_step_traced_ns"] = median(stepNs)
		return nil
	}
	l.metrics["core.pool_step_ns"] = median(stepNs)
	l.metrics["core.feedback_join_ns"] = median(joinNs)
	l.metrics["core.series_open_close_ns"] = median(churnNs)
	if attempts > 0 {
		l.metrics["core.feedback_joined_ratio"] = float64(joins) / float64(attempts)
	}
	return nil
}

// batch replays the workload's plan widened to at least 512 slots as
// 512-item StepBatchSeriesInto calls (each round is whole batches of
// consecutive slots), with the given worker count; the round's close+open
// churn runs untimed between rounds.
func (l *layers) batch(workers int, metric string) error {
	w := l.w
	w.live = max(w.live, batchItems)
	p := newPlan(w, l.seed, l.o, max(1, layerSteps/w.live))
	enc := l.o.enc
	name := fmt.Sprintf("core.WrapperPool.StepBatchSeriesInto(workers=%d)", workers)
	items := make([]core.SeriesStepItem, 0, batchItems)
	var dst []core.BatchResult
	var per []float64
	for range layerReps {
		pool, err := l.newServedPool(false)
		if err != nil {
			return err
		}
		ids, err := openPlan(pool, p, enc)
		if err != nil {
			return err
		}
		var t, n int64
		for _, r := range p.rounds {
			for lo := 0; lo < len(r); lo += batchItems {
				chunk := r[lo:min(lo+batchItems, len(r))]
				items = items[:0]
				for _, op := range chunk {
					e := &enc[op.enc]
					items = append(items, core.SeriesStepItem{SeriesID: ids[op.slot], Outcome: e.outcomes[op.frame], Quality: e.quality[op.frame]})
				}
				t += l.timed(name, len(items), func() {
					dst = pool.StepBatchSeriesInto(items, workers, dst)
				})
				n += int64(len(items))
				for _, br := range dst {
					if br.Err != nil {
						return fmt.Errorf("%s: %w", name, br.Err)
					}
				}
			}
			for _, op := range r {
				if !op.last {
					continue
				}
				if err := pool.CloseSeries(ids[op.slot]); err != nil {
					return err
				}
				if ids[op.slot], err = pool.OpenSeries(); err != nil {
					return err
				}
			}
		}
		per = append(per, float64(t)/float64(n))
	}
	l.metrics[metric] = median(per)
	return nil
}

// gateAndObserve times the simplex gate on every served (fused, u) of the
// plan, and the feedback-side monitor work (Monitor.Observe plus
// LeafStats.Observe) on every encounter end of the plan.
func (l *layers) gateAndObserve(p *plan) error {
	gate, err := simplex.NewMonitor(simplex.DefaultTSRPolicy())
	if err != nil {
		return err
	}
	ops := p.steps()
	exp := l.o.exp
	err = l.perCall("simplex.gate_ns", "simplex.Monitor.Gate", ops, nil, func() error {
		for _, r := range p.rounds {
			for _, op := range r {
				x := &exp[op.enc][op.frame]
				if _, err := gate.Gate(x.fused, x.u); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	type fb struct {
		track, leaf int
		u           float64
		wrong       bool
	}
	var fbs []fb
	for _, r := range p.rounds {
		for _, op := range r {
			if op.last {
				x := &exp[op.enc][op.frame]
				fbs = append(fbs, fb{track: int(op.slot), leaf: x.leaf, u: x.u, wrong: x.fused != l.o.enc[op.enc].truth})
			}
		}
	}
	if len(fbs) == 0 {
		return nil
	}
	mon, err := monitor.New(monitor.Config{})
	if err != nil {
		return err
	}
	leaves, err := monitor.NewLeafStats(l.st.TAQIM.NumRegions(), 0)
	if err != nil {
		return err
	}
	return l.perCall("monitor.feedback_observe_ns", "monitor.Observe+LeafStats.Observe", len(fbs), nil, func() error {
		for _, f := range fbs {
			if err := mon.Observe(f.track, f.u, f.wrong); err != nil {
				return err
			}
			leaves.Observe(f.track, f.leaf, f.wrong)
		}
		return nil
	})
}

// finish closes the in-process root span.
func (l *layers) finish() {
	l.log.spans[l.root].end = now()
}

package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/iese-repro/tauw/internal/trace"
	"github.com/iese-repro/tauw/internal/xslice"
)

// StepItem is one entry of a batch step: one timestep for one open track.
type StepItem struct {
	TrackID int
	Outcome int
	Quality []float64
}

// SeriesStepItem is one entry of a batch step addressed by string series id.
type SeriesStepItem struct {
	SeriesID string
	Outcome  int
	Quality  []float64
}

// BatchResult pairs one batch item's result with its error; exactly one of
// the two is meaningful. Errors are per-item: one bad item never fails its
// batch.
type BatchResult struct {
	Result Result
	Err    error
}

// batchScratch is the reusable dispatch state of one StepBatch call: the
// counting-sort arrays that group items by shard, the compacted list of
// non-empty groups, and the worker coordination fields. Batches recycle it
// through scratchPool, so a steady-state serving loop allocates nothing for
// grouping or fan-out — the price PR 2's profile showed dominating the batch
// path (a map of index slices plus a channel per call).
type batchScratch struct {
	// Counting sort by shard: counts/offsets are indexed by shard id,
	// order holds item indices grouped by shard, groups lists the
	// non-empty shards in ascending order.
	counts []int32
	order  []int32
	groups []int32

	// Series resolution scratch (StepBatchSeries only): the parsed items
	// and, for each, the index of its result slot in the caller's out.
	tracks []StepItem
	back   []int32

	// Worker state, set per dispatch and cleared before release so the
	// pool never pins a caller's items or results. slots maps item i to
	// its result slot out[slots[i]] (nil: out[i]). done is ctx.Done(),
	// captured once at dispatch: nil for context.Background(), so the
	// deadline-free path pays nothing for cancellation support.
	pool  *WrapperPool
	items []StepItem
	slots []int32
	out   []BatchResult
	ctx   context.Context
	done  <-chan struct{}
	next  atomic.Int32
	wg    sync.WaitGroup
	// spawned numbers the spawned workers 1, 2, ... for their step_run
	// events; the dispatching goroutine is worker 0.
	spawned atomic.Int32

	// runFn is the bound method value of run, created once per scratch:
	// `go s.run()` would allocate a fresh closure per spawned worker,
	// while `go s.runFn()` starts from the cached func value for free.
	runFn func()
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// minItemsPerWorker is the fan-out threshold: a worker goroutine must have
// at least this many items of expected work before spawning it can win.
// Below it, the ~1-2 µs of spawn plus wg wake latency exceeds the stepping
// work being handed off (a pool step is ~300 ns), so small batches run
// inline regardless of the requested worker count.
const minItemsPerWorker = 256

// batchParallelism reports how many workers can make concurrent progress:
// min(NumCPU, GOMAXPROCS), evaluated per batch because GOMAXPROCS can change
// at runtime. GOMAXPROCS alone is not enough — when it exceeds the physical
// core count (common in containers and under `go test -cpu`), extra workers
// are pure scheduler churn on cores that do not exist, which is exactly the
// workers=16 slower than workers=1 regression BENCH_5 measured. A var so
// tests can force the fan-out path on machines with too few cores to reach
// it naturally.
var batchParallelism = func() int {
	p := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < p {
		return n
	}
	return p
}

// maxUsefulWorkers caps a requested worker count (0 or less: no caller cap)
// at the parallelism that can actually help for n items: one worker per
// minItemsPerWorker chunk of expected work, and never more than the
// schedulable CPUs.
func maxUsefulWorkers(n, workers int) int {
	if byWork := (n + minItemsPerWorker - 1) / minItemsPerWorker; workers <= 0 || workers > byWork {
		workers = byWork
	}
	if p := batchParallelism(); workers > p {
		workers = p
	}
	return workers
}

// StepBatch feeds a batch of timesteps to the pool, fanning the work out
// across shards with at most `workers` goroutines (0 sets no cap beyond the
// pool's own: one worker per minItemsPerWorker items, at most one per
// schedulable CPU). Results are returned in input order in a freshly
// allocated slice; hot loops that want the allocation-free path should hold
// onto a result slice and use StepBatchInto. Every batch entry point reads
// the items' Quality slices only while it runs and keeps no reference to
// them once it returns, so a caller may reuse them for its next batch.
func (p *WrapperPool) StepBatch(items []StepItem, workers int) []BatchResult {
	return p.StepBatchInto(items, workers, nil)
}

// StepBatchInto is StepBatch writing into dst: when cap(dst) >= len(items)
// the results reuse dst's storage and the call allocates nothing in steady
// state — the grouping scratch comes from a sync.Pool and the fan-out runs
// without a channel or closures. The returned slice must be used instead of
// dst (it may be reallocated, exactly like append).
//
// Items are grouped by shard before dispatch so that every item of one track
// lands on one worker, which applies them in their input order (same-track
// items hash to the same shard, and a worker steps a shard's group
// sequentially). Each item's Step still takes its track's shard lock.
func (p *WrapperPool) StepBatchInto(items []StepItem, workers int, dst []BatchResult) []BatchResult {
	return p.StepBatchIntoCtx(context.Background(), items, workers, dst)
}

// traceBatch records the batch envelope event at dispatch exit (deferred
// from the batch entry points so every return path is covered).
func (p *WrapperPool) traceBatch(start int64, n int) {
	p.trace.RecordSince(start, trace.KindBatch, trace.StatusOK, 0, 0, uint64(n))
}

// cancelStride is how many items a worker steps between cancellation
// checks: a power of two so the check is a mask, and small enough that a
// canceled batch stops within ~20 µs of the deadline at ~300 ns/step.
const cancelStride = 64

// StepBatchIntoCtx is StepBatchInto honouring ctx: items not yet stepped
// when ctx is canceled fail with ctx.Err() instead of blocking the batch on
// work whose caller has already given up. Cancellation is polled every
// cancelStride items, so a batch overruns its deadline by at most a few
// microseconds of stepping; items already stepped keep their results (a
// step that happened is not undone by a deadline).
//
// On a traced pool a batch records one KindBatch envelope, one
// KindStepRun event per worker run over a shard group when it fans out,
// and a KindStep event for each item whose step fails; a successful item
// records no event of its own.
//
//tauw:hotpath
func (p *WrapperPool) StepBatchIntoCtx(ctx context.Context, items []StepItem, workers int, dst []BatchResult) []BatchResult {
	out := xslice.Grow(dst, len(items))
	if len(items) == 0 {
		return out
	}
	// The envelope event attributes the whole dispatch (grouping, handoff,
	// stragglers) with the item count as its argument.
	if p.trace != nil {
		//tauwcheck:ignore hotpath one defer per batch envelope, amortised across the items
		defer p.traceBatch(p.trace.Now(), len(items))
	}
	p.stepBatch(ctx, nil, items, nil, workers, out)
	return out
}

// stepBatch steps items straight into their result slots: item i into
// out[slots[i]], or into out[i] when slots is nil. s is the caller's
// scratch, or nil when it has none; the serial path then takes none from
// scratchPool.
//
//tauw:hotpath
func (p *WrapperPool) stepBatch(ctx context.Context, s *batchScratch, items []StepItem, slots []int32, workers int, out []BatchResult) {
	done := ctx.Done()
	workers = maxUsefulWorkers(len(items), workers)
	if workers <= 1 || len(items) == 1 {
		p.stepRun(ctx, done, items, nil, slots, out)
		return
	}
	own := s == nil
	if own {
		s = scratchPool.Get().(*batchScratch)
	}
	s.group(p, items)
	if len(s.groups) == 1 {
		// One shard owns every item: the fan-out would degenerate to a
		// single worker, so run the plain loop without goroutine handoff.
		p.stepRun(ctx, done, items, nil, slots, out)
	} else {
		s.fanOut(ctx, done, p, items, slots, workers, out)
	}
	if own {
		s.release()
	}
}

// fanOut steps the grouped items with min(workers, groups) workers.
func (s *batchScratch) fanOut(ctx context.Context, done <-chan struct{}, p *WrapperPool, items []StepItem, slots []int32, workers int, out []BatchResult) {
	if workers > len(s.groups) {
		workers = len(s.groups)
	}
	s.pool, s.items, s.slots, s.out = p, items, slots, out
	s.ctx, s.done = ctx, done
	s.next.Store(0)
	s.spawned.Store(0)
	if s.runFn == nil {
		s.runFn = s.run
	}
	// The caller is a worker too: spawn workers-1 goroutines and drain the
	// claim loop inline. The batch never parks its own goroutine in
	// wg.Wait while a freshly scheduled worker does all the work, and the
	// spawned workers only pick up what the caller hasn't claimed yet.
	s.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go s.runFn()
	}
	s.work(0)
	s.wg.Wait()
}

// group builds the shard partition of items with a counting sort: counts[s]
// becomes the start offset of shard s's run inside order, and groups lists
// the non-empty shards. No maps, no per-group slices — three reusable int32
// arrays sized by shard count and batch length.
func (s *batchScratch) group(p *WrapperPool, items []StepItem) {
	nshards := len(p.shards)
	s.counts = xslice.Grow(s.counts, nshards+1)
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.order = xslice.Grow(s.order, len(items))
	s.groups = s.groups[:0]
	for _, it := range items {
		s.counts[p.shardIndex(it.TrackID)]++
	}
	var sum int32
	for sh := 0; sh < nshards; sh++ {
		c := s.counts[sh]
		if c > 0 {
			s.groups = append(s.groups, int32(sh))
		}
		s.counts[sh] = sum
		sum += c
	}
	s.counts[nshards] = sum
	for i, it := range items {
		sh := p.shardIndex(it.TrackID)
		s.order[s.counts[sh]] = int32(i)
		s.counts[sh]++
	}
	// Each placement advanced counts[sh] by the shard's item count, so
	// counts[sh] is now the END of shard sh's run and counts[sh-1] its
	// start (empty shards carry the boundary through unchanged).
}

// runBounds returns the [start, end) span of shard sh's run inside order.
func (s *batchScratch) runBounds(sh int32) (int32, int32) {
	start := int32(0)
	if sh > 0 {
		start = s.counts[sh-1]
	}
	return start, s.counts[sh]
}

// run wraps work for spawned goroutines; the dispatching caller invokes
// work directly and is not registered in the WaitGroup.
func (s *batchScratch) run() {
	defer s.wg.Done()
	s.work(int(s.spawned.Add(1)))
}

// work is the loop of worker number worker: claim the next shard group,
// step its items in input order, repeat until the groups are drained. On
// a traced pool each run over a group records one KindStepRun event. After
// cancellation the claim loop keeps running so every group is still
// visited — its items are filled with the context error by stepRun rather
// than left zero.
//
//tauw:hotpath
func (s *batchScratch) work(worker int) {
	p := s.pool
	for {
		g := int(s.next.Add(1)) - 1
		if g >= len(s.groups) {
			return
		}
		sh := s.groups[g]
		start, end := s.runBounds(sh)
		run := s.order[start:end]
		if p.trace == nil {
			p.stepRun(s.ctx, s.done, s.items, run, s.slots, s.out)
			continue
		}
		t0 := p.trace.Now()
		status := trace.StatusOK
		if !p.stepRun(s.ctx, s.done, s.items, run, s.slots, s.out) {
			status = trace.StatusError
		}
		p.trace.RecordSince(t0, trace.KindStepRun, status, uint16(sh), uint64(worker), uint64(len(run)))
	}
}

// stepRun steps items[run[0]], items[run[1]], ... in that order, or every
// item in input order when run is nil, each straight into its result slot
// (see stepBatch). It polls cancellation every cancelStride items: once
// done is closed, every remaining item fails with the context's error
// instead of stepping, and records no event. A nil done
// (context.Background()) reduces it to the plain loop. It reports whether
// every item succeeded.
//
//tauw:hotpath
func (p *WrapperPool) stepRun(ctx context.Context, done <-chan struct{}, items []StepItem, run, slots []int32, out []BatchResult) bool {
	n := len(items)
	if run != nil {
		n = len(run)
	}
	ok := true
	for k := 0; k < n; k++ {
		if done != nil && k&(cancelStride-1) == 0 {
			select {
			case <-done:
				err := ctx.Err()
				for ; k < n; k++ {
					_, slot := batchItem(k, run, slots)
					out[slot].Result, out[slot].Err = Result{}, err
				}
				return false
			default:
			}
		}
		i, slot := batchItem(k, run, slots)
		it, r := &items[i], &out[slot]
		version, err := p.stepInto(it.TrackID, it.Outcome, it.Quality, &r.Result)
		r.Err = err
		if err != nil {
			ok = false
			if p.trace != nil {
				p.trace.Record(trace.KindStep, stepStatus(err), uint16(p.shardIndex(it.TrackID)), uint64(it.TrackID), version)
			}
		}
	}
	return ok
}

// batchItem returns the input index and the result slot of the k-th item
// stepRun visits.
func batchItem(k int, run, slots []int32) (i, slot int) {
	i = k
	if run != nil {
		i = int(run[k])
	}
	slot = i
	if slots != nil {
		slot = int(slots[i])
	}
	return i, slot
}

// release clears the caller-owned references and returns the scratch to the
// pool; the int32 arrays keep their capacity for the next batch.
func (s *batchScratch) release() {
	s.pool, s.items, s.slots, s.out = nil, nil, nil, nil
	s.ctx, s.done = nil, nil
	for i := range s.tracks {
		s.tracks[i] = StepItem{}
	}
	s.tracks = s.tracks[:0]
	s.back = s.back[:0]
	scratchPool.Put(s)
}

// StepBatchSeries is StepBatch addressed by string series ids: each id is
// parsed into the track it names, ids that name no open track fail their
// item with ErrUnknownSeries (wrapped), and all parsed items proceed as one
// track batch. Results are returned in input order in a fresh slice. Like
// StepBatch, it keeps no reference to the items' Quality once it returns.
func (p *WrapperPool) StepBatchSeries(items []SeriesStepItem, workers int) []BatchResult {
	return p.StepBatchSeriesInto(items, workers, nil)
}

// StepBatchSeriesInto is StepBatchSeries writing into dst (see
// StepBatchInto): with a recycled dst the id resolution, grouping, and
// dispatch all run on pooled scratch and the call is allocation-free in
// steady state.
func (p *WrapperPool) StepBatchSeriesInto(items []SeriesStepItem, workers int, dst []BatchResult) []BatchResult {
	return p.StepBatchSeriesIntoCtx(context.Background(), items, workers, dst)
}

// StepBatchSeriesIntoCtx is StepBatchSeriesInto honouring ctx (see
// StepBatchIntoCtx): id parsing always completes — it takes no lock — and
// the stepping pass sheds once ctx is canceled, so malformed ids keep their
// specific error while unstepped items report ctx.Err(). An id that parses
// but whose track is not open fails in the stepping pass, like a track
// batch's unknown track. Each parsed item is stepped straight into its
// slot of the result, and the batch is traced like a track batch.
//
//tauw:hotpath
func (p *WrapperPool) StepBatchSeriesIntoCtx(ctx context.Context, items []SeriesStepItem, workers int, dst []BatchResult) []BatchResult {
	out := xslice.Grow(dst, len(items))
	if len(items) == 0 {
		return out
	}
	if p.trace != nil {
		//tauwcheck:ignore hotpath one defer per batch envelope, amortised across the items
		defer p.traceBatch(p.trace.Now(), len(items))
	}
	s := scratchPool.Get().(*batchScratch)
	s.tracks = s.tracks[:0]
	s.back = s.back[:0]
	for i, it := range items {
		track, ok := parseSeries(it.SeriesID)
		if !ok {
			out[i].Result, out[i].Err = Result{}, unknownSeries(it.SeriesID)
			continue
		}
		s.tracks = append(s.tracks, StepItem{TrackID: track, Outcome: it.Outcome, Quality: it.Quality})
		s.back = append(s.back, int32(i))
	}
	if len(s.tracks) > 0 {
		p.stepBatch(ctx, s, s.tracks, s.back, workers, out)
	}
	s.release()
	return out
}

package core

import (
	"errors"
	"sync"
	"testing"

	"github.com/iese-repro/tauw/internal/trace"
)

// batchFixture opens `tracks` tracks on a fresh pool and returns a quality
// row to step with.
func batchFixture(t *testing.T, tracks int) (*WrapperPool, *synthStudy) {
	t.Helper()
	pool, st := poolFixture(t, 0)
	for id := 0; id < tracks; id++ {
		if err := pool.Open(id); err != nil {
			t.Fatal(err)
		}
	}
	return pool, st
}

func TestStepBatchEmpty(t *testing.T) {
	pool, _ := batchFixture(t, 1)
	if got := pool.StepBatch(nil, 0); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
	if got := pool.StepBatchSeries(nil, 0); len(got) != 0 {
		t.Errorf("empty series batch returned %d results", len(got))
	}
}

// TestStepBatchOrderAndErrors checks the per-item contract: results come
// back in input order, repeated items for one track apply in input order
// (series length advances monotonically), and an unknown track fails only
// its own item.
func TestStepBatchOrderAndErrors(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		pool, st := batchFixture(t, 4)
		s := st.testSeries[0]
		items := []StepItem{
			{TrackID: 0, Outcome: s.Outcomes[0], Quality: s.Quality[0]},
			{TrackID: 1, Outcome: s.Outcomes[0], Quality: s.Quality[0]},
			{TrackID: 0, Outcome: s.Outcomes[1], Quality: s.Quality[1]},
			{TrackID: 999, Outcome: s.Outcomes[0], Quality: s.Quality[0]}, // not open
			{TrackID: 0, Outcome: s.Outcomes[2], Quality: s.Quality[2]},
			{TrackID: 3, Outcome: s.Outcomes[0], Quality: s.Quality[0]},
		}
		got := pool.StepBatch(items, workers)
		if len(got) != len(items) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(items))
		}
		for i, r := range got {
			if i == 3 {
				if !errors.Is(r.Err, ErrUnknownTrack) {
					t.Errorf("workers=%d: item 3 err = %v, want ErrUnknownTrack", workers, r.Err)
				}
				continue
			}
			if r.Err != nil {
				t.Errorf("workers=%d: item %d failed: %v", workers, i, r.Err)
			}
		}
		// Track 0 received items 0, 2, 4 in that order.
		for want, i := range []int{0, 2, 4} {
			if got[i].Result.SeriesLen != want+1 {
				t.Errorf("workers=%d: track-0 item %d series len %d, want %d",
					workers, i, got[i].Result.SeriesLen, want+1)
			}
		}
		// Single-item tracks are at length 1.
		for _, i := range []int{1, 5} {
			if got[i].Result.SeriesLen != 1 {
				t.Errorf("workers=%d: item %d series len %d, want 1", workers, i, got[i].Result.SeriesLen)
			}
		}
	}
}

// TestStepBatchMatchesSequential runs the same steps through StepBatch and
// through a sequential loop on an identical pool: the per-track results must
// agree exactly (batching must not change any estimate).
func TestStepBatchMatchesSequential(t *testing.T) {
	const tracks = 8
	poolA, st := batchFixture(t, tracks)
	poolB, _ := batchFixture(t, tracks)
	var items []StepItem
	for j := 0; j < 5; j++ {
		for id := 0; id < tracks; id++ {
			s := st.testSeries[id%len(st.testSeries)]
			items = append(items, StepItem{TrackID: id, Outcome: s.Outcomes[j], Quality: s.Quality[j]})
		}
	}
	batched := poolA.StepBatch(items, 4)
	for i, it := range items {
		seq, err := poolB.Step(it.TrackID, it.Outcome, it.Quality)
		if err != nil {
			t.Fatal(err)
		}
		if batched[i].Err != nil {
			t.Fatalf("batched item %d: %v", i, batched[i].Err)
		}
		b := batched[i].Result
		if b.Fused != seq.Fused || b.Uncertainty != seq.Uncertainty || b.SeriesLen != seq.SeriesLen {
			t.Errorf("item %d diverges: batch (%d,%g,%d) vs sequential (%d,%g,%d)",
				i, b.Fused, b.Uncertainty, b.SeriesLen, seq.Fused, seq.Uncertainty, seq.SeriesLen)
		}
	}
}

// TestStepBatchSeriesMixed feeds a batch with valid, never-issued, and
// already-closed series ids: each item gets its own verdict.
func TestStepBatchSeriesMixed(t *testing.T) {
	pool, st := poolFixture(t, 0)
	s := st.testSeries[0]
	a, err := pool.OpenSeries()
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.OpenSeries()
	if err != nil {
		t.Fatal(err)
	}
	closed, err := pool.OpenSeries()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.CloseSeries(closed); err != nil {
		t.Fatal(err)
	}
	items := []SeriesStepItem{
		{SeriesID: a, Outcome: s.Outcomes[0], Quality: s.Quality[0]},
		{SeriesID: "never-issued", Outcome: s.Outcomes[0], Quality: s.Quality[0]},
		{SeriesID: b, Outcome: s.Outcomes[0], Quality: s.Quality[0]},
		{SeriesID: closed, Outcome: s.Outcomes[0], Quality: s.Quality[0]},
		{SeriesID: a, Outcome: s.Outcomes[1], Quality: s.Quality[1]},
	}
	got := pool.StepBatchSeries(items, 0)
	if got[0].Err != nil || got[2].Err != nil || got[4].Err != nil {
		t.Fatalf("valid items failed: %v %v %v", got[0].Err, got[2].Err, got[4].Err)
	}
	if !errors.Is(got[1].Err, ErrUnknownSeries) {
		t.Errorf("never-issued err = %v, want ErrUnknownSeries", got[1].Err)
	}
	if !errors.Is(got[3].Err, ErrUnknownSeries) {
		t.Errorf("closed err = %v, want ErrUnknownSeries", got[3].Err)
	}
	if got[0].Result.SeriesLen != 1 || got[4].Result.SeriesLen != 2 {
		t.Errorf("series %q lengths = %d,%d, want 1,2", a, got[0].Result.SeriesLen, got[4].Result.SeriesLen)
	}
}

// TestStepBatchConcurrent fires overlapping batches from several goroutines
// (race-detector fodder): every item must succeed and the total number of
// steps applied per track must equal the global step count.
func TestStepBatchConcurrent(t *testing.T) {
	const (
		tracks     = 8
		goroutines = 6
		perBatch   = 32
	)
	pool, st := batchFixture(t, tracks)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := st.testSeries[g%len(st.testSeries)]
			items := make([]StepItem, perBatch)
			for i := range items {
				j := (g + i) % len(s.Outcomes)
				items[i] = StepItem{TrackID: (g + i) % tracks, Outcome: s.Outcomes[j], Quality: s.Quality[j]}
			}
			for _, r := range pool.StepBatch(items, 3) {
				if r.Err != nil {
					errCh <- r.Err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Every goroutine contributed perBatch/tracks steps to each track.
	wantLen := goroutines * perBatch / tracks
	for id := 0; id < tracks; id++ {
		s := st.testSeries[0]
		res, err := pool.Step(id, s.Outcomes[0], s.Quality[0])
		if err != nil {
			t.Fatal(err)
		}
		if res.SeriesLen != wantLen+1 {
			t.Errorf("track %d: series len %d, want %d", id, res.SeriesLen, wantLen+1)
		}
	}
}

// TestStepBatchIntoReuse drives the allocation-free path: a recycled result
// slice must come back with identical results to the allocating API, stale
// contents (old errors, old results) must be fully overwritten, and an
// undersized dst must be transparently reallocated.
func TestStepBatchIntoReuse(t *testing.T) {
	const tracks = 6
	for _, workers := range []int{1, 4} {
		poolA, st := batchFixture(t, tracks)
		poolB, _ := batchFixture(t, tracks)
		var items []StepItem
		for j := 0; j < 4; j++ {
			for id := 0; id < tracks; id++ {
				s := st.testSeries[id%len(st.testSeries)]
				items = append(items, StepItem{TrackID: id, Outcome: s.Outcomes[j], Quality: s.Quality[j]})
			}
		}
		// Poison dst with stale state the reuse path must overwrite.
		dst := make([]BatchResult, len(items), len(items)+8)
		for i := range dst {
			dst[i] = BatchResult{Result: Result{Fused: -77, SeriesLen: -77}, Err: ErrUnknownTrack}
		}
		got := poolA.StepBatchInto(items, workers, dst)
		if &got[0] != &dst[0] {
			t.Errorf("workers=%d: StepBatchInto reallocated despite sufficient capacity", workers)
		}
		want := poolB.StepBatch(items, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("workers=%d item %d: errs %v vs %v", workers, i, got[i].Err, want[i].Err)
			}
			if got[i].Result != want[i].Result {
				t.Errorf("workers=%d item %d: %+v vs %+v", workers, i, got[i].Result, want[i].Result)
			}
		}
		// Undersized dst: must grow, not truncate.
		short := make([]BatchResult, 0, 1)
		regrown := poolB.StepBatchInto(items[:2], workers, short)
		if len(regrown) != 2 {
			t.Errorf("workers=%d: undersized dst produced %d results, want 2", workers, len(regrown))
		}
	}
}

// TestStepBatchSeriesIntoReuse mirrors TestStepBatchIntoReuse for the
// string-addressed entry point, including stale-error overwrite on items
// that succeed and per-item failures on items that do not.
func TestStepBatchSeriesIntoReuse(t *testing.T) {
	pool, st := poolFixture(t, 0)
	s := st.testSeries[0]
	a, err := pool.OpenSeries()
	if err != nil {
		t.Fatal(err)
	}
	items := []SeriesStepItem{
		{SeriesID: a, Outcome: s.Outcomes[0], Quality: s.Quality[0]},
		{SeriesID: "never-issued", Outcome: s.Outcomes[0], Quality: s.Quality[0]},
		{SeriesID: a, Outcome: s.Outcomes[1], Quality: s.Quality[1]},
	}
	dst := make([]BatchResult, 3)
	for i := range dst {
		dst[i] = BatchResult{Result: Result{SeriesLen: -1}, Err: ErrTrackBudget}
	}
	got := pool.StepBatchSeriesInto(items, 2, dst)
	if got[0].Err != nil || got[2].Err != nil {
		t.Fatalf("valid items failed: %v %v", got[0].Err, got[2].Err)
	}
	if got[0].Result.SeriesLen != 1 || got[2].Result.SeriesLen != 2 {
		t.Errorf("series lengths = %d,%d, want 1,2", got[0].Result.SeriesLen, got[2].Result.SeriesLen)
	}
	if !errors.Is(got[1].Err, ErrUnknownSeries) {
		t.Errorf("item 1 err = %v, want ErrUnknownSeries", got[1].Err)
	}
	if got[1].Result.SeriesLen != 0 {
		t.Errorf("failed item kept stale result: %+v", got[1].Result)
	}
}

// forceBatchParallelism overrides the CPU cap so the goroutine fan-out path
// runs even on machines with a single schedulable core, restoring the real
// cap when the test ends. Tests in this package run sequentially, so the
// override cannot leak into a concurrent batch.
func forceBatchParallelism(t *testing.T, p int) {
	t.Helper()
	prev := batchParallelism
	batchParallelism = func() int { return p }
	t.Cleanup(func() { batchParallelism = prev })
}

// TestStepBatchIntoGrowShrinkProperty drives one recycled dst through a
// sequence of batches whose sizes grow and shrink across calls — the exact
// recycle pattern a serving loop produces — and checks every call against a
// per-item Step oracle on a twin pool. A dst-reuse bug (stale results
// surviving a shrink, length mismatch after a grow) shows up as a divergence
// or a leftover poison value.
func TestStepBatchIntoGrowShrinkProperty(t *testing.T) {
	const tracks = 16
	sizes := []int{3, 40, 7, 40, 1, 25, 0, 40, 12}
	for _, workers := range []int{1, 16} {
		poolA, st := batchFixture(t, tracks)
		poolB, _ := batchFixture(t, tracks)
		var dst []BatchResult
		step := 0
		for round, n := range sizes {
			items := make([]StepItem, n)
			for i := range items {
				s := st.testSeries[(step+i)%len(st.testSeries)]
				j := (step + i) % len(s.Outcomes)
				items[i] = StepItem{TrackID: (step + i) % tracks, Outcome: s.Outcomes[j], Quality: s.Quality[j]}
			}
			// Poison the recycled storage beyond this call's length so any
			// read of stale capacity is distinguishable from real output.
			for i := range dst {
				dst[i] = BatchResult{Result: Result{Fused: -99, SeriesLen: -99}, Err: ErrTrackBudget}
			}
			dst = poolA.StepBatchInto(items, workers, dst)
			if len(dst) != n {
				t.Fatalf("workers=%d round %d: len %d, want %d", workers, round, len(dst), n)
			}
			for i, it := range items {
				want, err := poolB.Step(it.TrackID, it.Outcome, it.Quality)
				if err != nil {
					t.Fatal(err)
				}
				if dst[i].Err != nil {
					t.Fatalf("workers=%d round %d item %d: %v", workers, round, i, dst[i].Err)
				}
				if dst[i].Result != want {
					t.Errorf("workers=%d round %d item %d: %+v vs oracle %+v",
						workers, round, i, dst[i].Result, want)
				}
			}
			step += n
		}
	}
}

// TestStepBatchFanOutForced pins the goroutine fan-out path itself: with the
// CPU cap lifted and batches larger than minItemsPerWorker, multiple workers
// genuinely run, and the results must still match the allocating API
// (ordering per track, per-item errors, no lost or duplicated items).
func TestStepBatchFanOutForced(t *testing.T) {
	forceBatchParallelism(t, 8)
	const tracks = 32
	poolA, st := batchFixture(t, tracks)
	poolB, _ := batchFixture(t, tracks)
	n := 3*minItemsPerWorker + 17
	items := make([]StepItem, n)
	for i := range items {
		s := st.testSeries[i%len(st.testSeries)]
		j := i % len(s.Outcomes)
		items[i] = StepItem{TrackID: i % tracks, Outcome: s.Outcomes[j], Quality: s.Quality[j]}
	}
	if got := maxUsefulWorkers(n, 16); got < 2 {
		t.Fatalf("maxUsefulWorkers(%d, 16) = %d, want >= 2 with forced parallelism", n, got)
	}
	got := poolA.StepBatchInto(items, 16, nil)
	want := poolB.StepBatch(items, 1)
	for i := range want {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("item %d: errs %v vs %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Result != want[i].Result {
			t.Errorf("item %d: fan-out %+v vs sequential %+v", i, got[i].Result, want[i].Result)
		}
	}
}

// TestMaxUsefulWorkers pins the capping arithmetic: small batches always run
// inline, the per-worker floor splits large batches, the CPU cap wins over
// the request, and a zero request leaves only those two caps.
func TestMaxUsefulWorkers(t *testing.T) {
	forceBatchParallelism(t, 4)
	cases := []struct{ n, workers, want int }{
		{1, 16, 1},
		{minItemsPerWorker, 16, 1},
		{minItemsPerWorker + 1, 16, 2},
		{4 * minItemsPerWorker, 16, 4},
		{100 * minItemsPerWorker, 16, 4}, // CPU cap
		{100 * minItemsPerWorker, 2, 2},  // request below caps is honoured
		// workers=0 sets no caller cap: one worker per minItemsPerWorker
		// items, at most the forced CPU count.
		{1, 0, 1},
		{minItemsPerWorker + 1, 0, 2},
		{100 * minItemsPerWorker, 0, 4},
	}
	for _, c := range cases {
		if got := maxUsefulWorkers(c.n, c.workers); got != c.want {
			t.Errorf("maxUsefulWorkers(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestStepBatchIntoSteadyStateAllocs is the zero-allocation claim as a unit
// test: once every ring buffer is warm and the result slice is recycled, a
// sequential batch must not allocate at all, and a parallel batch must stay
// within the two-allocs-per-op budget the bench gate enforces.
func TestStepBatchIntoSteadyStateAllocs(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	const ringLimit = 8
	pool, err := NewWrapperPool(st.base, taqim, Config{BufferLimit: ringLimit}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const tracks = 64
	s := st.testSeries[0]
	items := make([]StepItem, tracks)
	for id := 0; id < tracks; id++ {
		if err := pool.Open(id); err != nil {
			t.Fatal(err)
		}
		items[id] = StepItem{TrackID: id, Outcome: s.Outcomes[0], Quality: s.Quality[0]}
	}
	var dst []BatchResult
	// Warm up: fill every ring (plus one eviction round) and let the
	// scratch pool and result slice reach steady state.
	for i := 0; i < ringLimit+2; i++ {
		dst = pool.StepBatchInto(items, 4, dst)
	}
	for _, workers := range []int{1, 4} {
		avg := testing.AllocsPerRun(20, func() {
			dst = pool.StepBatchInto(items, workers, dst)
			for i := range dst {
				if dst[i].Err != nil {
					t.Fatal(dst[i].Err)
				}
			}
		})
		// The parallel path gets headroom of one allocation per spawned
		// worker: `go s.runFn()` itself allocates nothing, but the runtime
		// may have to allocate a fresh goroutine stack when its free list
		// is empty (a scheduler heuristic that depends on what ran before,
		// surfaced by -shuffle) — that is not a property of the batch path.
		budget := 2.0
		if workers > 1 {
			budget += float64(workers - 1)
		}
		if avg > budget {
			t.Errorf("workers=%d: %.1f allocs per steady-state batch, want <= %.0f", workers, avg, budget)
		}
	}
}

// TestStepBatchTraceContract pins what a traced series batch records. Every
// batch records one KindBatch envelope with its item count. A batch that
// fans out records one KindStepRun event per shard group, naming the shard
// and a worker, and the groups' item counts sum to the items that reached
// the pool. An item whose step fails records its own not-found KindStep
// event; a successful item records none, and neither does an id that does
// not parse. The second batch is small enough for the serial path, which
// records no step_run event.
func TestStepBatchTraceContract(t *testing.T) {
	forceBatchParallelism(t, 2)
	st := buildStudy(t)
	rec := trace.New(trace.Config{})
	pool, err := NewWrapperPool(st.base, fitTAQIM(t, st, nil), Config{}, 0, WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 48)
	for i := range ids {
		if ids[i], err = pool.OpenSeries(); err != nil {
			t.Fatal(err)
		}
	}
	closed, err := pool.OpenSeries()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.CloseSeries(closed); err != nil {
		t.Fatal(err)
	}
	// "s999999" parses but names no open track; "s01" does not parse.
	failing := map[string]bool{closed: true, "s999999": true}
	s := st.testSeries[0]
	item := func(i int, id string) SeriesStepItem {
		j := i % len(s.Outcomes)
		return SeriesStepItem{SeriesID: id, Outcome: s.Outcomes[j], Quality: s.Quality[j]}
	}
	var fan []SeriesStepItem
	for i := 0; i < 300; i++ {
		fan = append(fan, item(i, ids[i%len(ids)]))
	}
	fan[17], fan[123], fan[200] = item(17, "s999999"), item(123, closed), item(200, "s01")
	serial := []SeriesStepItem{item(0, ids[0]), item(1, closed), item(2, ids[1])}
	if w := maxUsefulWorkers(len(fan)-1, 0); w != 2 {
		t.Fatalf("maxUsefulWorkers(%d, 0) = %d, want 2", len(fan)-1, w)
	}

	groups := map[uint16]int{}
	for _, it := range fan {
		if track, ok := parseSeries(it.SeriesID); ok {
			groups[uint16(pool.shardIndex(track))]++
		}
	}
	if len(groups) < 2 {
		t.Fatalf("fan-out batch spans %d shard groups, want at least 2", len(groups))
	}
	for _, batch := range [][]SeriesStepItem{fan, serial} {
		for i, r := range pool.StepBatchSeriesInto(batch, 0, nil) {
			id := batch[i].SeriesID
			if failing[id] || id == "s01" {
				if !errors.Is(r.Err, ErrUnknownSeries) || r.Result != (Result{}) {
					t.Errorf("item %d (%s) = %+v, %v; want Result{} and ErrUnknownSeries", i, id, r.Result, r.Err)
				}
			} else if r.Err != nil {
				t.Errorf("item %d (%s): %v", i, id, r.Err)
			}
		}
	}

	var batches []uint64
	notFound := map[uint64]int{}
	runItems := 0
	for _, ev := range rec.Snapshot(nil) {
		switch ev.Kind {
		case trace.KindBatch:
			batches = append(batches, ev.Arg)
		case trace.KindStepRun:
			want, ok := groups[ev.Shard]
			if !ok || ev.Arg != uint64(want) {
				t.Errorf("step_run on shard %d holds %d items, want %d", ev.Shard, ev.Arg, want)
			}
			delete(groups, ev.Shard)
			if ev.Series > 1 {
				t.Errorf("step_run names worker %d of 2", ev.Series)
			}
			runItems += int(ev.Arg)
		case trace.KindStep:
			if ev.Status != trace.StatusNotFound {
				t.Errorf("step event with status %s on track %d: only failed items may record one",
					ev.Status.Name(), int(ev.Series))
				continue
			}
			notFound[ev.Series]++
		}
	}
	if len(batches) != 2 || batches[0] != uint64(len(fan)) || batches[1] != uint64(len(serial)) {
		t.Errorf("batch envelopes carry item counts %v, want [%d %d]", batches, len(fan), len(serial))
	}
	if len(groups) != 0 {
		t.Errorf("shard groups %v recorded no step_run event", groups)
	}
	if want := len(fan) - 1; runItems != want {
		t.Errorf("step_run events cover %d items, want the %d parsed items", runItems, want)
	}
	closedTrack, _ := parseSeries(closed)
	unknownTrack, _ := parseSeries("s999999")
	if len(notFound) != 2 || notFound[uint64(closedTrack)] != 2 || notFound[uint64(unknownTrack)] != 1 {
		t.Errorf("not-found step events by track %v, want 2 on the closed series and 1 on s999999", notFound)
	}
}

package core

import (
	"errors"
	"runtime"
	"testing"

	"github.com/iese-repro/tauw/internal/trace"
)

// seriesGrammarPool opens, on a pool with a budget of two tracks, series s1
// (left open), mints s2 in an open that fails on the budget, opens and
// closes s3, and finally opens tracker track 1 and steps it once. It
// returns the pool with s1 and track 1 open.
func seriesGrammarPool(t *testing.T, st *synthStudy, opts ...PoolOption) *WrapperPool {
	t.Helper()
	pool, err := NewWrapperPool(st.base, fitTAQIM(t, st, nil), Config{}, 2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := pool.OpenSeries(); err != nil || id != "s1" {
		t.Fatalf("first open = %q, %v", id, err)
	}
	if err := pool.Open(7); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.OpenSeries(); !errors.Is(err, ErrTrackBudget) {
		t.Fatalf("open over budget = %v, want ErrTrackBudget", err)
	}
	if err := pool.Close(7); err != nil {
		t.Fatal(err)
	}
	if id, err := pool.OpenSeries(); err != nil || id != "s3" {
		t.Fatalf("third open = %q, %v", id, err)
	}
	if err := pool.CloseSeries("s3"); err != nil {
		t.Fatal(err)
	}
	if err := pool.Open(1); err != nil {
		t.Fatal(err)
	}
	s := st.testSeries[0]
	if _, err := pool.Step(1, s.Outcomes[0], s.Quality[0]); err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestSeriesIDGrammar runs every series-addressed entry point over three
// kinds of id: the id of an open series, ids that parse but name no open
// track, and ids that do not parse at all (signs, leading zeros, case,
// padding, trailing bytes, non-ASCII digits, and numbers past the largest
// track). Only the open id may succeed; every other id answers
// ErrUnknownSeries, changes no track count, and never reaches tracker track
// 1 — which "s-1" would name if a sign were accepted. With feedback off,
// unknown ids still answer ErrUnknownSeries before ErrFeedbackDisabled.
func TestSeriesIDGrammar(t *testing.T) {
	st := buildStudy(t)
	s := st.testSeries[0]
	unknown := []string{
		// Parse, but name no open track.
		"s3", "s2", "s9223372036854775807",
		// Do not parse.
		"", "s", "s0", "s01", "s+1", "s-1", "S1", " s1", "s1 ", "s1x", "s1_0", "s٣",
		"s9223372036854775808", "s18446744073709551616",
	}
	for _, feedback := range []bool{true, false} {
		var opts []PoolOption
		if feedback {
			opts = append(opts, WithMonitoring(16))
		}
		pool := seriesGrammarPool(t, st, opts...)
		for _, id := range unknown {
			if _, err := pool.StepSeries(id, s.Outcomes[1], s.Quality[1]); !errors.Is(err, ErrUnknownSeries) {
				t.Errorf("StepSeries(%q) = %v, want ErrUnknownSeries", id, err)
			}
			items := []SeriesStepItem{{SeriesID: id, Outcome: s.Outcomes[1], Quality: s.Quality[1]}}
			if got := pool.StepBatchSeriesInto(items, 0, nil); !errors.Is(got[0].Err, ErrUnknownSeries) {
				t.Errorf("StepBatchSeriesInto(%q) = %v, want ErrUnknownSeries", id, got[0].Err)
			}
			if _, err := pool.TakeFeedbackSeries(id, 1); !errors.Is(err, ErrUnknownSeries) {
				t.Errorf("feedback=%v: TakeFeedbackSeries(%q) = %v, want ErrUnknownSeries", feedback, id, err)
			}
			if track, err := pool.ResolveSeries(id); !errors.Is(err, ErrUnknownSeries) {
				t.Errorf("ResolveSeries(%q) = %d, %v, want ErrUnknownSeries", id, track, err)
			}
			if err := pool.CloseSeries(id); !errors.Is(err, ErrUnknownSeries) {
				t.Errorf("CloseSeries(%q) = %v, want ErrUnknownSeries", id, err)
			}
			if n := pool.Active(); n != 2 {
				t.Fatalf("after %q: active = %d, want 2", id, n)
			}
		}
		var snap SeriesState
		if err := pool.SnapshotTrack(1, &snap); err != nil || snap.Total != 1 {
			t.Errorf("tracker track 1: total %d, %v; want 1 step, untouched", snap.Total, err)
		}

		// The open id succeeds everywhere, and its close retires only it.
		res, err := pool.StepSeries("s1", s.Outcomes[0], s.Quality[0])
		if err != nil || res.TotalSteps != 1 {
			t.Fatalf("StepSeries(s1) = step %d, %v", res.TotalSteps, err)
		}
		items := []SeriesStepItem{{SeriesID: "s1", Outcome: s.Outcomes[1], Quality: s.Quality[1]}}
		if got := pool.StepBatchSeriesInto(items, 0, nil); got[0].Err != nil || got[0].Result.TotalSteps != 2 {
			t.Fatalf("StepBatchSeriesInto(s1) = step %d, %v", got[0].Result.TotalSteps, got[0].Err)
		}
		_, err = pool.TakeFeedbackSeries("s1", 1)
		if feedback && err != nil {
			t.Errorf("TakeFeedbackSeries(s1) = %v", err)
		}
		if !feedback && !errors.Is(err, ErrFeedbackDisabled) {
			t.Errorf("TakeFeedbackSeries(s1) without feedback = %v, want ErrFeedbackDisabled", err)
		}
		if track, err := pool.ResolveSeries("s1"); err != nil || track != -1 {
			t.Errorf("ResolveSeries(s1) = %d, %v, want -1", track, err)
		}
		if err := pool.CloseSeries("s1"); err != nil {
			t.Fatalf("CloseSeries(s1) = %v", err)
		}
		if n := pool.Active(); n != 1 {
			t.Errorf("after closing s1: active = %d, want 1", n)
		}
		if err := pool.SnapshotTrack(1, &snap); err != nil || snap.Total != 1 {
			t.Errorf("tracker track 1 after closing s1: total %d, %v", snap.Total, err)
		}
	}
}

// TestClosedSeriesStepTraced pins where a step on a closed series fails: in
// Step itself, which on a traced pool records a KindStep event with
// StatusNotFound for the series' track, whether the step came alone or as a
// batch item. An id that does not parse never reaches Step and records no
// step event.
func TestClosedSeriesStepTraced(t *testing.T) {
	st := buildStudy(t)
	rec := trace.New(trace.Config{})
	pool, err := NewWrapperPool(st.base, fitTAQIM(t, st, nil), Config{}, 0, WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	id, err := pool.OpenSeries()
	if err != nil {
		t.Fatal(err)
	}
	track, err := pool.ResolveSeries(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.CloseSeries(id); err != nil {
		t.Fatal(err)
	}
	s := st.testSeries[0]
	for _, sid := range []string{id, "s01"} {
		if _, err := pool.StepSeries(sid, s.Outcomes[0], s.Quality[0]); !errors.Is(err, ErrUnknownSeries) {
			t.Errorf("StepSeries(%q) = %v, want ErrUnknownSeries", sid, err)
		}
		items := []SeriesStepItem{{SeriesID: sid, Outcome: s.Outcomes[0], Quality: s.Quality[0]}}
		if got := pool.StepBatchSeriesInto(items, 0, nil); !errors.Is(got[0].Err, ErrUnknownSeries) {
			t.Errorf("StepBatchSeriesInto(%q) = %v, want ErrUnknownSeries", sid, got[0].Err)
		}
	}
	steps := 0
	for _, ev := range rec.Snapshot(nil) {
		if ev.Kind != trace.KindStep {
			continue
		}
		steps++
		if ev.Status != trace.StatusNotFound || ev.Series != uint64(track) {
			t.Errorf("step event status %d on series %d, want not-found on %d", ev.Status, ev.Series, uint64(track))
		}
	}
	if steps != 2 {
		t.Errorf("recorded %d step events, want 2 (StepSeries and one batch item on the closed id)", steps)
	}
}

// servedEncounterAllocs is the heap allocation count of one served
// encounter: the pooled wrapper with its buffer inside it, the buffer's
// records and statistics, the tally and its votes, the taQIM row, the
// provenance ring, and the minted series id. Everything is sized when the
// series opens, so its steps allocate nothing.
const servedEncounterAllocs = 8

// servedEncounterBytes is what those allocations add up to on this
// package's test study. The buffer's 16 records take 256 B of it, 16 B
// each: a step's outcome and uncertainty.
const servedEncounterBytes = 1408

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f allocates
// per call, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestServedEncounterAllocs pins what one encounter costs the heap, in
// allocations and in bytes, on a pool built like tauserve's — a 256-step
// feedback ring and the close journal, drained as the durability layer's
// flusher would: open a series, step it ten times (the study's encounter
// length), close it. Both the server's default unbounded buffer and a
// 16-record cap are covered, and the ids are as long as a server's after a
// billion series.
func TestServedEncounterAllocs(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	s := st.testSeries[0]
	for _, limit := range []int{0, 16} {
		pool, err := NewWrapperPool(st.base, taqim, Config{BufferLimit: limit}, 0,
			WithMonitoring(256), WithStateJournal())
		if err != nil {
			t.Fatal(err)
		}
		pool.SetSeriesCounter(1e9)
		var closed []int
		encounter := func() {
			id, err := pool.OpenSeries()
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 10; j++ {
				k := j % len(s.Outcomes)
				if _, err := pool.StepSeries(id, s.Outcomes[k], s.Quality[k]); err != nil {
					t.Fatal(err)
				}
			}
			if err := pool.CloseSeries(id); err != nil {
				t.Fatal(err)
			}
			closed = pool.DrainClosed(closed[:0])
		}
		if allocs := testing.AllocsPerRun(100, encounter); allocs > servedEncounterAllocs {
			t.Errorf("buffer limit %d: %.0f allocations per served encounter, want <= %d",
				limit, allocs, servedEncounterAllocs)
		}
		if n := bytesPerRun(100, encounter); n > servedEncounterBytes {
			t.Errorf("buffer limit %d: %d bytes per served encounter, want <= %d",
				limit, n, servedEncounterBytes)
		}
	}
}

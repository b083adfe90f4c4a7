package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestPoolKeepsNoQualitySlice: the pool reads a step's quality factors
// only while the call runs, which is what lets a server decode every
// request's factors into one reused arena. Two series step through
// StepSeries and through StepBatchSeriesIntoCtx, across ring eviction; a
// scribbling caller overwrites every quality slice it passed as soon as
// the call returns. Every step result and both tracks' snapshots must equal
// those of a run whose slices were never touched.
func TestPoolKeepsNoQualitySlice(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	s := st.testSeries[0]
	type run struct {
		results []Result
		snaps   [2]SeriesState
	}
	drive := func(scribble bool) run {
		t.Helper()
		pool, err := NewWrapperPool(st.base, taqim, Config{BufferLimit: 4}, 0, WithMonitoring(16))
		if err != nil {
			t.Fatal(err)
		}
		var ids [2]string
		for i := range ids {
			if ids[i], err = pool.OpenSeries(); err != nil {
				t.Fatal(err)
			}
		}
		var out run
		var dst []BatchResult
		for j := 0; j < 12; j++ {
			k := j % len(s.Outcomes)
			single := append([]float64(nil), s.Quality[k]...)
			res, err := pool.StepSeries(ids[0], s.Outcomes[k], single)
			if err != nil {
				t.Fatal(err)
			}
			out.results = append(out.results, res)
			items := []SeriesStepItem{
				{SeriesID: ids[1], Outcome: s.Outcomes[k], Quality: append([]float64(nil), s.Quality[k]...)},
				{SeriesID: ids[0], Outcome: s.Outcomes[(k+1)%len(s.Outcomes)],
					Quality: append([]float64(nil), s.Quality[(k+1)%len(s.Quality)]...)},
			}
			dst = pool.StepBatchSeriesIntoCtx(context.Background(), items, 0, dst)
			for i := range dst {
				if dst[i].Err != nil {
					t.Fatal(dst[i].Err)
				}
				out.results = append(out.results, dst[i].Result)
			}
			if scribble {
				for _, q := range [][]float64{single, items[0].Quality, items[1].Quality} {
					for i := range q {
						q[i] = -1
					}
				}
			}
		}
		for i, id := range ids {
			track, err := pool.ResolveSeries(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.SnapshotTrack(track, &out.snaps[i]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	want, got := drive(false), drive(true)
	for i := range want.results {
		if !reflect.DeepEqual(got.results[i], want.results[i]) {
			t.Fatalf("step result %d after scribbling:\n got %+v\nwant %+v", i, got.results[i], want.results[i])
		}
	}
	for i := range want.snaps {
		if !reflect.DeepEqual(got.snaps[i], want.snaps[i]) {
			t.Errorf("series %d snapshot after scribbling:\n got %+v\nwant %+v", i, got.snaps[i], want.snaps[i])
		}
	}
}

// TestRestoreTrackRejects feeds RestoreTrack snapshots no live track can
// produce — a decoded state record is outside input — and requires each to
// be refused with an error that names the track, leaving nothing open.
func TestRestoreTrackRejects(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	newPool := func() *WrapperPool {
		t.Helper()
		pool, err := NewWrapperPool(st.base, taqim, Config{BufferLimit: 8}, 0, WithMonitoring(16))
		if err != nil {
			t.Fatal(err)
		}
		return pool
	}
	// snapshot captures track 3 after ten steps: a full buffer, a ring
	// holding steps 1..10, and the running stats and tally votes of at
	// least two outcomes, so entries can be put out of order.
	src := newPool()
	if err := src.Open(3); err != nil {
		t.Fatal(err)
	}
	s := st.testSeries[0]
	for j := 0; j < 10; j++ {
		if _, err := src.Step(3, s.Outcomes[j%len(s.Outcomes)], s.Quality[j%len(s.Quality)]); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() *SeriesState {
		t.Helper()
		var snap SeriesState
		if err := src.SnapshotTrack(3, &snap); err != nil {
			t.Fatal(err)
		}
		return &snap
	}
	if snap := snapshot(); len(snap.Stats) < 2 || len(snap.Tally.Votes) < 2 {
		t.Fatalf("snapshot holds %d stats and %d votes, want at least 2 of each",
			len(snap.Stats), len(snap.Tally.Votes))
	}
	if err := newPool().RestoreTrack(snapshot()); err != nil {
		t.Fatalf("unmodified snapshot: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*SeriesState)
		want   string
	}{
		{"records over the buffer limit", func(snap *SeriesState) {
			snap.Records = append(snap.Records, snap.Records[0])
		}, "9 buffered records exceed buffer limit 8"},
		{"total below the record count", func(snap *SeriesState) {
			snap.Total = len(snap.Records) - 1
		}, "total steps 7 < 8 buffered records"},
		{"non-positive outcome count", func(snap *SeriesState) {
			snap.Stats[0].Count = 0
		}, "count 0 must be positive"},
		{"duplicate outcome stats", func(snap *SeriesState) {
			snap.Stats = append(snap.Stats[:1:1], snap.Stats...)
		}, "duplicate stats for outcome"},
		{"unsorted outcome stats", func(snap *SeriesState) {
			snap.Stats = append(snap.Stats, snap.Stats[0])
		}, "want ascending outcomes"},
		{"non-positive vote count", func(snap *SeriesState) {
			snap.Tally.Votes[0].Count = 0
		}, "vote count 0 for outcome"},
		{"duplicate tally votes", func(snap *SeriesState) {
			snap.Tally.Votes = append(snap.Tally.Votes[:1:1], snap.Tally.Votes...)
		}, "duplicate vote entry for outcome"},
		{"unsorted tally votes", func(snap *SeriesState) {
			v := snap.Tally.Votes
			v[0], v[1] = v[1], v[0]
		}, "want ascending outcomes"},
		{"outcome counts above the records", func(snap *SeriesState) {
			for i := range snap.Stats {
				snap.Stats[i].Count += 100
			}
		}, "but the buffer holds"},
		{"stats for an outcome with no records", func(snap *SeriesState) {
			last := snap.Stats[len(snap.Stats)-1]
			snap.Stats = append(snap.Stats, OutcomeStat{Outcome: last.Outcome + 1, Count: 1, Certainty: 0.5})
		}, "count 1, but the buffer holds 0"},
		{"records of an outcome without stats", func(snap *SeriesState) {
			snap.Stats = snap.Stats[1:]
		}, "has no stats"},
		{"tally votes above the records", func(snap *SeriesState) {
			for i := range snap.Tally.Votes {
				snap.Tally.Votes[i].Count += 100
			}
		}, "tally votes do not sum to the 8 buffered records"},
		{"tally votes below the records", func(snap *SeriesState) {
			snap.Tally.Votes = snap.Tally.Votes[1:]
		}, "tally votes do not sum to the 8 buffered records"},
		{"ring entry beyond the total", func(snap *SeriesState) {
			snap.Ring[len(snap.Ring)-1].Step = uint64(snap.Total) + 1
		}, "provenance step 11 > total steps 10"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap := snapshot()
			c.mutate(snap)
			pool := newPool()
			err := pool.RestoreTrack(snap)
			if err == nil {
				t.Fatal("restore accepted the snapshot")
			}
			if msg := err.Error(); !strings.Contains(msg, "restore track 3:") || !strings.Contains(msg, c.want) {
				t.Errorf("error %q, want it to name track 3 and say %q", msg, c.want)
			}
			if n := pool.Active(); n != 0 {
				t.Errorf("a rejected restore left %d tracks open", n)
			}
		})
	}
}

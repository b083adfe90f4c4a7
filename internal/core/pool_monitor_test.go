package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

func monitoredPoolFixture(t *testing.T, ringSize int) (*WrapperPool, *synthStudy) {
	t.Helper()
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	pool, err := NewWrapperPool(st.base, taqim, Config{}, 0, WithMonitoring(ringSize))
	if err != nil {
		t.Fatal(err)
	}
	return pool, st
}

func TestPoolStepStats(t *testing.T) {
	pool, st := monitoredPoolFixture(t, 8)
	if err := pool.Open(1); err != nil {
		t.Fatal(err)
	}
	s := st.testSeries[0]
	var wantU float64
	var fusedCounts [NumOutcomeBuckets + 1]uint64
	for j := range s.Outcomes {
		res, err := pool.Step(1, s.Outcomes[j], s.Quality[j])
		if err != nil {
			t.Fatal(err)
		}
		wantU += res.Uncertainty
		fusedCounts[outcomeBucket(res.Fused)]++
	}
	if got, want := pool.StepCount(), uint64(len(s.Outcomes)); got != want {
		t.Errorf("StepCount = %d, want %d", got, want)
	}
	if got := pool.UncertaintySum(); got < wantU-1e-4 || got > wantU+1e-4 {
		t.Errorf("UncertaintySum = %g, want ~%g", got, wantU)
	}
	var seen uint64
	pool.OutcomeCounts(func(outcome int, count uint64) {
		seen += count
		b := outcomeBucket(outcome)
		if outcome == -1 {
			b = NumOutcomeBuckets
		}
		if fusedCounts[b] != count {
			t.Errorf("outcome %d count = %d, want %d", outcome, count, fusedCounts[b])
		}
	})
	if seen != uint64(len(s.Outcomes)) {
		t.Errorf("OutcomeCounts total = %d, want %d", seen, len(s.Outcomes))
	}
}

func TestPoolStatsDisabledByDefault(t *testing.T) {
	pool, st := poolFixture(t, 0)
	if err := pool.Open(1); err != nil {
		t.Fatal(err)
	}
	s := st.testSeries[0]
	if _, err := pool.Step(1, s.Outcomes[0], s.Quality[0]); err != nil {
		t.Fatal(err)
	}
	if got := pool.StepCount(); got != 0 {
		t.Errorf("unmonitored StepCount = %d, want 0", got)
	}
	if got := pool.FeedbackRingSize(); got != 0 {
		t.Errorf("unmonitored FeedbackRingSize = %d, want 0", got)
	}
	if _, err := pool.TakeFeedback(1, 1); !errors.Is(err, ErrFeedbackDisabled) {
		t.Errorf("TakeFeedback on unmonitored pool = %v, want ErrFeedbackDisabled", err)
	}
}

// TestTakeFeedbackJoin pins the feedback contract at every ring cap and
// across every growth boundary of the ring: after T steps, step s joins
// with the exact estimate served iff T-cap < s <= T and answers
// ErrStepUnavailable otherwise, and a second take of a joined step is a
// duplicate.
func TestTakeFeedbackJoin(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	s := st.testSeries[0]
	for _, ringCap := range []int{4, 16, 17, 100, 256} {
		pool, err := NewWrapperPool(st.base, taqim, Config{}, 0, WithMonitoring(ringCap))
		if err != nil {
			t.Fatal(err)
		}
		// Step counts on both sides of every growth boundary (16, 32) and
		// of the cap, plus one that wraps the full ring twice.
		totals := []int{15, 16, 17, 33, ringCap, ringCap + 1, 2*ringCap + 3}
		slices.Sort(totals)
		for _, total := range slices.Compact(totals) {
			t.Run(fmt.Sprintf("cap=%d/steps=%d", ringCap, total), func(t *testing.T) {
				id, err := pool.OpenSeries()
				if err != nil {
					t.Fatal(err)
				}
				served := make([]Result, total)
				for j := range served {
					k := j % len(s.Outcomes)
					if served[j], err = pool.StepSeries(id, s.Outcomes[k], s.Quality[k]); err != nil {
						t.Fatal(err)
					}
				}
				for step := 0; step <= total+1; step++ {
					rec, err := pool.TakeFeedbackSeries(id, step)
					if step <= total-ringCap || step < 1 || step > total {
						if !errors.Is(err, ErrStepUnavailable) {
							t.Errorf("feedback for step %d = %+v, %v, want ErrStepUnavailable", step, rec, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("feedback step %d: %v", step, err)
					}
					res := served[step-1]
					want := FeedbackRecord{Step: step, Fused: res.Fused, Uncertainty: res.Uncertainty,
						TAQIMLeaf: res.TAQIMLeaf, ModelVersion: res.ModelVersion}
					if rec != want {
						t.Errorf("step %d joined %+v, want %+v", step, rec, want)
					}
					// A second report for a consumed step is a duplicate,
					// not a re-join.
					if _, err := pool.TakeFeedbackSeries(id, step); !errors.Is(err, ErrDuplicateFeedback) {
						t.Errorf("second feedback for step %d = %v, want ErrDuplicateFeedback", step, err)
					}
				}
				if _, err := pool.TakeFeedbackSeries(id, -3); !errors.Is(err, ErrStepUnavailable) {
					t.Errorf("feedback for step -3 = %v, want ErrStepUnavailable", err)
				}
				// Closing the series makes feedback a not-found condition.
				if err := pool.CloseSeries(id); err != nil {
					t.Fatal(err)
				}
				for _, gone := range []string{id, "never-issued"} {
					if _, err := pool.TakeFeedbackSeries(gone, total); !errors.Is(err, ErrUnknownSeries) {
						t.Errorf("feedback for %s = %v, want ErrUnknownSeries", gone, err)
					}
				}
			})
		}
	}
}

// trackRing returns track id's provenance ring (the live slice, for
// inspection only).
func trackRing(t *testing.T, p *WrapperPool, id int) []provRecord {
	t.Helper()
	sh := p.trackShardFor(id)
	sh.mu.Lock()
	pw, ok := sh.tracks[id]
	sh.mu.Unlock()
	if !ok {
		t.Fatalf("track %d is not open", id)
	}
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.ring
}

// TestFeedbackRingGrowsByUse pins the ring's length: min(16, cap) at open,
// doubling only when a step overflows it, never above the cap, the same
// length after a snapshot and restore, and unchanged but cleared after a
// reopen.
func TestFeedbackRingGrowsByUse(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	s := st.testSeries[0]
	for _, ringCap := range []int{4, 16, 17, 100, 256} {
		t.Run(fmt.Sprintf("cap=%d", ringCap), func(t *testing.T) {
			pool, err := NewWrapperPool(st.base, taqim, Config{}, 0, WithMonitoring(ringCap))
			if err != nil {
				t.Fatal(err)
			}
			restored, err := NewWrapperPool(st.base, taqim, Config{}, 0, WithMonitoring(ringCap))
			if err != nil {
				t.Fatal(err)
			}
			const id = 1
			if err := pool.Open(id); err != nil {
				t.Fatal(err)
			}
			want := min(16, ringCap)
			if got := len(trackRing(t, pool, id)); got != want {
				t.Fatalf("ring length at open = %d, want %d", got, want)
			}
			var snap SeriesState
			for step := 1; step <= 2*ringCap+3; step++ {
				k := step % len(s.Outcomes)
				if _, err := pool.Step(id, s.Outcomes[k], s.Quality[k]); err != nil {
					t.Fatal(err)
				}
				if step > want {
					want = min(2*want, ringCap)
				}
				live := trackRing(t, pool, id)
				if len(live) != want {
					t.Fatalf("ring length after step %d = %d, want %d", step, len(live), want)
				}
				// A restore sizes the ring from the snapshot's Total, so it
				// lands on the live layout slot for slot.
				if err := pool.SnapshotTrack(id, &snap); err != nil {
					t.Fatal(err)
				}
				if err := restored.RestoreTrack(&snap); err != nil {
					t.Fatal(err)
				}
				if got := trackRing(t, restored, id); !slices.Equal(got, live) {
					t.Fatalf("after step %d the restored ring differs:\nlive:     %+v\nrestored: %+v", step, live, got)
				}
			}

			// A reopen keeps the grown ring and clears it.
			if err := pool.Open(id); err != nil {
				t.Fatal(err)
			}
			ring := trackRing(t, pool, id)
			if len(ring) != want {
				t.Fatalf("ring length after reopen = %d, want %d", len(ring), want)
			}
			for i, slot := range ring {
				if slot != (provRecord{}) {
					t.Fatalf("slot %d survived the reopen: %+v", i, slot)
				}
			}
			if _, err := pool.Step(id, s.Outcomes[0], s.Quality[0]); err != nil {
				t.Fatal(err)
			}
			if ring := trackRing(t, pool, id); len(ring) != want || ring[0].step != 1 {
				t.Fatalf("after the first step of the new series: length %d, slot 0 step %d; want %d, 1",
					len(ring), ring[0].step, want)
			}
		})
	}
}

func TestReopenClearsFeedbackRing(t *testing.T) {
	pool, st := monitoredPoolFixture(t, 8)
	if err := pool.Open(7); err != nil {
		t.Fatal(err)
	}
	s := st.testSeries[0]
	for j := 0; j < 3; j++ {
		if _, err := pool.Step(7, s.Outcomes[j], s.Quality[j]); err != nil {
			t.Fatal(err)
		}
	}
	// The tracker reports a new physical object: the old series' estimates
	// must no longer be joinable under the restarted step numbering.
	if err := pool.Open(7); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.TakeFeedback(7, 2); !errors.Is(err, ErrStepUnavailable) {
		t.Errorf("feedback across reset = %v, want ErrStepUnavailable", err)
	}
	res, err := pool.Step(7, s.Outcomes[0], s.Quality[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, err := pool.TakeFeedback(7, res.TotalSteps)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Uncertainty != res.Uncertainty {
		t.Errorf("post-reset join u = %g, want %g", rec.Uncertainty, res.Uncertainty)
	}
}

// TestConcurrentFeedbackAndSteps races feedback joins against ongoing steps
// on many tracks: run under -race it pins that the ring writes (track lock)
// and the shard counters (atomics) never conflict, and that every join
// returns either a consistent record or a typed error.
func TestConcurrentFeedbackAndSteps(t *testing.T) {
	pool, st := monitoredPoolFixture(t, 16)
	const tracks = 8
	for id := 0; id < tracks; id++ {
		if err := pool.Open(id); err != nil {
			t.Fatal(err)
		}
	}
	s := st.testSeries[0]
	var wg sync.WaitGroup
	for id := 0; id < tracks; id++ {
		wg.Add(2)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if _, err := pool.Step(id, s.Outcomes[j%len(s.Outcomes)], s.Quality[j%len(s.Quality)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
		go func(id int) {
			defer wg.Done()
			for step := 1; step <= 200; step++ {
				rec, err := pool.TakeFeedback(id, step)
				switch {
				case err == nil:
					if rec.Step != step || rec.Uncertainty < 0 || rec.Uncertainty > 1 {
						t.Errorf("inconsistent join: %+v", rec)
						return
					}
				case errors.Is(err, ErrStepUnavailable), errors.Is(err, ErrDuplicateFeedback):
					// Expected interleavings: the step has not happened yet,
					// was evicted, or a retry raced us.
				default:
					t.Errorf("unexpected feedback error: %v", err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if got, want := pool.StepCount(), uint64(tracks*200); got != want {
		t.Errorf("StepCount = %d, want %d", got, want)
	}
}

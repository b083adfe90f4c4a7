package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file are the race-hardening suite for the sharded pool:
// they are written to be run under `go test -race` and hammer every pool
// entry point (Open/Step/Close/Active and the series ids) from many
// goroutines at once. Assertions focus on invariants that must hold under
// any interleaving; the race detector covers the rest.

// TestWrapperPoolChurnRace has each goroutine own a disjoint set of track
// ids and cycle open → step → close while other goroutines do the same.
// With exclusive ownership no call may fail, and the pool must drain to
// zero active tracks.
func TestWrapperPoolChurnRace(t *testing.T) {
	pool, st := poolFixture(t, 0)
	const (
		goroutines = 16
		rounds     = 8
	)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines+1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := st.testSeries[g%len(st.testSeries)]
			for r := 0; r < rounds; r++ {
				id := g + goroutines*r // disjoint per goroutine and round
				if err := pool.Open(id); err != nil {
					errCh <- fmt.Errorf("open %d: %w", id, err)
					return
				}
				for j := range s.Outcomes {
					res, err := pool.Step(id, s.Outcomes[j], s.Quality[j])
					if err != nil {
						errCh <- fmt.Errorf("step %d: %w", id, err)
						return
					}
					if res.SeriesLen != j+1 {
						errCh <- fmt.Errorf("track %d: series len %d, want %d", id, res.SeriesLen, j+1)
						return
					}
				}
				if err := pool.Close(id); err != nil {
					errCh <- fmt.Errorf("close %d: %w", id, err)
					return
				}
			}
		}(g)
	}
	// A reader hammers Active concurrently; its value must stay in range.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := pool.Active(); n < 0 || n > goroutines {
				errCh <- fmt.Errorf("active = %d outside [0,%d]", n, goroutines)
				return
			}
			runtime.Gosched() // keep the reader from starving steppers on small GOMAXPROCS
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := pool.Active(); n != 0 {
		t.Errorf("active = %d after full churn, want 0", n)
	}
}

// TestWrapperPoolSharedTrackRace aims many steppers at the same track while
// a resetter re-opens it: steps must never fail (the track is always open)
// and series lengths must stay positive and bounded by the step count.
func TestWrapperPoolSharedTrackRace(t *testing.T) {
	pool, st := poolFixture(t, 0)
	const trackID = 7
	if err := pool.Open(trackID); err != nil {
		t.Fatal(err)
	}
	const (
		steppers = 8
		steps    = 50
	)
	var wg sync.WaitGroup
	errCh := make(chan error, steppers+1)
	for g := 0; g < steppers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := st.testSeries[g%len(st.testSeries)]
			for j := 0; j < steps; j++ {
				res, err := pool.Step(trackID, s.Outcomes[j%len(s.Outcomes)], s.Quality[j%len(s.Quality)])
				if err != nil {
					errCh <- err
					return
				}
				if res.SeriesLen < 1 || res.SeriesLen > steppers*steps {
					errCh <- fmt.Errorf("series len %d out of range", res.SeriesLen)
					return
				}
				if res.Uncertainty < 0 || res.Uncertainty > 1 {
					errCh <- fmt.Errorf("uncertainty %g out of range", res.Uncertainty)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 20; r++ {
			if err := pool.Open(trackID); err != nil { // reset, never an error
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := pool.Active(); n != 1 {
		t.Errorf("active = %d, want 1", n)
	}
}

// TestWrapperPoolBudgetRace races far more opens than the budget allows:
// exactly maxTracks must win, every loser must see ErrTrackBudget, and the
// budget must be fully reusable after the winners close.
func TestWrapperPoolBudgetRace(t *testing.T) {
	const (
		budget      = 16
		contenders  = 64
		raceRepeats = 4
	)
	pool, _ := poolFixture(t, budget)
	for round := 0; round < raceRepeats; round++ {
		var opened sync.Map
		var wins, losses atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < contenders; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				err := pool.Open(id)
				switch {
				case err == nil:
					wins.Add(1)
					opened.Store(id, true)
				case errors.Is(err, ErrTrackBudget):
					losses.Add(1)
				default:
					t.Errorf("open %d: unexpected error %v", id, err)
				}
			}(round*contenders + g)
		}
		wg.Wait()
		if w := wins.Load(); w != budget {
			t.Fatalf("round %d: %d opens won, want exactly %d", round, w, budget)
		}
		if l := losses.Load(); l != contenders-budget {
			t.Fatalf("round %d: %d opens lost, want %d", round, l, contenders-budget)
		}
		if n := pool.Active(); n != budget {
			t.Fatalf("round %d: active = %d, want %d", round, n, budget)
		}
		opened.Range(func(k, _ any) bool {
			if err := pool.Close(k.(int)); err != nil {
				t.Errorf("close %v: %v", k, err)
			}
			return true
		})
		if n := pool.Active(); n != 0 {
			t.Fatalf("round %d: active = %d after close, want 0", round, n)
		}
	}
}

// TestWrapperPoolSeriesRace drives the string series ids concurrently:
// every goroutine opens its own series, steps it, and closes it. Ids must be
// unique across goroutines and the pool must drain.
func TestWrapperPoolSeriesRace(t *testing.T) {
	pool, st := poolFixture(t, 0)
	const (
		goroutines = 12
		perG       = 6
	)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	var mu sync.Mutex
	seen := make(map[string]bool)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := st.testSeries[g%len(st.testSeries)]
			for r := 0; r < perG; r++ {
				id, err := pool.OpenSeries()
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				if seen[id] {
					mu.Unlock()
					errCh <- fmt.Errorf("duplicate series id %q", id)
					return
				}
				seen[id] = true
				mu.Unlock()
				for j := 0; j < 5; j++ {
					if _, err := pool.StepSeries(id, s.Outcomes[j], s.Quality[j]); err != nil {
						errCh <- err
						return
					}
				}
				if err := pool.CloseSeries(id); err != nil {
					errCh <- err
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
	if n := pool.Active(); n != 0 {
		t.Errorf("active = %d, want 0", n)
	}
	if len(seen) != goroutines*perG {
		t.Errorf("minted %d distinct ids, want %d", len(seen), goroutines*perG)
	}
}

// TestSeriesTracksDisjointFromManualIDs pins the namespace contract: series
// minted by OpenSeries must never collide with tracker-assigned ids
// passed to Open directly, even when both count from 1.
func TestSeriesTracksDisjointFromManualIDs(t *testing.T) {
	pool, st := poolFixture(t, 0)
	s := st.testSeries[0]
	if err := pool.Open(1); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Step(1, s.Outcomes[0], s.Quality[0]); err != nil {
		t.Fatal(err)
	}
	id, err := pool.OpenSeries() // mints series number 1 as well
	if err != nil {
		t.Fatal(err)
	}
	if pool.Active() != 2 {
		t.Fatalf("active = %d, want 2 (manual + series)", pool.Active())
	}
	// The series open must not have reset the manual track's buffer.
	res, err := pool.Step(1, s.Outcomes[1], s.Quality[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.SeriesLen != 2 {
		t.Errorf("manual track series len = %d, want 2 (reset by OpenSeries?)", res.SeriesLen)
	}
	// Closing the series must not close the manual track.
	if err := pool.CloseSeries(id); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Step(1, s.Outcomes[2], s.Quality[2]); err != nil {
		t.Errorf("manual track unusable after CloseSeries: %v", err)
	}
	if pool.Active() != 1 {
		t.Errorf("active = %d, want 1", pool.Active())
	}
}

// TestOpenSeriesFailureLeavesNoSeries is the regression test for the series
// leak: a series whose underlying open fails (budget exhausted) must leave
// nothing behind — stepping or closing its minted id reports unknown-series,
// the not-found condition, rather than an internal unknown-track error.
func TestOpenSeriesFailureLeavesNoSeries(t *testing.T) {
	pool, st := poolFixture(t, 1)
	id1, err := pool.OpenSeries()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.OpenSeries(); !errors.Is(err, ErrTrackBudget) {
		t.Fatalf("second open = %v, want ErrTrackBudget", err)
	}
	// The failed series handle would have been "s2"; it must be gone.
	if _, err := pool.StepSeries("s2", 0, st.testSeries[0].Quality[0]); !errors.Is(err, ErrUnknownSeries) {
		t.Errorf("step on leaked series = %v, want ErrUnknownSeries", err)
	}
	if err := pool.CloseSeries("s2"); !errors.Is(err, ErrUnknownSeries) {
		t.Errorf("close on leaked series = %v, want ErrUnknownSeries", err)
	}
	// The surviving series still works, and freeing it frees the budget.
	if _, err := pool.StepSeries(id1, st.testSeries[0].Outcomes[0], st.testSeries[0].Quality[0]); err != nil {
		t.Fatal(err)
	}
	if err := pool.CloseSeries(id1); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.OpenSeries(); err != nil {
		t.Errorf("open after close: %v", err)
	}
}

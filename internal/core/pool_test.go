package core

import (
	"errors"
	"sync"
	"testing"
)

func poolFixture(t *testing.T, maxTracks int) (*WrapperPool, *synthStudy) {
	t.Helper()
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	pool, err := NewWrapperPool(st.base, taqim, Config{}, maxTracks)
	if err != nil {
		t.Fatal(err)
	}
	return pool, st
}

func TestWrapperPoolLifecycle(t *testing.T) {
	pool, st := poolFixture(t, 0)
	if err := pool.Open(1); err != nil {
		t.Fatal(err)
	}
	if err := pool.Open(2); err != nil {
		t.Fatal(err)
	}
	if pool.Active() != 2 {
		t.Errorf("active = %d, want 2", pool.Active())
	}
	s := st.testSeries[0]
	for j := range s.Outcomes {
		res, err := pool.Step(1, s.Outcomes[j], s.Quality[j])
		if err != nil {
			t.Fatal(err)
		}
		if res.SeriesLen != j+1 {
			t.Errorf("step %d: series len %d", j, res.SeriesLen)
		}
	}
	// Re-opening an existing track resets its buffer.
	if err := pool.Open(1); err != nil {
		t.Fatal(err)
	}
	res, err := pool.Step(1, s.Outcomes[0], s.Quality[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.SeriesLen != 1 {
		t.Errorf("after reopen: series len %d, want 1", res.SeriesLen)
	}
	if err := pool.Close(2); err != nil {
		t.Fatal(err)
	}
	if pool.Active() != 1 {
		t.Errorf("active = %d, want 1", pool.Active())
	}
	if err := pool.Close(2); !errors.Is(err, ErrUnknownTrack) {
		t.Errorf("double close = %v, want ErrUnknownTrack", err)
	}
	if _, err := pool.Step(99, 0, s.Quality[0]); !errors.Is(err, ErrUnknownTrack) {
		t.Errorf("step unknown track = %v, want ErrUnknownTrack", err)
	}
}

func TestWrapperPoolBudget(t *testing.T) {
	pool, _ := poolFixture(t, 2)
	if err := pool.Open(1); err != nil {
		t.Fatal(err)
	}
	if err := pool.Open(2); err != nil {
		t.Fatal(err)
	}
	if err := pool.Open(3); !errors.Is(err, ErrTrackBudget) {
		t.Errorf("over budget = %v, want ErrTrackBudget", err)
	}
	// Closing frees budget.
	if err := pool.Close(1); err != nil {
		t.Fatal(err)
	}
	if err := pool.Open(3); err != nil {
		t.Errorf("open after close: %v", err)
	}
}

func TestWrapperPoolValidation(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	if _, err := NewWrapperPool(nil, taqim, Config{}, 0); err == nil {
		t.Error("nil base must fail")
	}
	if _, err := NewWrapperPool(st.base, nil, Config{}, 0); err == nil {
		t.Error("nil taQIM must fail")
	}
	if _, err := NewWrapperPool(st.base, taqim, Config{}, -1); err == nil {
		t.Error("negative budget must fail")
	}
	if _, err := NewWrapperPool(st.base, taqim, Config{Features: []Feature{Feature(99)}}, 0); err == nil {
		t.Error("invalid config must fail")
	}
	pool, err := NewWrapperPool(st.base, taqim, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Negative ids are the series ids' reserved space.
	if err := pool.Open(-1); err == nil {
		t.Error("negative track id must fail")
	}
}

func TestWrapperPoolShardOptions(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	cases := []struct {
		req, want int
	}{
		{0, DefaultShards}, // default
		{1, 1},
		{2, 2},
		{3, 4}, // rounded up to a power of two
		{30, 32},
		{64, 64},
	}
	for _, c := range cases {
		pool, err := NewWrapperPool(st.base, taqim, Config{}, 0, WithShards(c.req))
		if err != nil {
			t.Fatalf("WithShards(%d): %v", c.req, err)
		}
		if got := pool.NumShards(); got != c.want {
			t.Errorf("WithShards(%d) => %d shards, want %d", c.req, got, c.want)
		}
	}
	if _, err := NewWrapperPool(st.base, taqim, Config{}, 0, WithShards(-1)); err == nil {
		t.Error("negative shard count must fail")
	}
	// The degenerate single-shard pool still honours the full lifecycle.
	pool, err := NewWrapperPool(st.base, taqim, Config{}, 0, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	s := st.testSeries[0]
	for id := 0; id < 5; id++ {
		if err := pool.Open(id); err != nil {
			t.Fatal(err)
		}
		if _, err := pool.Step(id, s.Outcomes[0], s.Quality[0]); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Active() != 5 {
		t.Errorf("active = %d, want 5", pool.Active())
	}
}

func TestWrapperPoolConcurrent(t *testing.T) {
	pool, st := poolFixture(t, 0)
	const tracks = 8
	for id := 0; id < tracks; id++ {
		if err := pool.Open(id); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, tracks)
	for id := 0; id < tracks; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := st.testSeries[id%len(st.testSeries)]
			for round := 0; round < 5; round++ {
				for j := range s.Outcomes {
					res, err := pool.Step(id, s.Outcomes[j], s.Quality[j])
					if err != nil {
						errCh <- err
						return
					}
					if res.Uncertainty < 0 || res.Uncertainty > 1 {
						errCh <- errors.New("invalid uncertainty")
						return
					}
				}
				if err := pool.Open(id); err != nil { // reset between rounds
					errCh <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if pool.Active() != tracks {
		t.Errorf("active = %d, want %d", pool.Active(), tracks)
	}
}

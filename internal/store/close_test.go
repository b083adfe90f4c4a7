// close_test.go pins how series closes reach the log: a close the
// checkpointer has drained from the pool's journal stays its to write until
// the log holds it, and only series the log has seen get a close record.
package store_test

import (
	"slices"
	"sync"
	"testing"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/store"
)

// liveTracks lists a pool's open tracks in ascending order.
func liveTracks(t *testing.T, pool *core.WrapperPool) []int {
	t.Helper()
	var tracks []int
	var st core.SeriesState
	if _, err := pool.ForEachTrack(&st, func(st *core.SeriesState) error {
		tracks = append(tracks, st.Track)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(tracks)
	return tracks
}

// requireRecoversLive recovers s into a fresh rig and requires exactly the
// source pool's open tracks back.
func requireRecoversLive(t *testing.T, s store.Store, src *rig) {
	t.Helper()
	b := newRig(t)
	if _, err := store.Recover(s, b.pool, b.calib, b.leafs); err != nil {
		t.Fatal(err)
	}
	if got, want := liveTracks(t, b.pool), liveTracks(t, src.pool); !slices.Equal(got, want) {
		t.Fatalf("recovered tracks %v, live tracks %v", got, want)
	}
}

// openStepped opens n series and steps each once.
func openStepped(t *testing.T, r *rig, n int) []string {
	t.Helper()
	s := testStudy(t).TestSeries[0]
	ids := make([]string, n)
	for i := range ids {
		id, err := r.pool.OpenSeries()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.pool.StepSeries(id, s.Outcomes[0], s.Quality[0]); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// hookStore runs each hook once, inside the first Append or Checkpoint call
// that finds it set, before delegating: a checkpoint hook runs after the
// checkpointer's sweep, an append hook in the middle of a flush's sweep.
type hookStore struct {
	store.Store
	append, checkpoint func()
}

func (s *hookStore) Append(rec []byte) error {
	if f := s.append; f != nil {
		s.append = nil
		f()
	}
	return s.Store.Append(rec)
}

func (s *hookStore) Checkpoint(blob []byte) error {
	if f := s.checkpoint; f != nil {
		s.checkpoint = nil
		f()
	}
	return s.Store.Checkpoint(blob)
}

// closeAll closes every series in ids.
func closeAll(t *testing.T, r *rig, ids []string) {
	t.Helper()
	for _, id := range ids {
		if err := r.pool.CloseSeries(id); err != nil {
			t.Error(err)
		}
	}
}

// TestCheckpointKeepsCloseDuringStore: a series closed after the
// checkpoint's sweep captured it is in the blob, so its close must reach the
// log with the next flush instead of being dropped with the closes the blob
// settles.
func TestCheckpointKeepsCloseDuringStore(t *testing.T) {
	r := newRig(t)
	ids := openStepped(t, r, 2)
	hs := &hookStore{Store: store.NewMemStore()}
	cp, err := store.NewCheckpointer(hs, r.pool, r.calib, r.leafs, store.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hs.checkpoint = func() { closeAll(t, r, ids[:1]) }
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	requireRecoversLive(t, hs, r)
}

// TestCloseDuringSweepSkipsTrack: a flush's sweep lists a shard's tracks
// under the shard lock and captures them one by one after it. A track closed
// in between, before any sweep captured it, must not be captured: its close
// was not journalled, so no close record would follow its series record.
func TestCloseDuringSweepSkipsTrack(t *testing.T) {
	r := newRig(t)
	// Eight series per shard on average, so the first captured track
	// shares its shard with tracks the sweep has listed but not captured.
	ids := openStepped(t, r, 8*core.DefaultShards)
	hs := &hookStore{Store: store.NewMemStore()}
	cp, err := store.NewCheckpointer(hs, r.pool, r.calib, r.leafs, store.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hs.append = func() { closeAll(t, r, ids) }
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	requireRecoversLive(t, hs, r)
}

// TestFlushKeepsClosesAfterFailedAppend: a flush whose close append fails
// after its retries must keep the closes it drained but did not write, so
// the next healthy flush writes them.
func TestFlushKeepsClosesAfterFailedAppend(t *testing.T) {
	r := newRig(t)
	ids := openStepped(t, r, 3)
	fs := store.NewFaultStore(store.NewMemStore())
	cp, err := store.NewCheckpointer(fs, r.pool, r.calib, r.leafs, store.CheckpointConfig{
		RetryAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[:2] {
		if err := r.pool.CloseSeries(id); err != nil {
			t.Fatal(err)
		}
	}
	// The first close record lands, the second fails.
	fs.FailOps(store.OpAppend, 1, 1, nil)
	if err := cp.Flush(); err == nil {
		t.Fatal("flush succeeded against a failing append")
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	requireRecoversLive(t, fs, r)
}

// TestCloseRecordsOnlyForLoggedSeries: a series opened and closed between
// two flushes never reached the log, so its close needs no record; a
// flushed series still gets one.
func TestCloseRecordsOnlyForLoggedSeries(t *testing.T) {
	r := newRig(t)
	s1 := openStepped(t, r, 1)[0]
	ms := store.NewMemStore()
	cp, err := store.NewCheckpointer(ms, r.pool, r.calib, r.leafs, store.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	s2 := openStepped(t, r, 1)[0]
	for _, id := range []string{s2, s1} {
		if err := r.pool.CloseSeries(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	closes := 0
	if err := ms.Recover(func([]byte) error { return nil }, func(rec []byte) error {
		if _, err := store.DecodeCloseRecord(rec); err == nil {
			closes++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if closes != 1 {
		t.Errorf("the log holds %d close records, want 1 (s1's)", closes)
	}
	requireRecoversLive(t, ms, r)
}

// TestCloseOfRestoredSeries: a restored series is in the log, so closing it
// before any sweep captured it again still writes its close record.
func TestCloseOfRestoredSeries(t *testing.T) {
	r := newRig(t)
	ids := openStepped(t, r, 2)
	ms := store.NewMemStore()
	cp, err := store.NewCheckpointer(ms, r.pool, r.calib, r.leafs, store.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	b := newRig(t)
	if _, err := store.Recover(ms, b.pool, b.calib, b.leafs); err != nil {
		t.Fatal(err)
	}
	closeAll(t, b, ids[:1])
	cp, err = store.NewCheckpointer(ms, b.pool, b.calib, b.leafs, store.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	requireRecoversLive(t, ms, b)
}

// TestCloseDuringSweepsRecoversLiveSet races series churn against flushes
// and checkpoints (run it under -race): after a final flush, recovery must
// yield exactly the pool's open series, whichever sweep each open, step and
// close fell into.
func TestCloseDuringSweepsRecoversLiveSet(t *testing.T) {
	r := newRig(t)
	s := testStudy(t).TestSeries[0]
	ms := store.NewMemStore()
	cp, err := store.NewCheckpointer(ms, r.pool, r.calib, r.leafs, store.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The churn runs until the sweeper has completed its cycles, so every
	// cycle overlaps opens, steps and closes.
	const workers, cycles = 4, 200
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < cycles; i++ {
			run := cp.Flush
			if i%4 == 3 {
				run = cp.Checkpoint
			}
			if err := run(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var open []string
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := r.pool.OpenSeries()
				if err != nil {
					t.Error(err)
					return
				}
				open = append(open, id)
				for k := 0; k < (i+w)%4; k++ {
					j := k % len(s.Outcomes)
					if _, err := r.pool.StepSeries(id, s.Outcomes[j], s.Quality[j]); err != nil {
						t.Error(err)
						return
					}
				}
				// Every other round's series dies young, maybe before any
				// sweep saw it; beyond 16 open the oldest, swept several
				// times, closes too.
				var victim string
				switch {
				case i%2 == 1:
					victim, open = id, open[:len(open)-1]
				case len(open) > 16:
					victim, open = open[0], open[1:]
				default:
					continue
				}
				if err := r.pool.CloseSeries(victim); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.pool.Active() == 0 {
		t.Fatal("churn left no series open; the comparison would be vacuous")
	}
	requireRecoversLive(t, ms, r)
}

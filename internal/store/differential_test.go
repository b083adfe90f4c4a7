// differential_test.go is the durability layer's proof obligation: a run
// that is checkpointed, killed, and restored must continue bit-identically
// to a run that was never interrupted — across ring-buffer eviction,
// feedback joins against pre-crash estimates, series close/reopen, and a
// recalibration hot-swap whose model must survive serialisation.
package store_test

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/eval"
	"github.com/iese-repro/tauw/internal/monitor"
	"github.com/iese-repro/tauw/internal/recalib"
	"github.com/iese-repro/tauw/internal/store"
	"github.com/iese-repro/tauw/internal/uw"
)

var (
	studyOnce sync.Once
	studyVal  *eval.Study
	studyErr  error
)

func testStudy(t testing.TB) *eval.Study {
	t.Helper()
	studyOnce.Do(func() {
		studyVal, studyErr = eval.BuildStudy(eval.TinyConfig())
	})
	if studyErr != nil {
		t.Fatalf("BuildStudy: %v", studyErr)
	}
	return studyVal
}

// rig bundles one full serving stack: a journaled, monitored pool plus the
// feedback-side state the checkpointer persists.
type rig struct {
	pool  *core.WrapperPool
	calib *monitor.Monitor
	leafs *monitor.LeafStats
	recal *recalib.Recalibrator
}

func newRig(t testing.TB) *rig {
	t.Helper()
	return newRigWith(t, testStudy(t).TAQIM, 16)
}

// ringCaps are the provenance-ring caps the differential tests run with.
// A 16-slot ring never grows; a 64-slot one grows from 16 to 32 slots
// between the 15th and 25th step of s1 and to 64 by its 40th, so restores
// land on every layout of a growing ring.
var ringCaps = []int{16, 64}

// newRigWith builds a rig whose pool is constructed with the given taQIM
// and provenance-ring cap.
func newRigWith(t testing.TB, taqim *uw.QualityImpactModel, ring int) *rig {
	t.Helper()
	st := testStudy(t)
	pool, err := core.NewWrapperPool(st.Base, taqim,
		core.Config{BufferLimit: 8}, 0,
		core.WithMonitoring(ring), core.WithStateJournal())
	if err != nil {
		t.Fatal(err)
	}
	calib, err := monitor.New(monitor.Config{Window: 32, Bins: 5})
	if err != nil {
		t.Fatal(err)
	}
	leafs, err := monitor.NewLeafStats(taqim.NumRegions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Guards disabled: the scripted recalibration must swap in both runs
	// regardless of how the evidence happens to distribute over leaves.
	recal, err := recalib.New(pool, leafs, calib, recalib.Config{
		MinLeafFeedback: -1, Cooldown: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{pool: pool, calib: calib, leafs: leafs, recal: recal}
}

// schedule scripts the drive: every event is a pure function of the global
// tick index, so two rigs driven over the same tick range behave
// identically given identical starting state.
type schedule struct {
	// ticks is the drive length; series lists who is open at each tick
	// (recomputed per tick from the script below).
	ticks int
	// monitorGapFrom/To suppress the checkpoint-granular observations
	// (calibration monitor, per-leaf evidence) over (from, to]: the WAL-tail
	// subtest loses those to a crash by design, so the reference run must
	// not accumulate them either.
	monitorGapFrom, monitorGapTo int
}

const (
	closeTick   = 10 // s2 closes
	reopenTick  = 12 // a fresh series (s5) opens
	recalibTick = 20 // hot-swap to model version 2
)

// openAt lists the series ids open during tick i (after the tick's
// open/close events have run).
func (sc schedule) openAt(i int) []string {
	ids := []string{"s1", "s2", "s3", "s4"}
	if i >= closeTick {
		ids = []string{"s1", "s3", "s4"}
	}
	if i >= reopenTick {
		ids = append(ids, "s5")
	}
	return ids
}

// drive advances r over ticks [from, to) and appends every step result (in
// deterministic series order) to out.
func drive(t testing.TB, r *rig, sc schedule, from, to int, out []core.Result) []core.Result {
	t.Helper()
	st := testStudy(t)
	data := st.TestSeries
	if from == 0 {
		for k := 0; k < 4; k++ {
			if _, err := r.pool.OpenSeries(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := from; i < to; i++ {
		if i == closeTick {
			if err := r.pool.CloseSeries("s2"); err != nil {
				t.Fatal(err)
			}
		}
		if i == reopenTick {
			id, err := r.pool.OpenSeries()
			if err != nil {
				t.Fatal(err)
			}
			if id != "s5" {
				t.Fatalf("reopened series id %q, want s5 (series counter not continuous)", id)
			}
		}
		if i == recalibTick {
			rep, err := r.recal.Recalibrate()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Swapped {
				t.Fatalf("scripted recalibration did not swap: %+v", rep)
			}
		}
		for si, id := range sc.openAt(i) {
			s := data[si%len(data)]
			j := i % len(s.Outcomes)
			res, err := r.pool.StepSeries(id, s.Outcomes[j], s.Quality[j])
			if err != nil {
				t.Fatalf("tick %d series %s: %v", i, id, err)
			}
			out = append(out, res)
			// Every third tick, ground truth arrives for the estimate served
			// two steps ago — a join against the provenance ring, reaching
			// across the restore point when i-from < 2.
			if i%3 == 0 && res.TotalSteps > 2 {
				rec, err := r.pool.TakeFeedbackSeries(id, res.TotalSteps-2)
				if err != nil {
					t.Fatalf("tick %d series %s feedback: %v", i, id, err)
				}
				wrong := (i+si)%2 == 0
				if sc.monitorGapFrom == sc.monitorGapTo || i <= sc.monitorGapFrom || i > sc.monitorGapTo {
					track, err := r.pool.ResolveSeries(id)
					if err != nil {
						t.Fatal(err)
					}
					if err := r.calib.Observe(track, rec.Uncertainty, wrong); err != nil {
						t.Fatal(err)
					}
					r.leafs.Observe(track, rec.TAQIMLeaf, wrong)
				}
			}
		}
	}
	return out
}

// compareRuns asserts the interrupted run's tail results and final state
// equal the continuous run's, bit for bit. The two flags gate the
// checkpoint-granular state: feedback-side accumulators (monitor, leaf
// evidence) and the pool's step counters only match when the crash point
// coincides with a checkpoint — between checkpoints they lose their tail by
// design while series state stays exact.
func compareRuns(t *testing.T, cont, rest *rig, contRes, restRes []core.Result, compareFeedback, compareStats bool) {
	t.Helper()
	if len(contRes) != len(restRes) {
		t.Fatalf("result counts differ: continuous %d, restored %d", len(contRes), len(restRes))
	}
	for i := range contRes {
		if contRes[i] != restRes[i] {
			t.Fatalf("result %d diverged:\ncontinuous: %+v\nrestored:   %+v", i, contRes[i], restRes[i])
		}
	}
	if got, want := rest.pool.Active(), cont.pool.Active(); got != want {
		t.Errorf("active series: restored %d, continuous %d", got, want)
	}
	if got, want := rest.pool.SeriesCounter(), cont.pool.SeriesCounter(); got != want {
		t.Errorf("series counter: restored %d, continuous %d", got, want)
	}
	if got, want := rest.pool.ModelVersion(), cont.pool.ModelVersion(); got != want {
		t.Errorf("model version: restored %d, continuous %d", got, want)
	}
	if compareStats {
		var contStats, restStats core.PoolStats
		cont.pool.ExportStats(&contStats)
		rest.pool.ExportStats(&restStats)
		if contStats != restStats {
			t.Errorf("pool stats diverged:\ncontinuous: %+v\nrestored:   %+v", contStats, restStats)
		}
	}
	// Every open series must hold the same provenance entries: a slot
	// misplaced by a restore would join a later feedback to the wrong
	// estimate, or lose it.
	for n := uint64(1); n <= cont.pool.SeriesCounter(); n++ {
		id := fmt.Sprintf("s%d", n)
		contRing, contOpen := provenance(t, cont.pool, id)
		restRing, restOpen := provenance(t, rest.pool, id)
		if contOpen != restOpen {
			t.Errorf("series %s open: restored %v, continuous %v", id, restOpen, contOpen)
		} else if !slices.Equal(contRing, restRing) {
			t.Errorf("series %s provenance diverged:\ncontinuous: %+v\nrestored:   %+v", id, contRing, restRing)
		}
	}
	if compareFeedback {
		contSnap, restSnap := cont.calib.Snapshot(), rest.calib.Snapshot()
		if fmt.Sprintf("%+v", contSnap) != fmt.Sprintf("%+v", restSnap) {
			t.Errorf("monitor snapshots diverged:\ncontinuous: %+v\nrestored:   %+v", contSnap, restSnap)
		}
		if got, want := rest.leafs.TotalCount(), cont.leafs.TotalCount(); got != want {
			t.Errorf("leaf evidence: restored %d, continuous %d", got, want)
		}
	}
}

// provenance returns series id's provenance entries ordered by step, and
// whether the series is open.
func provenance(t *testing.T, pool *core.WrapperPool, id string) ([]core.ProvEntry, bool) {
	t.Helper()
	track, err := pool.ResolveSeries(id)
	if errors.Is(err, core.ErrUnknownSeries) {
		return nil, false
	}
	if err != nil {
		t.Fatal(err)
	}
	var st core.SeriesState
	if err := pool.SnapshotTrack(track, &st); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(st.Ring, func(a, b core.ProvEntry) int { return cmp.Compare(a.Step, b.Step) })
	return st.Ring, true
}

// TestDifferentialCheckpointRestore drives a continuous run and an
// interrupted run over the same script and requires the interrupted run —
// checkpointed, torn down, recovered into a fresh stack — to produce
// bit-identical step results and state from the restore point on.
func TestDifferentialCheckpointRestore(t *testing.T) {
	for _, k := range []int{15, 25} { // before and after the hot-swap
		t.Run(fmt.Sprintf("restoreAt%d", k), func(t *testing.T) {
			for _, ring := range ringCaps {
				t.Run(fmt.Sprintf("ring%d", ring), func(t *testing.T) {
					testCheckpointRestore(t, k, ring)
				})
			}
		})
	}
}

func testCheckpointRestore(t *testing.T, k, ring int) {
	const ticks = 40
	taqim := testStudy(t).TAQIM
	sc := schedule{ticks: ticks}
	cont := newRigWith(t, taqim, ring)
	_ = drive(t, cont, sc, 0, k, nil)
	contTail := drive(t, cont, sc, k, ticks, nil)

	// Interrupted run: drive to k, full checkpoint, abandon the rig.
	dir := t.TempDir()
	a := newRigWith(t, taqim, ring)
	_ = drive(t, a, sc, 0, k, nil)
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := store.NewCheckpointer(fs, a.pool, a.calib, a.leafs, store.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery into a fresh stack, then the rest of the script.
	fs2, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	b := newRigWith(t, taqim, ring)
	rs, err := store.Recover(fs2, b.pool, b.calib, b.leafs)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.HadCheckpoint {
		t.Fatal("recovery found no checkpoint")
	}
	restTail := drive(t, b, sc, k, ticks, nil)
	compareRuns(t, cont, b, contTail, restTail, true, true)
}

// TestDifferentialWALTailRestore crashes between checkpoints: the state at
// the kill point is a compacted checkpoint plus incremental WAL flushes —
// including the hot-swap's meta record, which rides the WAL. Series state
// must continue bit-identically; the checkpoint-granular feedback state is
// restored as of the checkpoint and is not compared here.
func TestDifferentialWALTailRestore(t *testing.T) {
	for _, ring := range ringCaps {
		t.Run(fmt.Sprintf("ring%d", ring), func(t *testing.T) {
			testWALTailRestore(t, ring)
		})
	}
}

func testWALTailRestore(t *testing.T, ring int) {
	const (
		ticks = 40
		k1    = 14 // checkpoint
		k     = 26 // flush + crash
	)
	taqim := testStudy(t).TAQIM
	sc := schedule{ticks: ticks}
	cont := newRigWith(t, taqim, ring)
	_ = drive(t, cont, sc, 0, k, nil)
	contTail := drive(t, cont, sc, k, ticks, nil)

	dir := t.TempDir()
	a := newRigWith(t, taqim, ring)
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := store.NewCheckpointer(fs, a.pool, a.calib, a.leafs, store.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_ = drive(t, a, sc, 0, k1, nil)
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Two incremental flushes with the close/reopen/hot-swap landing
	// between them, then the "crash": the FileStore is simply abandoned
	// (no Close, like a SIGKILL) — reopening must replay checkpoint + tail.
	mid := (k1 + k) / 2
	_ = drive(t, a, sc, k1, mid, nil)
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = drive(t, a, sc, mid, k, nil)
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if lg := fs.LogSize(); lg <= 0 {
		t.Fatalf("expected a non-empty WAL tail, got %d bytes", lg)
	}

	fs2, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	b := newRigWith(t, taqim, ring)
	rs, err := store.Recover(fs2, b.pool, b.calib, b.leafs)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.HadCheckpoint || rs.Records == 0 {
		t.Fatalf("recovery should see checkpoint plus WAL tail, got %+v", rs)
	}
	if got := b.pool.ModelVersion(); got != 2 {
		t.Fatalf("hot-swapped model version did not survive the WAL: version %d, want 2", got)
	}
	restTail := drive(t, b, sc, k, ticks, nil)
	compareRuns(t, cont, b, contTail, restTail, false, false)
}

// TestRecoverEmptyDir is the first-boot path: an empty state directory
// recovers to nothing and the server starts cold.
func TestRecoverEmptyDir(t *testing.T) {
	fs, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	r := newRig(t)
	rs, err := store.Recover(fs, r.pool, r.calib, r.leafs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.HadCheckpoint || rs.Series != 0 || rs.Records != 0 {
		t.Fatalf("empty dir recovered %+v", rs)
	}
	if rs.ModelVersion != 1 {
		t.Fatalf("cold model version %d, want 1", rs.ModelVersion)
	}
}

// TestMemStoreDifferential runs the checkpoint cycle through the in-memory
// backend: same recovery semantics, no disk.
func TestMemStoreDifferential(t *testing.T) {
	const ticks, k = 30, 15
	// The feedback observed between the checkpoint (before tick k-3) and
	// the crash (before tick k) is checkpoint-granular and would be lost —
	// and that evidence feeds the scripted recalibration at tick 20, which
	// must see identical evidence in both runs. The schedule suppresses
	// observation over ticks [k-3, k) in both runs (the gap is (from, to]).
	sc := schedule{ticks: ticks, monitorGapFrom: k - 4, monitorGapTo: k - 1}
	cont := newRig(t)
	_ = drive(t, cont, sc, 0, k, nil)
	contTail := drive(t, cont, sc, k, ticks, nil)

	ms := store.NewMemStore()
	a := newRig(t)
	cp, err := store.NewCheckpointer(ms, a.pool, a.calib, a.leafs, store.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_ = drive(t, a, sc, 0, k-3, nil)
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_ = drive(t, a, sc, k-3, k, nil)
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}

	b := newRig(t)
	if _, err := store.Recover(ms, b.pool, b.calib, b.leafs); err != nil {
		t.Fatal(err)
	}
	restTail := drive(t, b, sc, k, ticks, nil)
	// Pool step counters lose ticks (k-3, k] to the crash (they live in the
	// checkpoint's monitor record); feedback state matches because the
	// schedule gap kept both runs from observing over that window.
	compareRuns(t, cont, b, contTail, restTail, true, false)
}

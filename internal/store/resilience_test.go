// resilience_test.go proves the durability layer's fault story end to end:
// transient store failures are absorbed by retries, persistent ones abort the
// cycle with state kept dirty, sustained ones trip the circuit breaker into
// degraded mode — and once the store heals, a recovery checkpoint reconciles
// everything so a restart continues bit-identically to a run whose store
// never failed.
package store_test

import (
	"errors"
	"testing"
	"time"

	"github.com/iese-repro/tauw/internal/store"
	"github.com/iese-repro/tauw/internal/trace"
)

// failAllOps schedules every store operation to fail until Clear.
func failAllOps(fs *store.FaultStore) {
	for op := store.Op(0); op < store.NumOps(); op++ {
		fs.FailOps(op, 0, -1, nil)
	}
}

// TestFlushRetriesTransientFault: a store that fails once and then recovers
// must not fail the cycle — the retry absorbs it, and only the per-attempt
// counter shows the hiccup.
func TestFlushRetriesTransientFault(t *testing.T) {
	r := newRig(t)
	sc := schedule{ticks: 10}
	_ = drive(t, r, sc, 0, 5, nil)
	fs := store.NewFaultStore(store.NewMemStore())
	cp, err := store.NewCheckpointer(fs, r.pool, r.calib, r.leafs, store.CheckpointConfig{
		RetryAttempts: 3, RetryBase: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs.FailOps(store.OpAppend, 0, 1, nil)
	if err := cp.Flush(); err != nil {
		t.Fatalf("flush with a transient append fault: %v", err)
	}
	st := cp.CheckpointStats()
	if st.StoreErrors == 0 {
		t.Fatal("the absorbed fault never counted into StoreErrors")
	}
	if st.Errors != 0 {
		t.Fatalf("cycle errors = %d, want 0 (the retry absorbed the fault)", st.Errors)
	}
	if st.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1", st.Flushes)
	}
	if st.Degraded {
		t.Fatal("one transient fault must not suggest degraded mode")
	}
}

// TestFlushTracesPerFlush pins the store's trace volume: a flush records one
// KindFlush event whose Arg counts its WAL records, and no KindWALAppend
// event for an append that succeeded. A failed append records one
// KindWALAppend event with StatusError.
func TestFlushTracesPerFlush(t *testing.T) {
	r := newRig(t)
	_ = drive(t, r, schedule{ticks: 10}, 0, 5, nil)
	rec := trace.New(trace.Config{})
	fs := store.NewFaultStore(store.NewMemStore())
	cp, err := store.NewCheckpointer(fs, r.pool, r.calib, r.leafs, store.CheckpointConfig{
		RetryAttempts: 1, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	n := cp.CheckpointStats().WALRecords
	if n < 2 {
		t.Fatalf("the flush appended %d WAL records, want several", n)
	}
	count := func(kind trace.Kind) (events []trace.Event) {
		for _, ev := range rec.Snapshot(nil) {
			if ev.Kind == kind {
				events = append(events, ev)
			}
		}
		return events
	}
	if flushes := count(trace.KindFlush); len(flushes) != 1 || flushes[0].Arg != n || flushes[0].Status != trace.StatusOK {
		t.Errorf("flush events %+v, want one ok event with Arg %d", flushes, n)
	}
	if appends := count(trace.KindWALAppend); len(appends) != 0 {
		t.Errorf("successful appends recorded %d wal_append events, want 0", len(appends))
	}

	_ = drive(t, r, schedule{ticks: 10}, 5, 6, nil)
	fs.FailOps(store.OpAppend, 0, 1, nil)
	if err := cp.Flush(); err == nil {
		t.Fatal("flush succeeded against a failing append")
	}
	appends := count(trace.KindWALAppend)
	if len(appends) != 1 || appends[0].Status != trace.StatusError {
		t.Errorf("failed append recorded %+v, want one wal_append event with status error", appends)
	}
}

// TestFlushFailureKeepsStateDirty: a flush aborted mid-sweep must leave the
// unpersisted series dirty, so the next healthy flush persists everything —
// proven by recovering the healed store into a fresh stack and requiring the
// continuation to match the uninterrupted rig bit for bit.
func TestFlushFailureKeepsStateDirty(t *testing.T) {
	const k, ticks = 8, 10
	sc := schedule{ticks: ticks}
	r := newRig(t)
	_ = drive(t, r, sc, 0, k, nil)
	ms := store.NewMemStore()
	fs := store.NewFaultStore(ms)
	cp, err := store.NewCheckpointer(fs, r.pool, r.calib, r.leafs, store.CheckpointConfig{
		RetryAttempts: 1, // no retries: the abort path is the subject
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two series land, then every further append fails: the sweep aborts
	// mid-flight.
	fs.FailOps(store.OpAppend, 2, -1, nil)
	if err := cp.Flush(); err == nil {
		t.Fatal("flush succeeded against a failing store")
	}
	if cp.CheckpointStats().Flushes != 0 {
		t.Fatal("aborted flush counted as completed")
	}
	fs.Clear()
	if err := cp.Flush(); err != nil {
		t.Fatalf("flush after healing: %v", err)
	}

	b := newRig(t)
	if _, err := store.Recover(ms, b.pool, b.calib, b.leafs); err != nil {
		t.Fatal(err)
	}
	contTail := drive(t, r, sc, k, ticks, nil)
	restTail := drive(t, b, sc, k, ticks, nil)
	compareRuns(t, r, b, contTail, restTail, false, false)
}

// TestDifferentialFaultWindowRestore is the chaos differential: traffic keeps
// flowing while every store operation fails (spanning a series close, a
// reopen, and a failed flush), the store heals, a recovery checkpoint
// reconciles the WAL gap — and a stack recovered from that checkpoint must
// continue bit-identically to a run whose store never failed, through the
// scripted recalibration hot-swap in the tail.
func TestDifferentialFaultWindowRestore(t *testing.T) {
	const (
		ticks = 30
		k1    = 8  // healthy checkpoint
		mid   = 12 // failed flush attempt inside the fault window
		k     = 16 // heal + recovery checkpoint
	)
	sc := schedule{ticks: ticks}
	cont := newRig(t)
	_ = drive(t, cont, sc, 0, k, nil)
	contTail := drive(t, cont, sc, k, ticks, nil)

	ms := store.NewMemStore()
	fs := store.NewFaultStore(ms)
	a := newRig(t)
	cp, err := store.NewCheckpointer(fs, a.pool, a.calib, a.leafs, store.CheckpointConfig{
		RetryAttempts: 2, RetryBase: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = drive(t, a, sc, 0, k1, nil)
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The fault window: serving continues (close at tick 10, reopen at 12)
	// while the store fails everything, including a flush attempt.
	failAllOps(fs)
	_ = drive(t, a, sc, k1, mid, nil)
	if err := cp.Flush(); err == nil {
		t.Fatal("flush succeeded inside the fault window")
	}
	_ = drive(t, a, sc, mid, k, nil)

	// Heal: the recovery checkpoint captures the complete state, reconciling
	// everything the WAL missed during the window.
	fs.Clear()
	if err := cp.Checkpoint(); err != nil {
		t.Fatalf("recovery checkpoint after healing: %v", err)
	}

	b := newRig(t)
	rs, err := store.Recover(ms, b.pool, b.calib, b.leafs)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.HadCheckpoint {
		t.Fatal("recovery found no checkpoint")
	}
	restTail := drive(t, b, sc, k, ticks, nil)
	// The recovery point coincides with a full checkpoint, so even the
	// checkpoint-granular feedback state and pool counters must match.
	compareRuns(t, cont, b, contTail, restTail, true, true)
}

// TestBreakerTripAndRecovery runs the real background loop against a dead
// store: the breaker must trip into degraded mode after the configured
// consecutive failures, keep probing half-open, and clear itself with a
// recovery checkpoint once the store heals — then a drain-time Stop and a
// recovery must carry the complete state.
func TestBreakerTripAndRecovery(t *testing.T) {
	const k, ticks = 6, 10
	sc := schedule{ticks: ticks}
	r := newRig(t)
	_ = drive(t, r, sc, 0, k, nil)
	ms := store.NewMemStore()
	fs := store.NewFaultStore(ms)
	cp, err := store.NewCheckpointer(fs, r.pool, r.calib, r.leafs, store.CheckpointConfig{
		FlushInterval:      time.Millisecond,
		CheckpointInterval: time.Hour,
		RetryAttempts:      1,
		BreakerThreshold:   2,
		ProbeInterval:      2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	failAllOps(fs)
	cp.Start()

	waitCond(t, "breaker trip", func() bool { return cp.Degraded() })
	st := cp.CheckpointStats()
	if !st.Degraded || st.DegradedEntries != 1 {
		t.Fatalf("degraded=%v entries=%d, want tripped exactly once", st.Degraded, st.DegradedEntries)
	}
	if st.Errors < 2 || st.StoreErrors < 2 {
		t.Fatalf("cycle errors %d / store errors %d, want >= breaker threshold", st.Errors, st.StoreErrors)
	}

	fs.Clear()
	waitCond(t, "breaker recovery", func() bool { return !cp.Degraded() })
	st = cp.CheckpointStats()
	if st.Checkpoints < 1 {
		t.Fatalf("recovery closed the breaker without a checkpoint: %+v", st)
	}
	if st.DegradedEntries != 1 {
		t.Fatalf("breaker re-tripped against a healthy store: %d entries", st.DegradedEntries)
	}

	if err := cp.Stop(); err != nil {
		t.Fatalf("drain after recovery: %v", err)
	}
	b := newRig(t)
	if _, err := store.Recover(ms, b.pool, b.calib, b.leafs); err != nil {
		t.Fatal(err)
	}
	contTail := drive(t, r, sc, k, ticks, nil)
	restTail := drive(t, b, sc, k, ticks, nil)
	compareRuns(t, r, b, contTail, restTail, true, true)
}

// TestStopSurfacesStoreFailure: a drain against a store that never heals must
// return the error after bounded retries instead of hanging — and the
// checkpointer must stay usable for a later retry once the store is back.
func TestStopSurfacesStoreFailure(t *testing.T) {
	r := newRig(t)
	_ = drive(t, r, schedule{ticks: 4}, 0, 4, nil)
	fs := store.NewFaultStore(store.NewMemStore())
	cp, err := store.NewCheckpointer(fs, r.pool, r.calib, r.leafs, store.CheckpointConfig{
		RetryAttempts: 2, RetryBase: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs.FailOps(store.OpCheckpoint, 0, -1, nil)
	done := make(chan error, 1)
	go func() { done <- cp.Stop() }()
	select {
	case err := <-done:
		if !errors.Is(err, store.ErrInjected) {
			t.Fatalf("Stop against a dead store returned %v, want the injected error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung on a dead store instead of surfacing the error")
	}
	fs.Clear()
	if err := cp.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the store healed: %v", err)
	}
}

// waitCond polls a condition the background loop flips, failing after a
// generous deadline (the loop's intervals are single-digit milliseconds).
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s never happened", what)
}

// identity_test.go binds a state directory to the model that wrote it: the
// meta record carries the fingerprint of the pool's construction model, and
// Recover refuses state written under another one. Records written before
// the fingerprint existed restore unchecked.
package store_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/iese-repro/tauw/internal/store"
)

// legacyMeta is AppendMetaRecord(nil, &Meta{SeriesCounter: 300,
// ModelVersion: 1}) as written before meta records carried a fingerprint.
var legacyMeta = []byte{0x3, 0xac, 0x2, 0x1, 0x0}

func TestRecoverRefusesOtherConstructionModel(t *testing.T) {
	// Past the scripted recalibration the state carries a hot-swapped
	// model version 2 as well as the construction model's fingerprint.
	const ticks = recalibTick + 5
	a := newRig(t)
	_ = drive(t, a, schedule{ticks: ticks}, 0, ticks, nil)
	if v := a.pool.ModelVersion(); v != 2 {
		t.Fatalf("writer serves model version %d, want 2", v)
	}
	ms := store.NewMemStore()
	cp, err := store.NewCheckpointer(ms, a.pool, a.calib, a.leafs, store.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	same := newRig(t)
	rs, err := store.Recover(ms, same.pool, same.calib, same.leafs)
	if err != nil {
		t.Fatalf("same construction model refused: %v", err)
	}
	if rs.ModelVersion != 2 || rs.Series != a.pool.Active() {
		t.Fatalf("same model restored %+v, want version 2 and %d series", rs, a.pool.Active())
	}

	// A pool constructed with the writer's hot-swapped revision is a
	// different construction model, although it has the same shape.
	other := newRigWith(t, a.pool.CurrentTAQIM())
	_, mismatch := store.Recover(ms, other.pool, other.calib, other.leafs)
	if !errors.Is(mismatch, store.ErrModelMismatch) {
		t.Fatalf("different construction model: got %v, want ErrModelMismatch", mismatch)
	}
	wrote, err := a.pool.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := other.pool.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if msg := mismatch.Error(); !strings.Contains(msg, wrote.String()) || !strings.Contains(msg, runs.String()) {
		t.Fatalf("error %q does not name both fingerprints %s and %s", msg, wrote, runs)
	}
}

// TestRecoverLegacyMetaRecord restores records without a fingerprint as
// before: any construction model accepts them.
func TestRecoverLegacyMetaRecord(t *testing.T) {
	ms := store.NewMemStore()
	if err := ms.Append(legacyMeta); err != nil {
		t.Fatal(err)
	}
	r := newRig(t)
	rs, err := store.Recover(ms, r.pool, r.calib, r.leafs)
	if err != nil {
		t.Fatalf("legacy meta record refused: %v", err)
	}
	if got := r.pool.SeriesCounter(); got != 300 || rs.ModelVersion != 1 {
		t.Fatalf("legacy restore: series counter %d, model version %d; want 300, 1", got, rs.ModelVersion)
	}

	// A legacy record with a hot-swapped model installs it.
	swapped := newRig(t)
	_ = drive(t, swapped, schedule{ticks: recalibTick + 1}, 0, recalibTick+1, nil)
	js, err := swapped.pool.CurrentTAQIM().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	ms = store.NewMemStore()
	if err := ms.Append(store.AppendMetaRecord(nil, &store.Meta{SeriesCounter: 5, ModelVersion: 2, ModelJSON: js})); err != nil {
		t.Fatal(err)
	}
	r = newRig(t)
	if rs, err = store.Recover(ms, r.pool, r.calib, r.leafs); err != nil || rs.ModelVersion != 2 {
		t.Fatalf("legacy swapped-model restore: %+v, %v", rs, err)
	}
}

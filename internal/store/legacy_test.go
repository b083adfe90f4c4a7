// legacy_test.go pins recovery of state written while the timeseries buffer
// still kept each step's quality vector. Such a series record carries the
// step's factors after each buffered record's quality count; a reader drops
// them, and the restored series continues bit-exactly.
package store_test

import (
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/store"
)

// legacyRecords are series records of series s1 as the encoder wrote them
// while core.Record kept each step's quality vector: after legacyAt[i]
// steps of legacyStep on a legacyPool. Every buffered record carries its
// 10 quality factors.
var (
	legacyAt      = [2]int{4, 9}
	legacyRecords = [2]string{`
		010104041caa1061658479ad3f0a000000000000000000000000000000000000
		0000000000000000000000000000000000000000000000000000000000000000
		000000000000000000000000000000000000000000000000000000004e401caa
		1061658479ad3f0a000000000000000000000000000000000000000000000000
		000000000000000000000000000000009a9999999999b93f333333333333c33f
		00000000000000009a9999999999c93f000000000080514006aa1061658479ad
		3f0a000000000000000000000000000000000000000000000000000000000000
		000000000000000000009a9999999999c93f333333333333d33f000000000000
		00009a9999999999d93f00000000000054401c23e25bccc46dd13f0a00000000
		0000000000000000000000000000000000000000000000000000000000000000
		00000000343333333333d33f0000000000000000000000000000000034333333
		3333e33f0000000000805640020601f5eea9b96728ee3f1c03367b49437be604
		400104020601031c0304040182e6ce5284c2c53f011c02000216a453800d2977
		3f011c04000316a453800d29773f011c04000416a453800d29773f011c0400`, `
		0101090406aa1061658479ad3f0a000000000000000000000000000000000000
		000000000000000000000000000000000000000000009a9999999999b93f3333
		33333333d33f000000000000000000000000000000000000000000805b401caa
		1061658479ad3f0a000000000000000000000000000000000000000000000000
		000000000000000000000000000000009a9999999999c93f0000000000000000
		00000000000000009a9999999999c93f0000000000005e401caa1061658479ad
		3f0a000000000000000000000000000000000000000000000000000000000000
		00000000000000000000343333333333d33f333333333333c33f000000000000
		00009a9999999999d93f000000000040604006a6b98776acafd43f0a00000000
		0000000000000000000000000000000000000000000000000000000000000000
		000000000000000000000000333333333333d33f000000000000000034333333
		3333e33f0000000000806140020602110933bf48e8f93f1c02f5eea9b96728fe
		3f0109020602091c0208090182e6ce5284c2c53f011c02000216a453800d2977
		3f011c04000316a453800d29773f011c04000416a453800d29773f011c040005
		6082d195a19be03f011c0000066082d195a19be03f01060000076082d195a19b
		e03f011c0000086082d195a19be03f011c0000096082d195a19be03f01060000`,
	}
)

// legacySteps is how many steps the reference series runs in all.
const legacySteps = 14

// legacyStep is step j of the pinned series: three outcome classes, and
// deficits and pixel sizes that move the base estimate between leaves.
func legacyStep(j int) (int, []float64) {
	outcomes := [...]int{14, 14, 3, 14, 7, 3, 14, 14, 3, 14, 7, 14, 14, 3}
	q := make([]float64, 10)
	q[5] = float64(j%4) * 0.1  // sign_dirt
	q[6] = float64(j%3) * 0.15 // lens_dirt
	q[8] = float64(j%5) * 0.2  // motion_blur
	q[9] = 60 + float64(j)*10  // pixel_size
	return outcomes[j%len(outcomes)], q
}

// legacyPool builds a pool from the tiny preset bundle that tauserve
// embeds: a committed model, so the pinned records' uncertainties do not
// depend on this machine's study build. It is shaped like a server's pool,
// with a 4-record buffer cap so the series' ring evicts.
func legacyPool(t *testing.T) *core.WrapperPool {
	t.Helper()
	data, err := os.ReadFile("../../cmd/tauserve/presets/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.LoadBundle(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := core.NewWrapperPool(w.Base(), w.TAQIM(), core.Config{BufferLimit: 4}, 0,
		core.WithMonitoring(16), core.WithStateJournal())
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// legacyRun is the reference: s1 stepped legacySteps times without a stop,
// with its results and its snapshots after legacyAt steps.
type legacyRun struct {
	results []core.Result
	snaps   [len(legacyAt)]core.SeriesState
	final   core.SeriesState
}

func runLegacyReference(t *testing.T) *legacyRun {
	t.Helper()
	pool := legacyPool(t)
	if id, err := pool.OpenSeries(); err != nil || id != "s1" {
		t.Fatalf("OpenSeries = %q, %v; want s1", id, err)
	}
	var run legacyRun
	for j := 0; j < legacySteps; j++ {
		for i, at := range legacyAt {
			if j == at {
				if err := pool.SnapshotTrack(-1, &run.snaps[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		outcome, quality := legacyStep(j)
		res, err := pool.StepSeries("s1", outcome, quality)
		if err != nil {
			t.Fatal(err)
		}
		run.results = append(run.results, res)
	}
	if err := pool.SnapshotTrack(-1, &run.final); err != nil {
		t.Fatal(err)
	}
	return &run
}

// continueLegacy steps a restored s1 from step `from` to the end and
// requires every result and the final snapshot to equal the reference's.
func continueLegacy(t *testing.T, pool *core.WrapperPool, from int, ref *legacyRun) {
	t.Helper()
	for j := from; j < legacySteps; j++ {
		outcome, quality := legacyStep(j)
		res, err := pool.StepSeries("s1", outcome, quality)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, ref.results[j]) {
			t.Fatalf("step %d after restore:\n got %+v\nwant %+v", j+1, res, ref.results[j])
		}
	}
	var final core.SeriesState
	if err := pool.SnapshotTrack(-1, &final); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final, ref.final) {
		t.Fatalf("final state after restore:\n got %+v\nwant %+v", final, ref.final)
	}
}

func legacyRecord(t *testing.T, i int) []byte {
	t.Helper()
	rec, err := hex.DecodeString(strings.Join(strings.Fields(legacyRecords[i]), ""))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestDecodeLegacySeriesRecord: a pinned record with quality vectors
// decodes to the state the live series holds at that step, re-encodes
// without the vectors, and restores a track that steps bit-exactly like
// the series that never stopped.
func TestDecodeLegacySeriesRecord(t *testing.T) {
	ref := runLegacyReference(t)
	for i, at := range legacyAt {
		rec := legacyRecord(t, i)
		var st core.SeriesState
		if err := store.DecodeSeriesRecord(rec, &st); err != nil {
			t.Fatalf("record after %d steps: %v", at, err)
		}
		if !reflect.DeepEqual(st, ref.snaps[i]) {
			t.Fatalf("record after %d steps decoded\n %+v\nwant the live state\n %+v", at, st, ref.snaps[i])
		}
		if got, want := len(store.AppendSeriesRecord(nil, &st)), len(rec)-8*10*len(st.Records); got != want {
			t.Fatalf("record after %d steps re-encodes to %d bytes, want %d: its %d quality vectors dropped",
				at, got, want, len(st.Records))
		}
		pool := legacyPool(t)
		if err := pool.RestoreTrack(&st); err != nil {
			t.Fatalf("restore after %d steps: %v", at, err)
		}
		continueLegacy(t, pool, at, ref)
	}
}

// TestRecoverLegacyFileStore recovers a state directory whose checkpoint
// and WAL both hold series records with quality vectors.
func TestRecoverLegacyFileStore(t *testing.T) {
	ref := runLegacyReference(t)
	dir := t.TempDir()
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := legacyPool(t).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	blob := store.AppendBlobRecord(nil, store.AppendMetaRecord(nil, &store.Meta{
		SeriesCounter: 1, ModelVersion: 1, Fingerprint: fp,
	}))
	blob = store.AppendBlobRecord(blob, legacyRecord(t, 0))
	if err := fs.Checkpoint(blob); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(legacyRecord(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs, err = store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	pool := legacyPool(t)
	rs, err := store.Recover(fs, pool, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.HadCheckpoint || rs.Records != 1 || rs.Series != 1 {
		t.Fatalf("recovered %+v, want a checkpoint, one WAL record and one series", rs)
	}
	continueLegacy(t, pool, legacyAt[1], ref)
	if id, err := pool.OpenSeries(); err != nil || id != "s2" {
		t.Fatalf("OpenSeries after recovery = %q, %v; want s2", id, err)
	}
}

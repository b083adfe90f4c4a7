package core

import (
	"math"
	"testing"

	"github.com/iese-repro/tauw/internal/uw"
)

// FuzzLoadBundle hardens the deployment path: arbitrary bytes must either
// produce a working wrapper or a clean error — never a panic and never a
// wrapper that violates basic invariants.
func FuzzLoadBundle(f *testing.F) {
	// Seed with a genuine bundle and characteristic corruptions.
	st, err := buildStudyForFuzz()
	if err != nil {
		f.Fatal(err)
	}
	taqim, err := FitTimeseriesQIM(st.base, st.trainSeries, st.calibSeries,
		[]string{"severity", "noise"}, nil, nil, fuzzQIMConfig())
	if err != nil {
		f.Fatal(err)
	}
	w, err := NewWrapper(st.base, taqim, Config{})
	if err != nil {
		f.Fatal(err)
	}
	good, err := SaveBundle(w)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"base_qim":{},"taqim":{}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadBundle(data, nil)
		if err != nil {
			return // clean rejection is fine
		}
		// A successfully loaded bundle must serve valid estimates.
		quality := make([]float64, loaded.Base().QIM().Config().TreeDepth)
		// The fuzzed model's feature width is unknown; probe with the
		// width the taQIM expects minus the taQF columns. If the probe
		// width is wrong the wrapper must error, not panic.
		res, err := loaded.Step(0, quality)
		if err != nil {
			return
		}
		if res.Uncertainty < 0 || res.Uncertainty > 1 {
			t.Fatalf("loaded bundle produced uncertainty %g", res.Uncertainty)
		}
	})
}

// buildStudyForFuzz builds the miniature fixture without *testing.T.
func buildStudyForFuzz() (*synthStudy, error) {
	frames := func(series []SeriesObservations) ([][]float64, []bool) {
		var x [][]float64
		var y []bool
		for _, s := range series {
			for j := range s.Outcomes {
				x = append(x, s.Quality[j])
				y = append(y, s.Outcomes[j] != s.Truth)
			}
		}
		return x, y
	}
	train := makeSeries(120, 8, 1)
	calib := makeSeries(120, 8, 2)
	tx, ty := frames(train)
	cx, cy := frames(calib)
	qim, err := uw.FitQIM(tx, ty, cx, cy, []string{"severity", "noise"}, fuzzQIMConfig())
	if err != nil {
		return nil, err
	}
	base, err := uw.NewWrapper(qim, nil)
	if err != nil {
		return nil, err
	}
	return &synthStudy{base: base, trainSeries: train, calibSeries: calib}, nil
}

func fuzzQIMConfig() uw.QIMConfig {
	cfg := uw.DefaultQIMConfig()
	cfg.MinLeafCalibration = 60
	cfg.TreeDepth = 4
	return cfg
}

// FuzzSeriesID pins the series id grammar from both sides: an id that
// parseSeries accepts is byte for byte the id seriesID formats for its
// number, so every open series has exactly one id, and every number a
// series can have (1 through math.MaxInt) round-trips to its track.
func FuzzSeriesID(f *testing.F) {
	for _, id := range []string{
		"s1", "s10", "", "s", "s0", "s01", "s+1", "s-1", "S1", " s1", "s1 ", "s1x", "s1_0", "s٣",
		"s9223372036854775807", "s9223372036854775808", "s18446744073709551616",
	} {
		f.Add(id, uint64(len(id)))
	}
	f.Add("s1", uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, id string, n uint64) {
		if track, ok := parseSeries(id); ok {
			if track >= 0 {
				t.Fatalf("parseSeries(%q) = track %d, want a negative track", id, track)
			}
			if got := seriesID(uint64(-track)); got != id {
				t.Fatalf("parseSeries(%q) = track %d, whose id is %q", id, track, got)
			}
		}
		n = n%math.MaxInt + 1
		if track, ok := parseSeries(seriesID(n)); !ok || track != -int(n) {
			t.Fatalf("parseSeries(seriesID(%d)) = %d, %v, want %d", n, track, ok, -int(n))
		}
	})
}

package core

import (
	"testing"

	"github.com/iese-repro/tauw/internal/fusion"
)

// FuzzRestoreTrack holds RestoreTrack to its promise that a state it
// accepts is one a live track could be in. Each input steps a source track
// through a series over a four-outcome alphabet (steps: one byte per step,
// the low two bits the outcome), snapshots it, and perturbs the snapshot's
// statistics, tally and provenance ring (perturb: three bytes per edit —
// which edit, which entry, and by how much). Whenever RestoreTrack accepts
// the result, the next Step must succeed with a taQF ratio in [0, 1] and
// between 1 and the series length distinct outcomes. conf picks the buffer
// limit (low nibble, 0 = unbounded) and, by its high bit, the no-fusion
// baseline's tally instead of the majority vote's.
func FuzzRestoreTrack(f *testing.F) {
	st, err := buildStudyForFuzz()
	if err != nil {
		f.Fatal(err)
	}
	taqim, err := FitTimeseriesQIM(st.base, st.trainSeries, st.calibSeries,
		[]string{"severity", "noise"}, nil, nil, fuzzQIMConfig())
	if err != nil {
		f.Fatal(err)
	}
	quality := st.calibSeries[0].Quality
	f.Add([]byte{0, 1, 1, 2, 1, 0, 3, 1}, []byte{}, byte(0))
	f.Add([]byte{0, 4, 9, 13, 2, 6, 2, 2, 1, 0, 3, 7}, []byte{}, byte(5))
	f.Add([]byte{3, 3, 2}, []byte{3, 0, 1}, byte(0x80))
	f.Add([]byte{1, 2, 1, 2, 1}, []byte{2, 0, 1, 2, 1, 0xff}, byte(0))
	f.Add([]byte{0, 1, 2, 3, 0, 1}, []byte{4, 2, 0xfe, 8, 1, 3}, byte(4))

	f.Fuzz(func(t *testing.T, steps, perturb []byte, conf byte) {
		if len(steps) > 64 {
			steps = steps[:64]
		}
		cfg := Config{BufferLimit: int(conf & 0x0f)}
		if conf&0x80 != 0 {
			cfg.Fuser = fusion.Latest{}
		}
		newPool := func() *WrapperPool {
			pool, err := NewWrapperPool(st.base, taqim, cfg, 0, WithMonitoring(8))
			if err != nil {
				t.Fatal(err)
			}
			return pool
		}
		src := newPool()
		if err := src.Open(1); err != nil {
			t.Fatal(err)
		}
		for _, b := range steps {
			if _, err := src.Step(1, int(b&3), quality[int(b>>2)%len(quality)]); err != nil {
				t.Fatal(err)
			}
		}
		var snap SeriesState
		if err := src.SnapshotTrack(1, &snap); err != nil {
			t.Fatal(err)
		}
		for ; len(perturb) >= 3; perturb = perturb[3:] {
			perturbState(&snap, perturb[0], int(perturb[1]), int8(perturb[2]))
		}

		dst := newPool()
		if err := dst.RestoreTrack(&snap); err != nil {
			return // a clean rejection
		}
		res, err := dst.Step(1, 2, quality[0])
		if err != nil {
			t.Fatalf("restored state fails its next step: %v", err)
		}
		if r := res.TAQF[Ratio-1]; r < 0 || r > 1 {
			t.Fatalf("restored state steps to a taQF ratio of %g", r)
		}
		if d := res.TAQF[Size-1]; d < 1 || d > float64(res.SeriesLen) {
			t.Fatalf("restored state steps to %g distinct outcomes over %d steps", d, res.SeriesLen)
		}
	})
}

// perturbState applies one edit to a snapshot: edit picks what changes, i
// which entry (modulo the entries there are), and by how much delta moves
// it.
func perturbState(st *SeriesState, edit byte, i int, delta int8) {
	d := int(delta)
	switch edit % 9 {
	case 0:
		if n := len(st.Stats); n > 0 {
			st.Stats[i%n].Count += d
		}
	case 1:
		if n := len(st.Stats); n > 0 {
			st.Stats[i%n].Outcome += d
		}
	case 2:
		if n := len(st.Tally.Votes); n > 0 {
			st.Tally.Votes[i%n].Count += d
		}
	case 3:
		if n := len(st.Tally.Votes); n > 0 {
			st.Tally.Votes[i%n].Outcome += d
		}
	case 4:
		if n := len(st.Ring); n > 0 {
			st.Ring[i%n].Step += uint64(int64(d))
		}
	case 5:
		if n := len(st.Stats); n > 0 {
			st.Stats = append(st.Stats[:i%n], st.Stats[i%n+1:]...)
		}
	case 6:
		if n := len(st.Tally.Votes); n > 0 {
			st.Tally.Votes = append(st.Tally.Votes[:i%n], st.Tally.Votes[i%n+1:]...)
		}
	case 7:
		st.Stats = append(st.Stats, OutcomeStat{Outcome: i % 8, Count: 1 + d&3, Certainty: 0.5})
	case 8:
		st.Tally.Votes = append(st.Tally.Votes, fusion.TallyVote{Outcome: i % 8, Count: 1 + d&3, Last: uint64(i)})
	}
}

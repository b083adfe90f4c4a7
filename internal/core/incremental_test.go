package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/iese-repro/tauw/internal/fusion"
)

// opaqueFuser hides a fuser's Incremental implementation behind the plain
// OutcomeFuser interface, forcing the wrapper onto the reference full-series
// path. The differential tests use it to compare both paths on identical
// inputs.
type opaqueFuser struct{ fusion.OutcomeFuser }

const taqfTol = 1e-9

// TestBufferFeaturesAtMatchesOracle drives random append/reset sequences —
// with and without ring eviction — and checks after every append that the
// running statistics agree with the ComputeFeatures oracle for every
// plausible fused outcome. The wide alphabet adds negative and extreme
// outcomes and more live classes than a fresh buffer has room for, as a
// client may send any int.
func TestBufferFeaturesAtMatchesOracle(t *testing.T) {
	alphabets := []struct {
		name     string
		outcomes []int
	}{
		{"small", []int{0, 1, 2, 3, 4}},
		{"wide", []int{math.MinInt, -1 << 40, -7, -1, 0, 3, 1 << 40, math.MaxInt}},
	}
	for _, a := range alphabets {
		// Every outcome class, present or not, is a valid fused candidate:
		// absent classes must yield ratio/certainty 0.
		candidates := append([]int{5, -5}, a.outcomes...)
		live := 0 // the most classes one window held
		for _, limit := range []int{0, 1, 2, 5, 16} {
			for seed := uint64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewPCG(seed, uint64(limit)*31+1))
				b, err := NewBuffer(limit)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 300; step++ {
					if rng.IntN(40) == 0 {
						b.Reset()
						if b.TotalSteps() != 0 || b.Len() != 0 {
							t.Fatal("reset must clear counters")
						}
						continue
					}
					b.Append(Record{Outcome: a.outcomes[rng.IntN(len(a.outcomes))], Uncertainty: rng.Float64()})
					outs := b.Outcomes()
					us := b.Uncertainties()
					live = max(live, len(b.stats))
					for _, fused := range candidates {
						want, err := ComputeFeatures(outs, us, fused)
						if err != nil {
							t.Fatal(err)
						}
						got, err := b.FeaturesAt(fused)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if math.Abs(want[i]-got[i]) > taqfTol {
								t.Fatalf("%s alphabet, limit %d seed %d step %d fused %d: taQF[%d] oracle %g, incremental %g",
									a.name, limit, seed, step, fused, i, want[i], got[i])
							}
						}
					}
				}
			}
		}
		if live < min(6, len(a.outcomes)) {
			t.Errorf("%s alphabet: windows held at most %d live classes", a.name, live)
		}
	}
}

func TestBufferTotalStepsUnderEviction(t *testing.T) {
	b, err := NewBuffer(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		evicted, wasEvicted := b.Append(Record{Outcome: i})
		if i < 3 {
			if wasEvicted {
				t.Fatalf("append %d: eviction before the ring is full", i)
			}
		} else if !wasEvicted || evicted.Outcome != i-3 {
			t.Fatalf("append %d: evicted %+v (%v), want outcome %d", i, evicted, wasEvicted, i-3)
		}
	}
	if b.Len() != 3 {
		t.Errorf("buffered len = %d, want 3", b.Len())
	}
	if b.TotalSteps() != 10 {
		t.Errorf("total steps = %d, want 10", b.TotalSteps())
	}
	b.Reset()
	if b.TotalSteps() != 0 {
		t.Errorf("total steps after reset = %d", b.TotalSteps())
	}
}

func TestBufferNaNUncertaintyClamped(t *testing.T) {
	b, err := NewBuffer(2)
	if err != nil {
		t.Fatal(err)
	}
	b.Append(Record{Outcome: 1, Uncertainty: math.NaN()})
	if us := b.Uncertainties(); us[0] != 1 {
		t.Fatalf("NaN uncertainty stored as %g, want clamp to 1", us[0])
	}
	// The running certainty sum must stay finite so eviction can recover.
	b.Append(Record{Outcome: 1, Uncertainty: 0.25})
	b.Append(Record{Outcome: 1, Uncertainty: 0.5}) // evicts the NaN record
	taqf, err := b.FeaturesAt(1)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 - 0.25) + (1 - 0.5)
	if math.Abs(taqf[Certainty-1]-want) > taqfTol {
		t.Errorf("certainty after evicting NaN record = %g, want %g", taqf[Certainty-1], want)
	}
}

// TestWrapperFastPathMatchesReference is the end-to-end differential test:
// a wrapper on the incremental fast path and one forced onto the reference
// path consume identical streams — across buffer limits, feature subsets,
// and series resets — and must emit identical results at every step.
func TestWrapperFastPathMatchesReference(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	for _, limit := range []int{0, 1, 3, 8} {
		for _, feats := range [][]Feature{nil, {Ratio, Certainty}, {Length, Size}} {
			fast, err := NewWrapper(st.base, taqim, Config{BufferLimit: limit, Features: feats})
			if err != nil {
				t.Fatal(err)
			}
			if fast.tally == nil {
				t.Fatal("default fuser must take the incremental fast path")
			}
			ref, err := NewWrapper(st.base, taqim, Config{
				BufferLimit: limit,
				Features:    feats,
				Fuser:       opaqueFuser{fusion.MajorityVote{}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if ref.tally != nil {
				t.Fatal("opaque fuser must force the reference path")
			}
			rng := rand.New(rand.NewPCG(uint64(limit)+77, 5))
			for step := 0; step < 400; step++ {
				if rng.IntN(35) == 0 {
					fast.NewSeries()
					ref.NewSeries()
				}
				outcome := rng.IntN(5)
				quality := []float64{rng.Float64(), rng.Float64()}
				fr, ferr := fast.Step(outcome, quality)
				rr, rerr := ref.Step(outcome, quality)
				if (ferr == nil) != (rerr == nil) {
					t.Fatalf("limit %d step %d: errors diverge: %v vs %v", limit, step, ferr, rerr)
				}
				if ferr != nil {
					continue
				}
				if fr.Fused != rr.Fused {
					t.Fatalf("limit %d step %d: fused %d vs %d", limit, step, fr.Fused, rr.Fused)
				}
				if fr.Uncertainty != rr.Uncertainty {
					t.Fatalf("limit %d step %d: uncertainty %g vs %g", limit, step, fr.Uncertainty, rr.Uncertainty)
				}
				if fr.SeriesLen != rr.SeriesLen || fr.TotalSteps != rr.TotalSteps {
					t.Fatalf("limit %d step %d: len %d/%d vs %d/%d",
						limit, step, fr.SeriesLen, fr.TotalSteps, rr.SeriesLen, rr.TotalSteps)
				}
				if fr.Stateless != rr.Stateless {
					t.Fatalf("limit %d step %d: stateless estimates diverge", limit, step)
				}
				for i := range fr.TAQF {
					if math.Abs(fr.TAQF[i]-rr.TAQF[i]) > taqfTol {
						t.Fatalf("limit %d step %d: taQF[%d] %g vs %g",
							limit, step, i, fr.TAQF[i], rr.TAQF[i])
					}
				}
			}
		}
	}
}

// TestWrapperTotalStepsSemantics pins the taQF length semantics under
// eviction: SeriesLen (and the length factor) saturate at the buffer limit,
// while TotalSteps keeps counting.
func TestWrapperTotalStepsSemantics(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	w, err := NewWrapper(st.base, taqim, Config{BufferLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := w.Step(1, []float64{0.2, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		wantLen := min(i+1, 4)
		if res.SeriesLen != wantLen {
			t.Errorf("step %d: SeriesLen %d, want %d", i, res.SeriesLen, wantLen)
		}
		if res.TotalSteps != i+1 {
			t.Errorf("step %d: TotalSteps %d, want %d", i, res.TotalSteps, i+1)
		}
		if res.TAQF[Length-1] != float64(wantLen) {
			t.Errorf("step %d: length factor %g must follow the buffered window (%d)",
				i, res.TAQF[Length-1], wantLen)
		}
	}
	if w.TotalSteps() != 10 || w.SeriesLen() != 4 {
		t.Errorf("accessors: total %d len %d", w.TotalSteps(), w.SeriesLen())
	}
	w.NewSeries()
	if w.TotalSteps() != 0 {
		t.Errorf("NewSeries must reset TotalSteps, got %d", w.TotalSteps())
	}
}

// TestWrapperFastPathLifecycleWithEviction runs the fast path through many
// series with a tiny ring and sanity-checks invariants the differential test
// might mask: ratio in (0,1], size bounded by the window, certainty bounded
// by the agreeing count.
func TestWrapperFastPathLifecycleWithEviction(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	w, err := NewWrapper(st.base, taqim, Config{BufferLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 12))
	for series := 0; series < 20; series++ {
		w.NewSeries()
		for step := 0; step < 30; step++ {
			res, err := w.Step(rng.IntN(3), []float64{rng.Float64(), rng.Float64()})
			if err != nil {
				t.Fatal(err)
			}
			n := float64(res.SeriesLen)
			if r := res.TAQF[Ratio-1]; r <= 0 || r > 1 {
				t.Fatalf("ratio %g outside (0,1]: the fused outcome always has a vote", r)
			}
			if s := res.TAQF[Size-1]; s < 1 || s > n {
				t.Fatalf("size %g outside [1,%g]", s, n)
			}
			if c := res.TAQF[Certainty-1]; c < -taqfTol || c > n+taqfTol {
				t.Fatalf("certainty %g outside [0,%g]", c, n)
			}
		}
	}
}

package main

import (
	"fmt"
	"math"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/eval"
	"github.com/iese-repro/tauw/internal/fusion"
	"github.com/iese-repro/tauw/internal/simplex"
)

// encounter is one tracked sign: the DDM outcome and the stateless quality
// vector (nine deficit channels, then pixel size) of each frame, and the
// sign's true class, reported once as feedback after the last frame.
type encounter struct {
	truth    int
	outcomes []int
	quality  [][]float64
}

func (e *encounter) frames() int { return len(e.outcomes) }

// expected is the reference answer to one step: what tauserve must serve
// for frame j of an encounter stepped from a freshly opened series.
type expected struct {
	fused      int
	u          float64
	statelessU float64
	leaf       int
	level      string
	accepted   bool
}

// served is one step response as either transport decodes it.
type served struct {
	fused        int
	u            float64
	statelessU   float64
	seriesLen    int
	totalSteps   int
	modelVersion uint64
	level        string
	accepted     bool
}

// servedFeedback is one feedback response as either transport decodes it.
type servedFeedback struct {
	step         int
	correct      bool
	fused        int
	u            float64
	leaf         int
	modelVersion uint64
}

// servingModelVersion is the taQIM revision a freshly started tauserve
// serves; nothing in these workloads recalibrates, so it never changes.
const servingModelVersion = 1

// opaqueFuser hides the majority vote's fusion.Incremental implementation
// behind the plain OutcomeFuser interface, so a core.Wrapper built with it
// takes the reference path: core.ComputeFeatures plus Fuse over the whole
// buffered series on every step, never the O(1) running tallies tauserve
// serves from.
type opaqueFuser struct{ fusion.OutcomeFuser }

// oracle holds the workload inputs and their reference answers. Every
// series a workload opens replays one encounter from its first frame, so the
// reference of a live series is its encounter's replay through a reference
// wrapper; the replay runs once per encounter, before any server starts.
type oracle struct {
	enc []encounter
	exp [][]expected
}

// buildOracle takes the study's test encounters as the workload inputs and
// replays each through a reference-path core.Wrapper and the default
// simplex policy.
func buildOracle(st *eval.Study) (*oracle, error) {
	if len(st.TestSeries) == 0 {
		return nil, fmt.Errorf("oracle: the study has no test series")
	}
	gate, err := simplex.NewMonitor(simplex.DefaultTSRPolicy())
	if err != nil {
		return nil, err
	}
	ref, err := core.NewWrapper(st.Base, st.TAQIM, core.Config{Fuser: opaqueFuser{fusion.MajorityVote{}}})
	if err != nil {
		return nil, err
	}
	o := &oracle{
		enc: make([]encounter, len(st.TestSeries)),
		exp: make([][]expected, len(st.TestSeries)),
	}
	for i, s := range st.TestSeries {
		if len(s.Outcomes) == 0 || len(s.Outcomes) != len(s.Quality) {
			return nil, fmt.Errorf("oracle: test series %d has %d outcomes and %d quality rows",
				i, len(s.Outcomes), len(s.Quality))
		}
		o.enc[i] = encounter{truth: s.Truth, outcomes: s.Outcomes, quality: s.Quality}
		o.exp[i] = make([]expected, len(s.Outcomes))
		ref.NewSeries()
		for j := range s.Outcomes {
			res, err := ref.Step(s.Outcomes[j], s.Quality[j])
			if err != nil {
				return nil, fmt.Errorf("oracle: series %d frame %d: %w", i, j, err)
			}
			d, err := gate.Gate(res.Fused, res.Uncertainty)
			if err != nil {
				return nil, err
			}
			o.exp[i][j] = expected{
				fused:      res.Fused,
				u:          res.Uncertainty,
				statelessU: res.Stateless.Uncertainty,
				leaf:       res.TAQIMLeaf,
				level:      d.Level.Name,
				accepted:   d.Accepted,
			}
		}
	}
	return o, nil
}

// checkStep compares a served step of frame j of encounter e against the
// reference: outcome and both uncertainties bit for bit, the window and
// step counters, the model revision, and the countermeasure.
func (o *oracle) checkStep(e, j int, got *served) error {
	want := &o.exp[e][j]
	switch {
	case got.fused != want.fused:
		return fmt.Errorf("encounter %d frame %d: fused %d, want %d", e, j, got.fused, want.fused)
	case math.Float64bits(got.u) != math.Float64bits(want.u):
		return fmt.Errorf("encounter %d frame %d: uncertainty %v, want %v", e, j, got.u, want.u)
	case math.Float64bits(got.statelessU) != math.Float64bits(want.statelessU):
		return fmt.Errorf("encounter %d frame %d: stateless uncertainty %v, want %v",
			e, j, got.statelessU, want.statelessU)
	case got.seriesLen != j+1 || got.totalSteps != j+1:
		return fmt.Errorf("encounter %d frame %d: series_len %d total_steps %d, want %d",
			e, j, got.seriesLen, got.totalSteps, j+1)
	case got.modelVersion != servingModelVersion:
		return fmt.Errorf("encounter %d frame %d: model_version %d, want %d",
			e, j, got.modelVersion, servingModelVersion)
	case got.level != want.level || got.accepted != want.accepted:
		return fmt.Errorf("encounter %d frame %d: countermeasure %q accepted=%v, want %q accepted=%v",
			e, j, got.level, got.accepted, want.level, want.accepted)
	}
	return nil
}

// checkFeedback compares the join answer to an encounter's ground-truth
// report (sent after its last frame) against the reference provenance.
func (o *oracle) checkFeedback(e int, got *servedFeedback) error {
	enc := &o.enc[e]
	last := enc.frames() - 1
	want := &o.exp[e][last]
	switch {
	case got.step != enc.frames():
		return fmt.Errorf("encounter %d feedback: step %d, want %d", e, got.step, enc.frames())
	case got.fused != want.fused || got.correct != (want.fused == enc.truth):
		return fmt.Errorf("encounter %d feedback: fused %d correct=%v, want %d correct=%v",
			e, got.fused, got.correct, want.fused, want.fused == enc.truth)
	case math.Float64bits(got.u) != math.Float64bits(want.u):
		return fmt.Errorf("encounter %d feedback: uncertainty %v, want %v", e, got.u, want.u)
	case got.leaf != want.leaf:
		return fmt.Errorf("encounter %d feedback: taqim_leaf %d, want %d", e, got.leaf, want.leaf)
	case got.modelVersion != servingModelVersion:
		return fmt.Errorf("encounter %d feedback: model_version %d, want %d",
			e, got.modelVersion, servingModelVersion)
	}
	return nil
}

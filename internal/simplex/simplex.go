// Package simplex implements the runtime verification-and-validation
// substrate that motivates dependable uncertainty estimates in the paper:
// a simplex-style monitor that compares each (fused) outcome's uncertainty
// against a required confidence level and escalates through configured
// countermeasures — accept, degrade, fall back to a safe channel, or
// disengage — instead of acting on an undependable perception result.
package simplex

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// Countermeasure is one escalation level of the monitor.
type Countermeasure struct {
	// Name labels the level (e.g. "accept", "reduce-speed", "handover").
	Name string
	// MaxUncertainty is the largest uncertainty this level tolerates.
	MaxUncertainty float64
}

// Policy is an ordered escalation ladder. Levels are sorted by
// MaxUncertainty; the first level whose bound covers the observed
// uncertainty wins. An uncertainty above every bound triggers the terminal
// countermeasure.
type Policy struct {
	// Levels are the graded countermeasures.
	Levels []Countermeasure
	// Terminal is applied when no level tolerates the uncertainty.
	Terminal Countermeasure
}

// DefaultTSRPolicy mirrors a traffic-sign-recognition deployment: act on
// the outcome below 1% uncertainty, treat it as advisory below 10%, ignore
// the reading below 50%, and hand control back above that.
func DefaultTSRPolicy() Policy {
	return Policy{
		Levels: []Countermeasure{
			{Name: "accept", MaxUncertainty: 0.01},
			{Name: "advisory-only", MaxUncertainty: 0.10},
			{Name: "ignore-reading", MaxUncertainty: 0.50},
		},
		Terminal: Countermeasure{Name: "handover", MaxUncertainty: 1},
	}
}

// Validate checks the policy.
func (p Policy) Validate() error {
	if len(p.Levels) == 0 {
		return errors.New("simplex: policy needs at least one level")
	}
	for i, l := range p.Levels {
		if l.MaxUncertainty < 0 || l.MaxUncertainty > 1 {
			return fmt.Errorf("simplex: level %q bound %g outside [0,1]", l.Name, l.MaxUncertainty)
		}
		if l.Name == "" {
			return fmt.Errorf("simplex: level %d has no name", i)
		}
	}
	if p.Terminal.Name == "" {
		return errors.New("simplex: terminal countermeasure needs a name")
	}
	return nil
}

// Decision is the monitor's verdict for one outcome.
type Decision struct {
	// Outcome echoes the gated outcome.
	Outcome int
	// Uncertainty is the estimate the decision was based on.
	Uncertainty float64
	// Level is the selected countermeasure.
	Level Countermeasure
	// Index is the selected level's position in escalation order: its
	// index in the sorted Policy().Levels, or len(Policy().Levels) for the
	// terminal countermeasure.
	Index int
	// Accepted reports whether the first (least restrictive) level
	// applied.
	Accepted bool
}

// Stats counts monitor activity per level.
type Stats struct {
	// Total is the number of gated outcomes.
	Total int
	// PerLevel maps countermeasure name to activation count.
	PerLevel map[string]int
}

// Monitor gates outcomes against a policy. It is safe for concurrent use:
// a gate takes no lock, it adds one to its level's counter.
type Monitor struct {
	policy Policy
	// counts holds one activation counter per level in escalation order,
	// the terminal last; the total is their sum.
	counts []atomic.Int64
	// first maps each level to the first level of the same name, so levels
	// that share a name, which Validate allows, report one count.
	first []int
}

// NewMonitor creates a monitor; the policy's levels are sorted by bound.
func NewMonitor(policy Policy) (*Monitor, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	levels := make([]Countermeasure, len(policy.Levels))
	copy(levels, policy.Levels)
	sort.SliceStable(levels, func(a, b int) bool {
		return levels[a].MaxUncertainty < levels[b].MaxUncertainty
	})
	policy.Levels = levels
	m := &Monitor{
		policy: policy,
		counts: make([]atomic.Int64, len(levels)+1),
		first:  make([]int, len(levels)+1),
	}
	for i := range m.first {
		for j := 0; j <= i; j++ {
			if m.levelName(j) == m.levelName(i) {
				m.first[i] = j
				break
			}
		}
	}
	return m, nil
}

// levelName is the name of level i in escalation order.
func (m *Monitor) levelName(i int) string {
	if i == len(m.policy.Levels) {
		return m.policy.Terminal.Name
	}
	return m.policy.Levels[i].Name
}

// Gate selects the countermeasure for one outcome with the given dependable
// uncertainty.
func (m *Monitor) Gate(outcome int, uncertainty float64) (Decision, error) {
	if uncertainty < 0 || uncertainty > 1 {
		return Decision{}, fmt.Errorf("simplex: uncertainty %g outside [0,1]", uncertainty)
	}
	idx := len(m.policy.Levels)
	level := m.policy.Terminal
	for i, l := range m.policy.Levels {
		if uncertainty <= l.MaxUncertainty {
			idx, level = i, l
			break
		}
	}
	m.counts[idx].Add(1)
	return Decision{
		Outcome:     outcome,
		Uncertainty: uncertainty,
		Level:       level,
		Index:       idx,
		Accepted:    idx == 0,
	}, nil
}

// Snapshot returns a copy of the activity counters. PerLevel holds the
// names that have fired at least once.
func (m *Monitor) Snapshot() Stats {
	per := make(map[string]int, len(m.counts))
	total := 0
	for i := range m.counts {
		if n := int(m.counts[i].Load()); n > 0 {
			per[m.levelName(i)] += n
			total += n
		}
	}
	return Stats{Total: total, PerLevel: per}
}

// EachCount visits the per-countermeasure activation counts in escalation
// order (levels ascending by bound, then the terminal countermeasure),
// including levels that have never fired; levels sharing a name each
// report the name's count. Unlike Snapshot it allocates nothing, so a
// metrics scrape can sit directly on top of it.
func (m *Monitor) EachCount(visit func(name string, count int)) {
	for i := range m.counts {
		n := 0
		for j := range m.counts {
			if m.first[j] == m.first[i] {
				n += int(m.counts[j].Load())
			}
		}
		visit(m.levelName(i), n)
	}
}

// Policy returns the monitor's (sorted) policy.
func (m *Monitor) Policy() Policy {
	levels := make([]Countermeasure, len(m.policy.Levels))
	copy(levels, m.policy.Levels)
	return Policy{Levels: levels, Terminal: m.policy.Terminal}
}

package simplex

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPolicyValidate(t *testing.T) {
	if err := DefaultTSRPolicy().Validate(); err != nil {
		t.Errorf("default policy invalid: %v", err)
	}
	bad := []Policy{
		{},
		{Levels: []Countermeasure{{Name: "a", MaxUncertainty: 2}}, Terminal: Countermeasure{Name: "t"}},
		{Levels: []Countermeasure{{Name: "", MaxUncertainty: 0.5}}, Terminal: Countermeasure{Name: "t"}},
		{Levels: []Countermeasure{{Name: "a", MaxUncertainty: 0.5}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d must fail validation", i)
		}
	}
}

func TestMonitorEscalation(t *testing.T) {
	m, err := NewMonitor(DefaultTSRPolicy())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		u        float64
		want     string
		accepted bool
	}{
		{0.005, "accept", true},
		{0.01, "accept", true},
		{0.05, "advisory-only", false},
		{0.3, "ignore-reading", false},
		{0.9, "handover", false},
		{1, "handover", false},
		{0, "accept", true},
	}
	for _, tt := range tests {
		d, err := m.Gate(14, tt.u)
		if err != nil {
			t.Fatal(err)
		}
		if d.Level.Name != tt.want {
			t.Errorf("Gate(u=%g) = %q, want %q", tt.u, d.Level.Name, tt.want)
		}
		if d.Accepted != tt.accepted {
			t.Errorf("Gate(u=%g) accepted = %v, want %v", tt.u, d.Accepted, tt.accepted)
		}
		if d.Outcome != 14 || d.Uncertainty != tt.u {
			t.Errorf("decision must echo inputs: %+v", d)
		}
	}
	if _, err := m.Gate(1, -0.1); err == nil {
		t.Error("negative uncertainty must fail")
	}
	if _, err := m.Gate(1, 1.1); err == nil {
		t.Error("uncertainty > 1 must fail")
	}
	stats := m.Snapshot()
	if stats.Total != len(tests) {
		t.Errorf("total = %d, want %d", stats.Total, len(tests))
	}
	if stats.PerLevel["accept"] != 3 {
		t.Errorf("accept count = %d, want 3", stats.PerLevel["accept"])
	}
	if stats.PerLevel["handover"] != 2 {
		t.Errorf("handover count = %d, want 2", stats.PerLevel["handover"])
	}
}

func TestMonitorSortsLevels(t *testing.T) {
	p := Policy{
		Levels: []Countermeasure{
			{Name: "loose", MaxUncertainty: 0.5},
			{Name: "tight", MaxUncertainty: 0.01},
		},
		Terminal: Countermeasure{Name: "stop", MaxUncertainty: 1},
	}
	m, err := NewMonitor(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Gate(0, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if d.Level.Name != "tight" {
		t.Errorf("tightest applicable level must win, got %q", d.Level.Name)
	}
	got := m.Policy()
	if got.Levels[0].Name != "tight" || got.Levels[1].Name != "loose" {
		t.Error("policy accessor must expose sorted levels")
	}
}

func TestMonitorConcurrentUse(t *testing.T) {
	m, err := NewMonitor(DefaultTSRPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const goroutines, perG = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				u := float64(i%100) / 100
				if _, err := m.Gate(g, u); err != nil {
					t.Errorf("gate: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stats := m.Snapshot()
	if stats.Total != goroutines*perG {
		t.Errorf("total = %d, want %d", stats.Total, goroutines*perG)
	}
	sum := 0
	for _, v := range stats.PerLevel {
		sum += v
	}
	if sum != stats.Total {
		t.Errorf("per-level counts %d do not add up to total %d", sum, stats.Total)
	}
}

// Property: the selected level always tolerates the uncertainty (or is
// terminal), and tighter uncertainty never selects a looser level.
func TestMonitorMonotoneProperty(t *testing.T) {
	m, err := NewMonitor(DefaultTSRPolicy())
	if err != nil {
		t.Fatal(err)
	}
	levelRank := func(name string) int {
		for i, l := range m.Policy().Levels {
			if l.Name == name {
				return i
			}
		}
		return len(m.Policy().Levels)
	}
	f := func(a, b uint16) bool {
		u1 := float64(a) / 65535
		u2 := float64(b) / 65535
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		d1, err1 := m.Gate(0, u1)
		d2, err2 := m.Gate(0, u2)
		if err1 != nil || err2 != nil {
			return false
		}
		return levelRank(d1.Level.Name) <= levelRank(d2.Level.Name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMonitorCountsByName pins the counters' output for a policy whose
// levels share names, which Validate allows: Snapshot counts each name once
// over every level that carries it and lists only names that fired, and
// EachCount visits every level in escalation order with its name's count.
func TestMonitorCountsByName(t *testing.T) {
	m, err := NewMonitor(Policy{
		Levels: []Countermeasure{
			{Name: "slow", MaxUncertainty: 0.6},
			{Name: "go", MaxUncertainty: 0.1},
			{Name: "slow", MaxUncertainty: 0.3},
			{Name: "idle", MaxUncertainty: 0.8},
		},
		Terminal: Countermeasure{Name: "go", MaxUncertainty: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Escalation order: go(0.1) slow(0.3) slow(0.6) idle(0.8), terminal go.
	for _, u := range []float64{0.05, 0.2, 0.2, 0.5, 0.9, 0.95, 0.99} {
		if _, err := m.Gate(1, u); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if snap.Total != 7 || len(snap.PerLevel) != 2 || snap.PerLevel["go"] != 4 || snap.PerLevel["slow"] != 3 {
		t.Errorf("snapshot = %+v, want total 7 with go 4 and slow 3 (idle never fired)", snap)
	}
	var got []string
	m.EachCount(func(name string, count int) { got = append(got, fmt.Sprintf("%s=%d", name, count)) })
	if want := "go=4 slow=3 slow=3 idle=0 go=4"; strings.Join(got, " ") != want {
		t.Errorf("EachCount visits %q, want %q", strings.Join(got, " "), want)
	}
}

// TestDecisionIndex pins Decision.Index to the selected level's position in
// escalation order, the order of the wire hello table: the sorted levels,
// then the terminal.
func TestDecisionIndex(t *testing.T) {
	m, err := NewMonitor(DefaultTSRPolicy())
	if err != nil {
		t.Fatal(err)
	}
	policy := m.Policy()
	for _, u := range []float64{0, 0.01, 0.05, 0.3, 0.5, 0.51, 1} {
		d, err := m.Gate(0, u)
		if err != nil {
			t.Fatal(err)
		}
		want := policy.Terminal.Name
		if d.Index < len(policy.Levels) {
			want = policy.Levels[d.Index].Name
		}
		if d.Index > len(policy.Levels) || d.Level.Name != want || d.Accepted != (d.Index == 0) {
			t.Errorf("Gate(u=%g) = level %q at index %d, accepted %v", u, d.Level.Name, d.Index, d.Accepted)
		}
	}
}

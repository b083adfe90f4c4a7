package monitor

import "testing"

// TestDriftDeltaExplicitZero pins the zero-value default: an unset Delta
// takes DefaultDriftDelta, a non-zero Delta is kept, and the configuration
// reaches the detector through monitor.New.
func TestDriftDeltaExplicitZero(t *testing.T) {
	def := DriftConfig{}.withDefaults()
	if def.Delta != DefaultDriftDelta {
		t.Errorf("zero-value Delta = %g, want default %g", def.Delta, DefaultDriftDelta)
	}
	if got := (DriftConfig{Delta: 0.25}).withDefaults(); got.Delta != 0.25 {
		t.Errorf("Delta = %g, want 0.25", got.Delta)
	}
	m, err := New(Config{Drift: DriftConfig{Lambda: 1, MinSamples: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Config().Drift.Delta; got != DefaultDriftDelta {
		t.Errorf("monitor drift Delta = %g, want default %g", got, DefaultDriftDelta)
	}
	// Behavioural check: with a tiny lambda, a constant stream of identical
	// squared errors accumulates nothing (deviations from the running mean
	// are 0), but a step change alarms immediately.
	for i := 0; i < 50; i++ {
		if err := m.Observe(1, 0.1, false); err != nil { // se = 0.01 each
			t.Fatal(err)
		}
	}
	if m.DriftAlarmed() {
		t.Fatal("constant stream must not alarm")
	}
	for i := 0; i < 50; i++ {
		if err := m.Observe(1, 0.9, false); err != nil { // se jumps to 0.81
			t.Fatal(err)
		}
	}
	if !m.DriftAlarmed() {
		t.Fatal("step change must alarm")
	}
}

// TestDriftDeltaValidation: negative deltas are invalid.
func TestDriftDeltaValidation(t *testing.T) {
	bad := DriftConfig{Delta: -0.1, Lambda: 1, MinSamples: 1}
	if err := bad.validate(); err == nil {
		t.Error("negative Delta must stay invalid")
	}
}

package monitor

import (
	"fmt"
	"sync"
)

// DriftConfig tunes the Page-Hinkley calibration-drift detector. The
// detector watches the stream of per-feedback squared errors (the Brier
// contributions) for a sustained increase of its mean: a wrapper whose
// estimates stay calibrated keeps the mean near the offline Brier score,
// while a QIM drifting into miscalibration pushes it up. Page-Hinkley is
// the classic sequential test for exactly this shape (Page 1954; the
// standard drift detector in the streaming-ML literature): it accumulates
// deviations of each sample from the running mean beyond a tolerance Delta
// and alarms when the accumulated deviation climbs Lambda above its
// historical minimum.
type DriftConfig struct {
	// Delta is the per-sample tolerance: deviations below the running
	// mean + Delta do not count towards drift (0 means DefaultDriftDelta).
	Delta float64
	// Lambda is the alarm threshold on the accumulated deviation (0 means
	// DefaultDriftLambda). With squared errors in [0,1], a sustained mean
	// increase of g raises the statistic by roughly g-Delta per feedback,
	// so the alarm fires after about Lambda/(g-Delta) degraded feedbacks.
	Lambda float64
	// MinSamples is the number of feedbacks the running mean must have
	// seen before alarms can fire, so a cold start cannot alarm on its
	// first few samples (0 means DefaultDriftMinSamples).
	MinSamples int
	// Disabled turns the detector off entirely.
	Disabled bool
}

// Drift detector defaults: tolerate 0.5% mean Brier degradation, alarm
// after the equivalent of ~250 feedbacks at 10% degradation, and never
// alarm before 200 feedbacks.
const (
	DefaultDriftDelta      = 0.005
	DefaultDriftLambda     = 25.0
	DefaultDriftMinSamples = 200
)

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Delta == 0 {
		c.Delta = DefaultDriftDelta
	}
	if c.Lambda == 0 {
		c.Lambda = DefaultDriftLambda
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultDriftMinSamples
	}
	return c
}

func (c DriftConfig) validate() error {
	if c.Delta < 0 {
		return fmt.Errorf("monitor: drift delta %g must be >= 0", c.Delta)
	}
	if c.Lambda <= 0 {
		return fmt.Errorf("monitor: drift lambda %g must be > 0", c.Lambda)
	}
	if c.MinSamples < 0 {
		return fmt.Errorf("monitor: drift min samples %d must be >= 0", c.MinSamples)
	}
	return nil
}

// DriftStatus is the drift detector's observable state.
type DriftStatus struct {
	// Samples is the number of feedbacks folded in since the last alarm
	// (the detector re-arms by resetting after alarming).
	Samples int
	// Mean is the running mean squared error the deviations are measured
	// against.
	Mean float64
	// Stat is the current Page-Hinkley statistic (accumulated deviation
	// above its minimum); the detector alarms when Stat > Lambda.
	Stat float64
	// Alarms counts alarms raised since construction; Active is true from
	// an alarm until ResetDriftAlarm.
	Alarms int
	Active bool
}

// pageHinkley is the detector itself. It is sequential by nature (the
// statistic depends on sample order), so it runs under one mutex rather
// than sharded; the update is a handful of float operations, negligible
// next to the feedback join it follows.
type pageHinkley struct {
	cfg DriftConfig

	mu     sync.Mutex
	n      int
	mean   float64
	mT     float64 // accumulated deviation Σ (x - mean - delta)
	minMT  float64
	alarms int
	active bool
}

func newPageHinkley(cfg DriftConfig) pageHinkley {
	return pageHinkley{cfg: cfg}
}

// observe folds one squared error into the statistic, alarming and
// re-arming on threshold crossing. It reports whether this sample raised
// an alarm — the transition edge the flight recorder snapshots on.
func (p *pageHinkley) observe(se float64) bool {
	if p.cfg.Disabled {
		return false
	}
	raised := false
	p.mu.Lock()
	p.n++
	p.mean += (se - p.mean) / float64(p.n)
	p.mT += se - p.mean - p.cfg.Delta
	if p.mT < p.minMT {
		p.minMT = p.mT
	}
	if p.n >= p.cfg.MinSamples && p.mT-p.minMT > p.cfg.Lambda {
		p.alarms++
		p.active = true
		raised = true
		// Re-arm: restart the statistic (and the running mean, so the
		// detector adapts to the post-drift regime instead of alarming
		// forever against the stale baseline).
		p.n = 0
		p.mean = 0
		p.mT = 0
		p.minMT = 0
	}
	p.mu.Unlock()
	return raised
}

func (p *pageHinkley) status() DriftStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return DriftStatus{
		Samples: p.n,
		Mean:    p.mean,
		Stat:    p.mT - p.minMT,
		Alarms:  p.alarms,
		Active:  p.active,
	}
}

func (p *pageHinkley) alarmed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

func (p *pageHinkley) resetAlarm() {
	p.mu.Lock()
	p.active = false
	p.mu.Unlock()
}

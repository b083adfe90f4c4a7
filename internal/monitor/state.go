// state.go is the snapshot/restore surface of the runtime monitor: the
// reliability accumulators, the drift detector, and the per-leaf feedback
// evidence all summarise ground truth that cannot be replayed after a
// restart, so the durability layer checkpoints them alongside the wrapper
// pool's series state. Exactness matters here too — the windowed Brier sum
// is a *running* float sum (adds and evictions in arrival order), so the
// export carries the sums verbatim instead of recomputing them from the
// window, and a restored monitor aggregates bit-identically to the one
// that crashed.
//
// Restore requires the same accumulator geometry (shards, window, bins,
// leaf count) the snapshot was taken under: the per-shard windows cannot
// be re-sharded after the per-track attribution is gone. tauserve serves
// the package defaults, so its state dirs always share one geometry; a
// state written under another window or bin count is refused at start-up.
package monitor

import "fmt"

// BinState is one exported reliability bin of one shard.
type BinState struct {
	Count, Errors uint64
	USum          float64
}

// ShardState is the exported state of one reliability-accumulator shard.
type ShardState struct {
	N, Correct uint64
	BrierSum   float64
	Bins       []BinState
	// Window holds the sliding window of per-feedback squared errors in
	// arrival order; WinSum is the running sum over it, carried verbatim
	// (recomputing it would change its floating-point history).
	Window []float64
	WinSum float64
}

// DriftState is the exported state of the Page-Hinkley detector.
type DriftState struct {
	N      int
	Mean   float64
	MT     float64
	MinMT  float64
	Alarms int
	Active bool
}

// MonitorState is the complete restorable state of a Monitor. Reusable
// across exports: every slice is appended into at its existing capacity.
type MonitorState struct {
	// Shards, Window, and Bins pin the geometry the snapshot was taken
	// under; RestoreState refuses a mismatch.
	Shards, Window, Bins int
	ShardStates          []ShardState
	Drift                DriftState
}

// ExportState captures the monitor's state into st (deep copy, reusing
// st's capacity).
func (m *Monitor) ExportState(st *MonitorState) {
	st.Shards = len(m.shards)
	st.Window = m.cfg.Window
	st.Bins = m.cfg.Bins
	if cap(st.ShardStates) < len(m.shards) {
		st.ShardStates = make([]ShardState, len(m.shards))
	}
	st.ShardStates = st.ShardStates[:len(m.shards)]
	for i := range m.shards {
		sh := &m.shards[i]
		out := &st.ShardStates[i]
		sh.mu.Lock()
		out.N = sh.n
		out.Correct = sh.correct
		out.BrierSum = sh.brierSum
		out.WinSum = sh.winSum
		out.Bins = out.Bins[:0]
		for b := range sh.bins {
			out.Bins = append(out.Bins, BinState{
				Count:  sh.bins[b].count,
				Errors: sh.bins[b].errors,
				USum:   sh.bins[b].uSum,
			})
		}
		out.Window = out.Window[:0]
		for j := 0; j < sh.winLen; j++ {
			out.Window = append(out.Window, sh.win[(sh.winStart+j)%cap(sh.win)])
		}
		sh.mu.Unlock()
	}
	m.drift.exportState(&st.Drift)
}

// RestoreState replaces the monitor's state with st. The monitor must have
// been built with the same shard count, window, and bin count the snapshot
// was taken under.
func (m *Monitor) RestoreState(st *MonitorState) error {
	if st.Shards != len(m.shards) {
		return fmt.Errorf("monitor: restore needs %d shards, monitor has %d (shard count must not change across a restore)",
			st.Shards, len(m.shards))
	}
	if st.Window != m.cfg.Window {
		return fmt.Errorf("monitor: restore needs window %d, monitor has %d (window must not change across a restore)",
			st.Window, m.cfg.Window)
	}
	if st.Bins != m.cfg.Bins {
		return fmt.Errorf("monitor: restore needs %d bins, monitor has %d (bin count must not change across a restore)",
			st.Bins, m.cfg.Bins)
	}
	if len(st.ShardStates) != len(m.shards) {
		return fmt.Errorf("monitor: restore carries %d shard states for %d shards", len(st.ShardStates), len(m.shards))
	}
	for i := range st.ShardStates {
		in := &st.ShardStates[i]
		if len(in.Bins) != m.cfg.Bins {
			return fmt.Errorf("monitor: shard %d restore carries %d bins, want %d", i, len(in.Bins), m.cfg.Bins)
		}
		if len(in.Window) > m.cfg.Window {
			return fmt.Errorf("monitor: shard %d restore carries %d window samples, window is %d", i, len(in.Window), m.cfg.Window)
		}
	}
	for i := range m.shards {
		sh := &m.shards[i]
		in := &st.ShardStates[i]
		sh.mu.Lock()
		sh.n = in.N
		sh.correct = in.Correct
		sh.brierSum = in.BrierSum
		for b := range sh.bins {
			sh.bins[b] = binStat{count: in.Bins[b].Count, errors: in.Bins[b].Errors, uSum: in.Bins[b].USum}
		}
		sh.win = append(sh.win[:0], in.Window...)
		sh.winStart = 0
		sh.winLen = len(in.Window)
		sh.winSum = in.WinSum
		sh.mu.Unlock()
	}
	m.drift.restoreState(&st.Drift)
	return nil
}

// exportState captures the detector under its lock.
func (p *pageHinkley) exportState(st *DriftState) {
	p.mu.Lock()
	st.N = p.n
	st.Mean = p.mean
	st.MT = p.mT
	st.MinMT = p.minMT
	st.Alarms = p.alarms
	st.Active = p.active
	p.mu.Unlock()
}

// restoreState replaces the detector's state.
func (p *pageHinkley) restoreState(st *DriftState) {
	p.mu.Lock()
	p.n = st.N
	p.mean = st.Mean
	p.mT = st.MT
	p.minMT = st.MinMT
	p.alarms = st.Alarms
	p.active = st.Active
	p.mu.Unlock()
}

// LeafState is the exported per-leaf feedback evidence of a LeafStats.
type LeafState struct {
	Leaves       []LeafCounts
	Unattributed LeafCounts
}

// ExportState aggregates the leaf accumulators into st (reusing its
// capacity). The aggregate is shard-count independent — restore lands in
// one shard and every reader sums across shards.
func (s *LeafStats) ExportState(st *LeafState) {
	st.Leaves = s.Totals(st.Leaves[:0])
	st.Unattributed = s.Unattributed()
}

// RestoreState folds exported evidence into the accumulators (shard 0;
// placement is unobservable). Additive, so evidence observed before the
// restore survives. The leaf count must match the serving model.
func (s *LeafStats) RestoreState(st *LeafState) error {
	if len(st.Leaves) != s.nLeaves {
		return fmt.Errorf("monitor: restore carries %d leaves, accumulators sized for %d (model shape must not change across a restore)",
			len(st.Leaves), s.nLeaves)
	}
	sh := &s.shards[0]
	for leaf, c := range st.Leaves {
		if c.Count > 0 {
			sh.counters[2*leaf].Add(c.Count)
		}
		if c.Events > 0 {
			sh.counters[2*leaf+1].Add(c.Events)
		}
	}
	if st.Unattributed.Count > 0 {
		sh.counters[2*s.nLeaves].Add(st.Unattributed.Count)
	}
	if st.Unattributed.Events > 0 {
		sh.counters[2*s.nLeaves+1].Add(st.Unattributed.Events)
	}
	return nil
}

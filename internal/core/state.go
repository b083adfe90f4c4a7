// state.go is the snapshot/restore surface of the wrapper pool — the core
// half of the durability layer (internal/store owns the encoding and the
// backends; this file owns what the state *is*). A track's restorable state
// is small and flat: the buffered records (outcome and uncertainty per
// step, what the taQF read), the running per-outcome statistics, the
// incremental fusion tally, and the provenance ring. The
// contract is exactness: restoring a SeriesState into a fresh pool and
// stepping must be bit-identical to stepping the uninterrupted wrapper,
// across ring eviction, feedback joins, and model hot-swaps
// (TestCheckpointRestoreDifferential pins this).
//
// The hot step path pays one plain bool store under a lock it already
// holds (pooledWrapper.dirty); everything else — dirty collection, close
// journaling, snapshot assembly — runs on the background flusher's clock,
// off the serving path.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/iese-repro/tauw/internal/fusion"
	"github.com/iese-repro/tauw/internal/uw"
)

// OutcomeStat is the exported running state of one outcome class in a
// track's buffer: the buffered vote count and certainty sum behind the
// O(1) taQF derivation.
type OutcomeStat struct {
	Outcome   int
	Count     int
	Certainty float64
}

// ProvEntry is one live slot of a track's provenance ring, exported so
// ground-truth feedback for pre-restart steps still joins (and duplicate
// feedback is still rejected) after a restore.
type ProvEntry struct {
	// Step is the 1-based TotalSteps of the judged estimate (never 0; empty
	// slots are not exported).
	Step         uint64
	Uncertainty  float64
	ModelVersion uint64
	Fused        int32
	Leaf         int32
	Taken        bool
}

// SeriesState is the complete restorable state of one open track. A single
// value can be reused across snapshots — every slice field is appended into
// at its existing capacity, so a steady-state flush loop allocates nothing
// once the high-water marks are reached.
type SeriesState struct {
	// Track is the pool track id; negative ids are minted series (series
	// "s<n>" is track -n, see parseSeries).
	Track int
	// Total is the number of steps since the series began, including
	// records a full ring buffer has evicted.
	Total int
	// Records holds the buffered window in time order: each step's outcome
	// and uncertainty, everything the taQF and the tally read.
	Records []Record
	// Stats holds the running per-outcome statistics, sorted by outcome so
	// two snapshots of the same buffer are identical.
	Stats []OutcomeStat
	// HasTally reports whether Tally carries exported fusion state; when
	// false (fuser without an exact-state tally), restore replays the
	// buffered window instead.
	HasTally bool
	Tally    fusion.TallyState
	// Ring holds the live provenance-ring slots in ring order.
	Ring []ProvEntry
}

// snapshotInto captures the track's state. Called with pw.mu held; the
// capture is a deep copy, so the caller may encode st after releasing the
// lock.
func (pw *pooledWrapper) snapshotInto(trackID int, st *SeriesState) {
	w := &pw.w
	st.Track = trackID
	st.Total = w.buf.total

	st.Records = st.Records[:0]
	w.buf.each(func(r Record) { st.Records = append(st.Records, r) })

	st.Stats = st.Stats[:0]
	for _, s := range w.buf.stats {
		st.Stats = append(st.Stats, OutcomeStat{Outcome: s.outcome, Count: s.count, Certainty: s.certainty})
	}
	sortStats(st.Stats)

	st.HasTally = false
	st.Tally.Clock = 0
	st.Tally.Votes = st.Tally.Votes[:0]
	if stl, ok := w.tally.(fusion.StatefulTally); ok {
		stl.ExportState(&st.Tally)
		st.HasTally = true
	}

	st.Ring = st.Ring[:0]
	for i := range pw.ring {
		s := &pw.ring[i]
		if s.step == 0 {
			continue
		}
		st.Ring = append(st.Ring, ProvEntry{
			Step:         s.step,
			Uncertainty:  s.uncertainty,
			ModelVersion: s.modelVer,
			Fused:        s.fused,
			Leaf:         s.taqimLeaf,
			Taken:        s.taken,
		})
	}
}

// sortStats orders entries by outcome (insertion sort over the handful of
// distinct classes one window holds, mirroring fusion.sortVotes).
func sortStats(stats []OutcomeStat) {
	for i := 1; i < len(stats); i++ {
		s := stats[i]
		j := i - 1
		for j >= 0 && stats[j].Outcome > s.Outcome {
			stats[j+1] = stats[j]
			j--
		}
		stats[j+1] = s
	}
}

// SnapshotTrack captures one open track's state into st (deep copy,
// reusing st's capacity). It does not clear the track's dirty mark — use
// CollectDirty/ForEachTrack for the flusher's clearing capture.
func (p *WrapperPool) SnapshotTrack(trackID int, st *SeriesState) error {
	sh := p.trackShardFor(trackID)
	sh.mu.Lock()
	pw, ok := sh.tracks[trackID]
	sh.mu.Unlock()
	if !ok {
		return unknownTrack(trackID)
	}
	pw.mu.Lock()
	pw.snapshotInto(trackID, st)
	pw.mu.Unlock()
	return nil
}

// CollectDirty snapshots every track stepped (or opened, reset, or fed
// back to) since its last capture, clearing the dirty mark as each is
// captured, and passes each snapshot to visit. st is the reused scratch
// capture — visit must finish with it before returning. If visit fails the
// track is re-marked dirty and the sweep stops, so no mutation is lost to
// a failed flush. Returns the number of tracks visited.
//
// A sweep skips closed tracks and marks each track it captures as logged,
// and Close journals only logged tracks (see Close). The durability layer
// calls this on the flush clock and must write the closes it drains
// (DrainClosed) *after* the same sweep's snapshots: a track closed
// mid-sweep may still be captured, and the ordering lands its close record
// behind its series record, so recovery converges on closed rather than
// resurrected. A drained close stays the caller's to write until the log
// holds it: a full checkpoint drains before its sweep and discards those
// closes only once the store has accepted the blob.
func (p *WrapperPool) CollectDirty(st *SeriesState, visit func(*SeriesState) error) (int, error) {
	return p.sweepTracks(st, visit, true)
}

// ForEachTrack snapshots every open track regardless of dirtiness — the
// full-checkpoint capture — clearing dirty marks along the way (the
// checkpoint supersedes any pending flush). Same visit contract as
// CollectDirty.
func (p *WrapperPool) ForEachTrack(st *SeriesState, visit func(*SeriesState) error) (int, error) {
	return p.sweepTracks(st, visit, false)
}

func (p *WrapperPool) sweepTracks(st *SeriesState, visit func(*SeriesState) error, onlyDirty bool) (int, error) {
	visited := 0
	var pws []*pooledWrapper
	var ids []int
	for si := range p.shards {
		sh := &p.shards[si]
		// Collect under the shard lock, snapshot after releasing it: holding
		// sh.mu while taking pw.mu would deadlock against open()'s reset
		// branch, and holding it across the copy would stall the shard's
		// serving path for the whole sweep.
		sh.mu.Lock()
		pws, ids = pws[:0], ids[:0]
		for id, pw := range sh.tracks {
			pws = append(pws, pw)
			ids = append(ids, id)
		}
		sh.mu.Unlock()
		for i, pw := range pws {
			pw.mu.Lock()
			if pw.closed || onlyDirty && !pw.dirty {
				pw.mu.Unlock()
				continue
			}
			pw.dirty, pw.logged = false, true
			pw.snapshotInto(ids[i], st)
			pw.mu.Unlock()
			if err := visit(st); err != nil {
				pw.mu.Lock()
				pw.dirty = true
				pw.mu.Unlock()
				return visited, err
			}
			visited++
		}
	}
	return visited, nil
}

// RestoreTrack rebuilds one track from a snapshot, replacing any track
// already open under the same id. The restored wrapper is built from the
// pool's own base/taQIM/config — the snapshot carries series state, not
// model state (InstallModel restores a hot-swapped model). The track comes
// back clean (not dirty): its state is, by definition, what the store
// already holds.
func (p *WrapperPool) RestoreTrack(st *SeriesState) error {
	limit := p.cfg.BufferLimit
	if limit > 0 && len(st.Records) > limit {
		return fmt.Errorf("core: restore track %d: %d buffered records exceed buffer limit %d",
			st.Track, len(st.Records), limit)
	}
	if st.Total < len(st.Records) {
		return fmt.Errorf("core: restore track %d: total steps %d < %d buffered records",
			st.Track, st.Total, len(st.Records))
	}
	// A ring sized by Total has no slot reserved for a later step: such an
	// entry would evict a live step's slot instead of landing in an unused
	// one, and no live ring can hold it.
	for _, e := range st.Ring {
		if e.Step > uint64(st.Total) {
			return fmt.Errorf("core: restore track %d: provenance step %d > total steps %d",
				st.Track, e.Step, st.Total)
		}
	}
	// Stats in strictly ascending outcome order, as snapshotInto writes
	// them: one pass proves every count positive and every outcome distinct,
	// however many entries a decoded record carries.
	for i, s := range st.Stats {
		if s.Count <= 0 {
			return fmt.Errorf("core: restore track %d: outcome %d count %d must be positive",
				st.Track, s.Outcome, s.Count)
		}
		if i == 0 {
			continue
		}
		if prev := st.Stats[i-1].Outcome; s.Outcome == prev {
			return fmt.Errorf("core: restore track %d: duplicate stats for outcome %d", st.Track, s.Outcome)
		} else if s.Outcome < prev {
			return fmt.Errorf("core: restore track %d: stats for outcome %d follow outcome %d, want ascending outcomes",
				st.Track, s.Outcome, prev)
		}
	}
	pw := &pooledWrapper{logged: true}
	w := &pw.w
	w.init(p.base, p.taqim, p.cfg)

	// Buffer: records in time order with start=0 is a canonical ring layout
	// — eviction order from here on matches the uninterrupted original.
	b := &w.buf
	b.records = append(b.records, st.Records...)
	b.start = 0
	b.full = limit > 0 && len(b.records) == limit
	b.total = st.Total
	// The statistics must count the records: each outcome's count is the
	// number of buffered records with that outcome, so the counts sum to
	// the window length. One pass counts the records into the (sorted)
	// entries, a second compares; the certainty sums are taken as they are,
	// since their rounding carries the series' history.
	for _, s := range st.Stats {
		b.stats = append(b.stats, outcomeStat{outcome: s.Outcome, certainty: s.Certainty})
	}
	for _, r := range st.Records {
		i, ok := slices.BinarySearchFunc(st.Stats, r.Outcome, func(s OutcomeStat, o int) int { return cmp.Compare(s.Outcome, o) })
		if !ok {
			return fmt.Errorf("core: restore track %d: buffered outcome %d has no stats", st.Track, r.Outcome)
		}
		b.stats[i].count++
	}
	for i, s := range st.Stats {
		if n := b.stats[i].count; n != s.Count {
			return fmt.Errorf("core: restore track %d: outcome %d count %d, but the buffer holds %d",
				st.Track, s.Outcome, s.Count, n)
		}
	}

	// Tally: exact state when both sides speak StatefulTally; otherwise
	// replay the buffered window — counts come out identical and relative
	// push order (what the recency tie-break compares) is preserved.
	if st.HasTally {
		if stl, ok := w.tally.(fusion.StatefulTally); ok {
			if err := stl.RestoreState(&st.Tally); err != nil {
				return fmt.Errorf("core: restore track %d: %w", st.Track, err)
			}
			// Both built-in stateful tallies count exactly the buffered
			// window. Their counts are non-negative, so bounding each by
			// what is left of the window keeps the sum from overflowing.
			left := len(st.Records)
			for _, v := range st.Tally.Votes {
				if v.Count > left {
					left = -1
					break
				}
				left -= v.Count
			}
			if left != 0 {
				return fmt.Errorf("core: restore track %d: tally votes do not sum to the %d buffered records",
					st.Track, len(st.Records))
			}
		} else if w.tally != nil {
			replayTally(w.tally, b)
		}
	} else if w.tally != nil {
		replayTally(w.tally, b)
	}

	if p.monitored && p.ringSize > 0 {
		ring := make([]provRecord, ringLen(uint64(st.Total), p.ringSize))
		for _, e := range st.Ring {
			if e.Step == 0 {
				continue
			}
			slot := &ring[(e.Step-1)%uint64(len(ring))]
			// A snapshot taken under a different -feedback-ring size can map
			// two entries to one slot; the newer step wins, like the live ring.
			if e.Step > slot.step {
				*slot = provRecord{
					step:        e.Step,
					uncertainty: e.Uncertainty,
					modelVer:    e.ModelVersion,
					fused:       e.Fused,
					taqimLeaf:   e.Leaf,
					taken:       e.Taken,
				}
			}
		}
		pw.ring = ring
	}

	sh := p.trackShardFor(st.Track)
	sh.mu.Lock()
	_, existed := sh.tracks[st.Track]
	if !existed {
		if n := p.active.Add(1); p.maxTracks > 0 && n > int64(p.maxTracks) {
			p.active.Add(-1)
			sh.mu.Unlock()
			return fmt.Errorf("%w: %d tracks open", ErrTrackBudget, p.maxTracks)
		}
	}
	sh.tracks[st.Track] = pw
	sh.mu.Unlock()

	if st.Track < 0 {
		// The restored id resolves through its track; only the counter must
		// move past it so later OpenSeries calls never mint it again.
		p.SetSeriesCounter(uint64(-int64(st.Track)))
	}
	return nil
}

// replayTally rebuilds an incremental tally from the buffered window.
func replayTally(t fusion.Tally, b *Buffer) {
	b.each(func(r Record) { t.Push(r.Outcome, r.Uncertainty) })
}

// SetSeriesCounter raises the series-id counter to at least n, so ids
// minted after a restore never collide with restored series. Lowering is
// refused silently (restores apply in arbitrary order).
func (p *WrapperPool) SetSeriesCounter(n uint64) {
	for {
		cur := p.nextSeries.Load()
		if cur >= n || p.nextSeries.CompareAndSwap(cur, n) {
			return
		}
	}
}

// SeriesCounter reports the series-id counter (the number of series ever
// minted), checkpointed so restarts keep minting unique ids.
func (p *WrapperPool) SeriesCounter() uint64 { return p.nextSeries.Load() }

// InstallModel restores a hot-swapped serving model at the given version —
// the restart counterpart of SwapModel, for replaying a checkpointed
// recalibration. The same shape guards apply; versions can only move
// forward.
func (p *WrapperPool) InstallModel(next *uw.QualityImpactModel, version uint64) error {
	if next == nil {
		return errors.New("core: installed model must not be nil")
	}
	if version == 0 {
		return errors.New("core: model version 0 is reserved for unversioned wrappers")
	}
	for {
		cur := p.model.Load()
		if err := checkShape(next, cur.qim); err != nil {
			return err
		}
		if version < cur.version {
			return fmt.Errorf("core: installed model version %d would regress serving version %d",
				version, cur.version)
		}
		if p.model.CompareAndSwap(cur, &modelState{qim: next, version: version}) {
			return nil
		}
	}
}

// PoolStats is the exported aggregate of the pool's shard-local step
// accounting — the monitored-step counters behind StepCount,
// UncertaintySum, and OutcomeCounts. Restart-restoring it keeps the
// tauw_steps_total family continuous across a crash.
type PoolStats struct {
	// UncertaintyFP is the served-uncertainty sum in the pool's fixed-point
	// units (see uncertaintyScale).
	UncertaintyFP uint64
	// Outcomes counts steps by fused outcome bucket; the last slot is the
	// overflow bucket.
	Outcomes [NumOutcomeBuckets + 1]uint64
}

// ExportStats aggregates the shard-local step counters into st.
func (p *WrapperPool) ExportStats(st *PoolStats) {
	st.UncertaintyFP = 0
	clear(st.Outcomes[:])
	for i := range p.stepStats {
		s := &p.stepStats[i]
		st.UncertaintyFP += s.uncertaintyFP.Load()
		for b := 0; b <= NumOutcomeBuckets; b++ {
			st.Outcomes[b] += s.outcomes[b].Load()
		}
	}
}

// RestoreStats folds an exported aggregate into the pool (shard 0 — every
// reader aggregates across shards, so placement is unobservable). Additive,
// so it composes with steps already served. No-op on unmonitored pools.
func (p *WrapperPool) RestoreStats(st *PoolStats) {
	if !p.monitored {
		return
	}
	s0 := &p.stepStats[0]
	if st.UncertaintyFP > 0 {
		s0.uncertaintyFP.Add(st.UncertaintyFP)
	}
	for b := 0; b <= NumOutcomeBuckets; b++ {
		if st.Outcomes[b] > 0 {
			s0.outcomes[b].Add(st.Outcomes[b])
		}
	}
}

// WithStateJournal enables the close journal the durability layer drains:
// every Close/CloseSeries of a track a sweep or a restore has captured
// appends the retired track id, so the write-ahead log can record closes and
// recovery converges on the live track set.
// Without this option closes are not journalled (nothing drains the
// journal in a pool that isn't checkpointed, and it must not grow without
// bound).
func WithStateJournal() PoolOption {
	return func(o *poolOptions) { o.journal = true }
}

// DrainClosed appends the journalled track ids closed since the last drain
// to dst and returns it, clearing the journal. The flusher must write these
// *after* the same sweep's series snapshots (see CollectDirty).
func (p *WrapperPool) DrainClosed(dst []int) []int {
	p.journalMu.Lock()
	dst = append(dst, p.journal...)
	p.journal = p.journal[:0]
	p.journalMu.Unlock()
	return dst
}

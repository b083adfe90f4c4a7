// Package core implements the paper's contribution: the timeseries-aware
// uncertainty wrapper (taUW). A timeseries buffer stores the interim results
// of the current series that the timeseries-aware quality factors read (DDM
// outcomes and per-step base-wrapper uncertainties); an information-fusion
// rule combines the outcomes into an improved fused prediction; four
// timeseries-aware quality factors (taQF) are derived from the buffer; and a
// second calibrated quality impact model (taQIM) maps the step's stateless
// factors plus the taQF to a dependable uncertainty for the fused outcome.
// Uncertainty-fusion baselines (naïve, opportune, worst-case) are provided
// behind the same runtime interface.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Record stores the interim results of one timestep, as kept in the
// timeseries buffer: the pair every taQF, the fusion tally and a restore's
// consistency checks read. A step's stateless quality factors enter only
// that step's taQIM row, so the buffer does not keep them.
type Record struct {
	// Outcome is the momentaneous DDM outcome o_j.
	Outcome int
	// Uncertainty is the stateless base-wrapper estimate u_j.
	Uncertainty float64
}

// Buffer is the timeseries buffer: it accumulates one Record (outcome and
// uncertainty) per timestep and is cleared at the onset of a new timeseries
// (when the tracker reports that predictions now relate to a different
// physical object). A Limit > 0 turns it into a ring that keeps only the
// most recent records, for unbounded streams; the study uses unlimited
// buffers since GTSRB series have at most 30 frames.
//
// Alongside the records the buffer maintains running per-outcome statistics
// (vote counts and certainty sums), updated on every append and eviction, so
// the four taQF can be derived without a full-series scan (see FeaturesAt).
// ComputeFeatures remains the reference oracle the incremental stats are
// tested against.
type Buffer struct {
	records []Record
	limit   int
	start   int // ring start when limit > 0 and full
	full    bool

	// total counts every append since the last Reset, including records a
	// full ring has since evicted; Len() is the buffered count. The taQF
	// length factor uses the buffered count — the window the other factors
	// are computed over — while total makes eviction observable.
	total int
	// stats holds one entry per outcome class in the window, in no
	// particular order. One sign encounter shows a handful of classes, so
	// a linear scan finds an entry faster than a hash map would, and every
	// step costs O(distinct outcomes in the window), the bound the fusion
	// tally's vote already has. An entry is swap-removed as soon as its
	// count reaches zero, so len(stats) is the distinct-outcome taQF and
	// floating-point eviction drift in a certainty sum dies with its class.
	stats []outcomeStat
}

// outcomeStat is the running state of one outcome class: how many buffered
// records carry it and the sum of their certainties (1 - u_j).
type outcomeStat struct {
	outcome   int
	count     int
	certainty float64
}

// Initial capacities of a buffer's storage, sized so a typical encounter
// never grows it: an unbounded buffer holds initialRecords records (as many
// as a monitored track's first provenance ring) and the statistics
// initialStats classes before either slice grows by append.
const (
	initialRecords = initialRingSlots
	initialStats   = 4
)

// NewBuffer creates a buffer; limit 0 means unbounded.
func NewBuffer(limit int) (*Buffer, error) {
	if limit < 0 {
		return nil, fmt.Errorf("core: buffer limit %d must be >= 0", limit)
	}
	b := &Buffer{}
	b.init(limit)
	return b, nil
}

// init allocates the storage of an empty buffer with a validated limit: the
// records up to the limit (initialRecords when unbounded) and room for
// initialStats outcome classes.
func (b *Buffer) init(limit int) {
	n := limit
	if n == 0 {
		n = initialRecords
	}
	*b = Buffer{
		records: make([]Record, 0, n),
		limit:   limit,
		stats:   make([]outcomeStat, 0, initialStats),
	}
}

// Append adds one timestep. When the buffer is a full ring it returns the
// record that was evicted to make room, so callers maintaining their own
// incremental state (e.g. a fusion.Tally) can retire it.
func (b *Buffer) Append(r Record) (evicted Record, wasEvicted bool) {
	// Clamp defensively; upstream validation should prevent this. NaN is
	// clamped to 1 (maximum uncertainty) so it cannot poison the running
	// certainty sums.
	if math.IsNaN(r.Uncertainty) || r.Uncertainty > 1 {
		r.Uncertainty = 1
	} else if r.Uncertainty < 0 {
		r.Uncertainty = 0
	}
	b.total++
	b.statAdd(r)
	if b.limit == 0 || len(b.records) < b.limit {
		b.records = append(b.records, r)
		return Record{}, false
	}
	evicted = b.records[b.start]
	b.records[b.start] = r
	b.start = (b.start + 1) % b.limit
	b.full = true
	b.statRemove(evicted)
	return evicted, true
}

// stat returns the index of the outcome's entry in stats, or -1.
func (b *Buffer) stat(outcome int) int {
	for i := range b.stats {
		if b.stats[i].outcome == outcome {
			return i
		}
	}
	return -1
}

func (b *Buffer) statAdd(r Record) {
	i := b.stat(r.Outcome)
	if i < 0 {
		i = len(b.stats)
		b.stats = append(b.stats, outcomeStat{outcome: r.Outcome})
	}
	s := &b.stats[i]
	s.count++
	s.certainty += 1 - r.Uncertainty
}

func (b *Buffer) statRemove(r Record) {
	i := b.stat(r.Outcome)
	if i < 0 {
		return
	}
	s := &b.stats[i]
	s.count--
	if s.count <= 0 {
		last := len(b.stats) - 1
		b.stats[i] = b.stats[last]
		b.stats = b.stats[:last]
		return
	}
	s.certainty -= 1 - r.Uncertainty
}

// Len returns the number of buffered timesteps.
func (b *Buffer) Len() int { return len(b.records) }

// TotalSteps returns the number of timesteps appended since the last Reset,
// including any a full ring has evicted. TotalSteps() == Len() while no
// eviction has happened; under a BufferLimit the difference is the number of
// evicted records.
func (b *Buffer) TotalSteps() int { return b.total }

// Reset clears the buffer at the onset of a new timeseries. Capacity is
// retained so a steady-state stream of series allocates nothing.
func (b *Buffer) Reset() {
	b.records = b.records[:0]
	b.start = 0
	b.full = false
	b.total = 0
	b.stats = b.stats[:0]
}

// FeaturesAt derives all four taQF for the given fused outcome from the
// running statistics in O(distinct outcomes) — no series scan. It is the
// incremental equivalent of ComputeFeatures(b.Outcomes(), b.Uncertainties(),
// fused).
func (b *Buffer) FeaturesAt(fused int) ([4]float64, error) {
	var out [4]float64
	n := len(b.records)
	if n == 0 {
		return out, ErrEmptySeries
	}
	var s outcomeStat
	if i := b.stat(fused); i >= 0 {
		s = b.stats[i]
	}
	out[Ratio-1] = float64(s.count) / float64(n)
	out[Length-1] = float64(n)
	out[Size-1] = float64(len(b.stats))
	out[Certainty-1] = s.certainty
	return out, nil
}

// Outcomes returns the buffered outcomes in time order (a fresh slice).
func (b *Buffer) Outcomes() []int {
	out := make([]int, 0, len(b.records))
	b.each(func(r Record) { out = append(out, r.Outcome) })
	return out
}

// Uncertainties returns the buffered per-step uncertainties in time order (a
// fresh slice).
func (b *Buffer) Uncertainties() []float64 {
	out := make([]float64, 0, len(b.records))
	b.each(func(r Record) { out = append(out, r.Uncertainty) })
	return out
}

// Records returns a copy of the buffered records in time order.
func (b *Buffer) Records() []Record {
	out := make([]Record, 0, len(b.records))
	b.each(func(r Record) { out = append(out, r) })
	return out
}

// Last returns the most recent record; ok is false for an empty buffer.
func (b *Buffer) Last() (Record, bool) {
	if len(b.records) == 0 {
		return Record{}, false
	}
	if b.limit > 0 && b.full {
		idx := (b.start + b.limit - 1) % b.limit
		return b.records[idx], true
	}
	return b.records[len(b.records)-1], true
}

// each visits records in time order, handling ring wrap-around.
func (b *Buffer) each(fn func(Record)) {
	if b.limit == 0 || !b.full {
		for _, r := range b.records {
			fn(r)
		}
		return
	}
	for i := 0; i < b.limit; i++ {
		fn(b.records[(b.start+i)%b.limit])
	}
}

// ErrEmptySeries is returned when a wrapper step is requested with no data.
var ErrEmptySeries = errors.New("core: empty timeseries")

package fusion

// Tally is the running state of an incremental information-fusion rule: the
// caller pushes one (outcome, uncertainty) pair per timestep, evicts the
// oldest pair when its timeseries buffer drops it (ring eviction), and reads
// the current fused outcome in O(distinct outcomes) — independent of the
// series length. A Tally is not safe for concurrent use; each wrapper owns
// its own.
type Tally interface {
	// Push records one new timestep.
	Push(outcome int, uncertainty float64)
	// Evict removes the oldest recorded timestep. The caller must pass the
	// pair exactly as it was pushed and must evict in push order; evicting
	// more than was pushed is ignored.
	Evict(outcome int, uncertainty float64)
	// Reset clears the tally at the onset of a new timeseries.
	Reset()
	// Fused returns the fused outcome of the pushed-minus-evicted window,
	// or ErrNoOutcomes when the window is empty.
	Fused() (int, error)
}

// Incremental is implemented by OutcomeFusers that can maintain their fusion
// decision incrementally. NewTally returns a fresh empty tally, or nil when
// the fuser's configuration has no incremental form (the caller must then
// fall back to Fuse over the full history).
type Incremental interface {
	NewTally() Tally
}

// NewTally implements Incremental for the paper's majority vote. Only the
// MostRecent tie-break has an incremental form: the lowest-uncertainty
// tie-break needs the per-class minimum uncertainty, which cannot be
// maintained in O(1) under eviction.
func (m MajorityVote) NewTally() Tally {
	if m.TieBreak == LowestUncertainty {
		return nil
	}
	return &majorityTally{votes: make([]voteStat, 0, initialVotes)}
}

// initialVotes is the number of outcome classes a fresh majority tally holds
// before its vote slice grows: one sign encounter shows a handful.
const initialVotes = 4

// majorityTally maintains per-outcome vote counts plus the logical time of
// each outcome's most recent occurrence. The fused outcome is the count
// argmax; ties go to the larger last-seen time, which is exactly the paper's
// most-recent tie-break. Eviction always removes the oldest pushed pair, so
// an outcome's last-seen time only dies when its count reaches zero.
//
// votes holds one entry per outcome class in the window, in no particular
// order: entries are found by linear scan and swap-removed when their count
// reaches zero. Fused already visits every class, so a push or an eviction
// costs no more than the vote it feeds, O(distinct outcomes in the window),
// and no hash map is needed for the handful of classes one encounter shows.
type majorityTally struct {
	votes []voteStat
	clock uint64
}

// voteStat is one outcome class' running vote state.
type voteStat struct {
	outcome int
	count   int
	last    uint64
}

// vote returns the index of the outcome's entry in votes, or -1.
func (t *majorityTally) vote(outcome int) int {
	for i := range t.votes {
		if t.votes[i].outcome == outcome {
			return i
		}
	}
	return -1
}

func (t *majorityTally) Push(outcome int, _ float64) {
	t.clock++
	i := t.vote(outcome)
	if i < 0 {
		i = len(t.votes)
		t.votes = append(t.votes, voteStat{outcome: outcome})
	}
	s := &t.votes[i]
	s.count++
	s.last = t.clock
}

func (t *majorityTally) Evict(outcome int, _ float64) {
	i := t.vote(outcome)
	if i < 0 {
		return
	}
	if t.votes[i].count <= 1 {
		last := len(t.votes) - 1
		t.votes[i] = t.votes[last]
		t.votes = t.votes[:last]
		return
	}
	t.votes[i].count--
}

func (t *majorityTally) Reset() {
	t.votes = t.votes[:0]
	t.clock = 0
}

func (t *majorityTally) Fused() (int, error) {
	if len(t.votes) == 0 {
		return 0, ErrNoOutcomes
	}
	best := t.votes[0]
	for _, s := range t.votes[1:] {
		if s.count > best.count || (s.count == best.count && s.last > best.last) {
			best = s
		}
	}
	return best.outcome, nil
}

// NewTally implements Incremental for the no-fusion baseline: the fused
// outcome is simply the most recently pushed one, which eviction (always of
// the oldest pair) can never remove while the window is non-empty.
func (Latest) NewTally() Tally { return &latestTally{} }

type latestTally struct {
	outcome int
	n       int
}

func (t *latestTally) Push(outcome int, _ float64) {
	t.outcome = outcome
	t.n++
}

func (t *latestTally) Evict(int, float64) {
	if t.n > 0 {
		t.n--
	}
}

func (t *latestTally) Reset() { t.outcome, t.n = 0, 0 }

func (t *latestTally) Fused() (int, error) {
	if t.n == 0 {
		return 0, ErrNoOutcomes
	}
	return t.outcome, nil
}

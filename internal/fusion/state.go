// state.go is the snapshot/restore surface of the incremental fusion
// tallies: a Tally owns the only fusion state that cannot be recomputed
// cheaply at restore time (per-outcome vote counts and last-seen clocks
// accumulated since the series began, including pushes a ring buffer has
// since evicted), so durable checkpointing exports it as a flat, portable
// value and re-imports it bit-identically. The exported form is
// deliberately storage-agnostic — plain ints and floats — so the binary
// encoding lives with the store codec, not here.
package fusion

import "fmt"

// TallyVote is one outcome class' exported vote state.
type TallyVote struct {
	// Outcome is the outcome class.
	Outcome int
	// Count is the pushed-minus-evicted vote count of the class.
	Count int
	// Last is the logical time of the class' most recent push (majority
	// tallies; 0 for tallies without a clock).
	Last uint64
}

// TallyState is the portable state of an incremental tally. Votes are
// sorted by outcome so two exports of the same tally are identical
// whatever order the tally holds its classes in.
type TallyState struct {
	// Clock is the tally's logical time (pushes since reset).
	Clock uint64
	// Votes holds the per-outcome vote state.
	Votes []TallyVote
}

// StatefulTally is implemented by tallies whose state can be exported and
// restored exactly. Both built-in incremental fusers (majority vote with
// the most-recent tie-break, and the no-fusion Latest baseline) implement
// it; a custom Tally that does not is restored approximately by replaying
// the buffered window instead.
type StatefulTally interface {
	Tally
	// ExportState appends the tally's state into st (reusing st.Votes'
	// capacity) so a steady-state checkpoint loop allocates nothing.
	ExportState(st *TallyState)
	// RestoreState replaces the tally's state with st, as exported by
	// ExportState on a tally of the same kind.
	RestoreState(st *TallyState) error
}

// ExportState implements StatefulTally: one vote entry per outcome class,
// sorted by outcome, plus the logical clock.
func (t *majorityTally) ExportState(st *TallyState) {
	st.Clock = t.clock
	st.Votes = st.Votes[:0]
	for _, s := range t.votes {
		st.Votes = append(st.Votes, TallyVote{Outcome: s.outcome, Count: s.count, Last: s.last})
	}
	sortVotes(st.Votes)
}

// RestoreState implements StatefulTally. The entries must be in strictly
// ascending outcome order, as ExportState writes them: one pass then proves
// every count positive and every outcome distinct, however many entries a
// decoded record carries.
func (t *majorityTally) RestoreState(st *TallyState) error {
	for i, v := range st.Votes {
		if v.Count <= 0 {
			return fmt.Errorf("fusion: vote count %d for outcome %d must be positive", v.Count, v.Outcome)
		}
		if i > 0 {
			if prev := st.Votes[i-1].Outcome; v.Outcome == prev {
				return fmt.Errorf("fusion: duplicate vote entry for outcome %d", v.Outcome)
			} else if v.Outcome < prev {
				return fmt.Errorf("fusion: vote entry for outcome %d follows outcome %d, want ascending outcomes", v.Outcome, prev)
			}
		}
	}
	t.votes = t.votes[:0]
	for _, v := range st.Votes {
		t.votes = append(t.votes, voteStat{outcome: v.Outcome, count: v.Count, last: v.Last})
	}
	t.clock = st.Clock
	return nil
}

// ExportState implements StatefulTally: the latest outcome is a single
// vote entry carrying the window length as its count.
func (t *latestTally) ExportState(st *TallyState) {
	st.Clock = 0
	st.Votes = st.Votes[:0]
	if t.n > 0 {
		st.Votes = append(st.Votes, TallyVote{Outcome: t.outcome, Count: t.n})
	}
}

// RestoreState implements StatefulTally.
func (t *latestTally) RestoreState(st *TallyState) error {
	if len(st.Votes) > 1 {
		return fmt.Errorf("fusion: latest tally state has %d vote entries, want at most 1", len(st.Votes))
	}
	t.outcome, t.n = 0, 0
	if len(st.Votes) == 1 {
		v := st.Votes[0]
		if v.Count < 0 {
			return fmt.Errorf("fusion: window length %d must be >= 0", v.Count)
		}
		t.outcome, t.n = v.Outcome, v.Count
	}
	return nil
}

// sortVotes orders entries by outcome (insertion sort: the tally holds the
// distinct outcomes of one window, a handful of classes in practice, and
// avoiding sort.Slice keeps the export allocation-free).
func sortVotes(votes []TallyVote) {
	for i := 1; i < len(votes); i++ {
		v := votes[i]
		j := i - 1
		for j >= 0 && votes[j].Outcome > v.Outcome {
			votes[j+1] = votes[j]
			j--
		}
		votes[j+1] = v
	}
}

package fusion

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestMajorityTallyRestoreStateRejects feeds RestoreState vote lists no
// ExportState writes — a decoded state record is outside input — and
// requires each to be refused without touching the tally's current state.
func TestMajorityTallyRestoreStateRejects(t *testing.T) {
	valid := func() []TallyVote {
		return []TallyVote{{Outcome: -3, Count: 1, Last: 1}, {Outcome: 4, Count: 2, Last: 3}, {Outcome: 9, Count: 1, Last: 2}}
	}
	cases := []struct {
		name   string
		mutate func([]TallyVote) []TallyVote
		want   string
	}{
		{"non-positive count", func(v []TallyVote) []TallyVote {
			v[1].Count = 0
			return v
		}, "vote count 0 for outcome 4 must be positive"},
		{"duplicate outcome", func(v []TallyVote) []TallyVote {
			return append(v[:2:2], v[1:]...)
		}, "duplicate vote entry for outcome 4"},
		{"descending outcomes", func(v []TallyVote) []TallyVote {
			v[1], v[2] = v[2], v[1]
			return v
		}, "outcome 4 follows outcome 9, want ascending outcomes"},
		{"duplicate out of place", func(v []TallyVote) []TallyVote {
			return append(v, v[0])
		}, "outcome -3 follows outcome 9, want ascending outcomes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tally := MajorityVote{}.NewTally().(StatefulTally)
			if err := tally.RestoreState(&TallyState{Clock: 3, Votes: valid()}); err != nil {
				t.Fatalf("valid state: %v", err)
			}
			err := tally.RestoreState(&TallyState{Clock: 7, Votes: c.mutate(valid())})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("restore error %v, want one saying %q", err, c.want)
			}
			var st TallyState
			tally.ExportState(&st)
			if st.Clock != 3 || !slices.Equal(st.Votes, valid()) {
				t.Errorf("a rejected restore changed the tally: %+v", st)
			}
		})
	}
}

// fuzzOutcomes is the alphabet the tally fuzzer's short push ops draw from:
// both int extremes and their neighbours, negative and large classes, and
// more than the four classes a fresh tally has room for.
var fuzzOutcomes = [32]int{
	math.MinInt, math.MinInt + 1, -1 << 40, -65537, -9, -2, -1, 0,
	1, 2, 3, 4, 5, 6, 7, 8,
	13, 14, 42, 99, 255, 256, 1 << 31, 1<<31 - 1,
	1 << 40, math.MaxInt32, math.MaxInt64 / 3, math.MaxInt - 2, math.MaxInt - 1, math.MaxInt, -100, 100,
}

// FuzzMajorityTally drives the majority tally with push, evict, reset and
// restart sequences over arbitrary int outcomes. After every operation the
// tally must fuse exactly what MajorityVote{TieBreak: MostRecent}.Fuse
// returns on the surviving window, export one entry per live class in
// strictly ascending order with the window's counts, and round-trip
// through ExportState and RestoreState into a fresh tally with the same
// fused outcome and an identical next export.
//
// Each input byte is one op (its low three bits) with an argument in its
// high five bits: 0–2 push fuzzOutcomes[arg]; 3 pushes the next eight bytes
// as a little-endian int; 4–5 evict the oldest pair (an absent outcome when
// the window is empty); 6 resets; 7 restarts, continuing on the round-trip
// copy as a restored track does.
func FuzzMajorityTally(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x10})
	f.Add([]byte{0x00, 0x00, 0x48, 0x48, 0xf8, 0xf8, 0x04, 0x07, 0x0c, 0x05, 0x06, 0xf0})
	f.Add([]byte{0x00, 0x08, 0x10, 0x18, 0x20, 0x28, 0x30, 0x38, 0x07, 0x04, 0x04, 0x10, 0x08, 0x05})
	f.Add(append([]byte{0x03, 1, 2, 3, 4, 5, 6, 7, 0x80, 0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 0xe8, 0x04, 0x07, 0x05))
	f.Add([]byte{0x28, 0x30, 0x38, 0x40, 0x48, 0x50, 0x58, 0x60, 0x28, 0x04, 0x07, 0x04, 0x04, 0x06, 0x04, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		oracle := MajorityVote{TieBreak: MostRecent}
		tally := oracle.NewTally().(StatefulTally)
		var window []int
		var st, again TallyState
		for step := 0; len(data) > 0; step++ {
			op, arg := data[0]&7, int(data[0]>>3)
			data = data[1:]
			switch op {
			case 0, 1, 2:
				tally.Push(fuzzOutcomes[arg], 0.5)
				window = append(window, fuzzOutcomes[arg])
			case 3:
				var raw [8]byte
				n := copy(raw[:], data)
				data = data[n:]
				o := int(int64(binary.LittleEndian.Uint64(raw[:])))
				tally.Push(o, 0.5)
				window = append(window, o)
			case 4, 5:
				if len(window) == 0 {
					tally.Evict(fuzzOutcomes[arg], 0.5)
					break
				}
				tally.Evict(window[0], 0.5)
				window = window[1:]
			case 6:
				tally.Reset()
				window = window[:0]
			case 7:
				tally.ExportState(&st)
				restored := oracle.NewTally().(StatefulTally)
				if err := restored.RestoreState(&st); err != nil {
					t.Fatalf("step %d: restore of an export: %v", step, err)
				}
				tally = restored
			}

			got, gotErr := tally.Fused()
			want, wantErr := oracle.Fuse(window, nil)
			switch {
			case wantErr != nil:
				if !errors.Is(gotErr, ErrNoOutcomes) {
					t.Fatalf("step %d: empty window, tally fused %d, %v", step, got, gotErr)
				}
			case gotErr != nil || got != want:
				t.Fatalf("step %d: tally fused %d, %v; Fuse %d over %v", step, got, gotErr, want, window)
			}

			tally.ExportState(&st)
			counts := make(map[int]int, len(window))
			for _, o := range window {
				counts[o]++
			}
			if len(st.Votes) != len(counts) {
				t.Fatalf("step %d: export holds %d classes, window %d", step, len(st.Votes), len(counts))
			}
			for i, v := range st.Votes {
				if i > 0 && v.Outcome <= st.Votes[i-1].Outcome {
					t.Fatalf("step %d: export not strictly ascending: %+v", step, st.Votes)
				}
				if v.Count != counts[v.Outcome] {
					t.Fatalf("step %d: export counts %d votes for %d, window %d", step, v.Count, v.Outcome, counts[v.Outcome])
				}
			}
			fresh := oracle.NewTally().(StatefulTally)
			if err := fresh.RestoreState(&st); err != nil {
				t.Fatalf("step %d: restore of an export: %v", step, err)
			}
			if g, err := fresh.Fused(); g != got || (err == nil) != (gotErr == nil) {
				t.Fatalf("step %d: restored tally fused %d, %v; live %d, %v", step, g, err, got, gotErr)
			}
			fresh.ExportState(&again)
			if again.Clock != st.Clock || !slices.Equal(again.Votes, st.Votes) {
				t.Fatalf("step %d: re-export %+v differs from export %+v", step, again, st)
			}
		}
	})
}

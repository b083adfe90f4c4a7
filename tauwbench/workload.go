package main

import (
	"fmt"
	"math/rand/v2"
)

// workload is one traffic mix. All three are closed loops: a perception
// pipeline waits for each frame's reply before it sends the next frame of
// the same sign. Every series mirrors a tracked sign: open, one step per
// frame, ground truth reported once after the last frame, close. See
// README.md for the metric → layer → workload map.
type workload struct {
	name string
	why  string
	// live is the number of series open at once, one per slot.
	live int
	// staggered starts slot i at frame i mod frames, so encounter ends
	// (feedback, close, open) spread evenly over the batches.
	staggered bool
	// durable runs tauserve with -state-dir and the default flush and
	// checkpoint policy.
	durable bool
}

var workloads = []workload{
	{
		// Loads: wire framing and dispatch, pool steps, series churn and
		// feedback joins. Skips: JSON, net/http, the batch fan-out, the
		// store. 16 callers pipeline single-step frames on one connection,
		// one live series each; one connection costs less server CPU per
		// step than two and varies less.
		name: "stream-wire",
		why:  "single-step frames, 16 pipelined callers on one binary connection: per-frame dispatch, pool steps and series churn",
		live: 16,
	},
	{
		// Loads: the same series traffic and core work as stream-wire, plus
		// net/http and the JSON codecs; the difference between the two
		// streams is the HTTP/JSON stack. One keep-alive connection and one
		// caller, stepping its 16 series round robin (a tracker stepping
		// the signs of one camera frame in turn). A second connection kept
		// four busy threads on two CPUs, and its p90 then measured their
		// contention more than the stack.
		name: "stream-http",
		why:  "the stream-wire series traffic as JSON over one keep-alive HTTP connection: the HTTP/JSON stack on top of the same core work",
		live: 16,
	},
	{
		// The only workload that runs the batch fan-out (512 items give 2
		// workers on 2 cores), the write-behind store (flushes, WAL,
		// checkpoints), and a ~120 MB working set; transport cost is
		// amortised over each batch. One 512-item frame is in flight on
		// the first connection; the open/feedback/close frames of the
		// encounters a frame ends go out on the second before the next
		// frame.
		name:      "durable-batch",
		why:       "512-item batch frames over 4096 staggered series with -state-dir: batch fan-out, write-behind store, large working set",
		live:      4096,
		staggered: true,
		durable:   true,
	},
}

// batchItems is the durable-batch frame size.
const batchItems = 512

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// slot is one live-series position. It replays its own seed-determined
// sequence of encounters, one series per encounter; the seed thus sets both
// the order of the encounters and their assignment to slots.
type slot struct {
	idx int
	rng *rand.Rand
	n   int
	// enc is the current encounter and pos its next frame; id is the
	// server's series id, empty while no series is open for the slot.
	enc int
	pos int
	id  string
	// warm is the number of leading frames of the first encounter stepped
	// before measuring (the stagger of durable-batch).
	warm int
}

// newSlots builds a workload's slots for a seed over the oracle's
// encounters.
func newSlots(w workload, seed uint64, o *oracle) []*slot {
	slots := make([]*slot, w.live)
	for i := range slots {
		s := &slot{idx: i, rng: rand.New(rand.NewPCG(seed, uint64(i))), n: len(o.enc)}
		s.next()
		if w.staggered {
			s.warm = i % o.enc[s.enc].frames()
		}
		slots[i] = s
	}
	return slots
}

// next moves the slot to its next encounter, from the first frame.
func (s *slot) next() {
	s.enc = s.rng.IntN(s.n)
	s.pos = 0
}

// stepOp is one step request of a plan: frame of encounter enc on slot's
// series; last marks the encounter's final frame, after which the series
// reports its ground truth and closes, and the slot opens its next series.
type stepOp struct {
	slot, enc, frame int32
	last             bool
}

// plan is a workload's request stream in canonical order: warm steps the
// stagger frames (frame-major, so they batch), then each round steps every
// slot once, in slot order. durable-batch sends exactly this order; the
// streams interleave their callers by timing, so for them it is the order
// the in-process layer replays use.
type plan struct {
	live   int
	warm   []stepOp
	rounds [][]stepOp
}

// newPlan generates rounds rounds of a workload's request stream.
func newPlan(w workload, seed uint64, o *oracle, rounds int) *plan {
	slots := newSlots(w, seed, o)
	p := &plan{live: w.live}
	for f := 0; ; f++ {
		n := 0
		for _, s := range slots {
			if s.warm > f {
				p.warm = append(p.warm, stepOp{slot: int32(s.idx), enc: int32(s.enc), frame: int32(f)})
				n++
			}
		}
		if n == 0 {
			break
		}
	}
	for _, s := range slots {
		s.pos = s.warm
	}
	p.rounds = make([][]stepOp, rounds)
	for r := range p.rounds {
		ops := make([]stepOp, len(slots))
		for i, s := range slots {
			last := s.pos == o.enc[s.enc].frames()-1
			ops[i] = stepOp{slot: int32(i), enc: int32(s.enc), frame: int32(s.pos), last: last}
			s.pos++
			if last {
				s.next()
			}
		}
		p.rounds[r] = ops
	}
	return p
}

// steps counts the plan's timed step requests.
func (p *plan) steps() int {
	n := 0
	for _, r := range p.rounds {
		n += len(r)
	}
	return n
}

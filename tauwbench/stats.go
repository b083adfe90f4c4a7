package main

import (
	"math"
	"slices"
)

// sample is one timed request: its completion time and its round trip, both
// in nanoseconds, the completion time relative to the run's clock origin.
type sample struct {
	at  int64
	rtt int64
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest value with at least p% of the samples at or
// below it. An empty slice gives 0.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return sorted[rank-1]
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); xs is sorted in place. An empty slice gives 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// window is one measured interval [start, end) on the run clock, in
// nanoseconds.
type window struct {
	start, end int64
}

func (w window) contains(at int64) bool { return at >= w.start && at < w.end }

func (w window) seconds() float64 { return float64(w.end-w.start) / 1e9 }

// split cuts w into consecutive sub-windows of the given width; a remainder
// shorter than half a width is folded into the last sub-window, so every
// sub-window holds a comparable amount of traffic.
func (w window) split(width int64) []window {
	var out []window
	for s := w.start; s < w.end; s += width {
		e := min(s+width, w.end)
		if e-s < width/2 && len(out) > 0 {
			out[len(out)-1].end = e
			break
		}
		out = append(out, window{s, e})
	}
	return out
}

// latency summarises the round trips completed inside one measured window.
// P50 and P90 are the medians, across one-second sub-windows, of each
// sub-window's percentile: a slow spell shorter than half the window moves
// them by at most one rank. P99 and P999 are taken over the whole window
// and printed beside the sample counts beyond them; they are not gated.
type latency struct {
	N          int
	SubWindows int
	P50, P90   float64 // µs
	P99, P999  float64 // µs
	Beyond99   int
	Beyond999  int
}

// subWindowWidth is the width of the sub-windows whose percentiles are
// medianed into latency.P50 and P90.
const subWindowWidth = int64(1e9)

// summarise computes the latency summary of the samples completed inside w.
func summarise(samples []sample, w window) latency {
	subs := w.split(subWindowWidth)
	per := make([][]int64, len(subs))
	all := make([]int64, 0, len(samples))
	for _, s := range samples {
		if !w.contains(s.at) {
			continue
		}
		all = append(all, s.rtt)
		i := min(int((s.at-w.start)/subWindowWidth), len(subs)-1)
		per[i] = append(per[i], s.rtt)
	}
	var p50s, p90s []float64
	for _, p := range per {
		if len(p) == 0 {
			continue
		}
		slices.Sort(p)
		p50s = append(p50s, float64(percentile(p, 50))/1e3)
		p90s = append(p90s, float64(percentile(p, 90))/1e3)
	}
	slices.Sort(all)
	p99, p999 := percentile(all, 99), percentile(all, 99.9)
	return latency{
		N:          len(all),
		SubWindows: len(p50s),
		P50:        median(p50s),
		P90:        median(p90s),
		P99:        float64(p99) / 1e3,
		P999:       float64(p999) / 1e3,
		Beyond99:   countAbove(all, p99),
		Beyond999:  countAbove(all, p999),
	}
}

// countAbove counts the values of an ascending slice strictly above v.
func countAbove(sorted []int64, v int64) int {
	i, found := slices.BinarySearch(sorted, v)
	for found && i < len(sorted) && sorted[i] == v {
		i++
	}
	return len(sorted) - i
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// origin is the run clock's zero; every timestamp the harness records is
// nanoseconds since it, on the monotonic clock.
var origin = time.Now()

func now() int64 { return int64(time.Since(origin)) }

// opKind is one request type the harness counts.
type opKind int

const (
	opOpen opKind = iota
	opStep
	opBatch
	opFeedback
	opClose
	numOpKinds
)

var opNames = [numOpKinds]string{"open", "step", "batch", "feedback", "close"}

// maxReportedErrors bounds how many failure messages are kept for the
// report; the counts stay exact.
const maxReportedErrors = 8

// accounting counts attempted and failed operations per type. A failure is
// a transport error, a non-OK status or a response that differs from the
// reference. verified counts step responses (single steps and batch items)
// that matched the reference.
type accounting struct {
	attempted [numOpKinds]atomic.Int64
	failed    [numOpKinds]atomic.Int64
	verified  atomic.Int64

	mu   sync.Mutex
	errs []string
}

// note records one attempted operation and reports whether it succeeded.
func (a *accounting) note(k opKind, err error) bool {
	a.attempted[k].Add(1)
	if err == nil {
		return true
	}
	a.failed[k].Add(1)
	a.mu.Lock()
	if len(a.errs) < maxReportedErrors {
		a.errs = append(a.errs, fmt.Sprintf("%s: %v", opNames[k], err))
	}
	a.mu.Unlock()
	return false
}

func (a *accounting) totals() (attempted, failed int64) {
	for k := range numOpKinds {
		attempted += a.attempted[k].Load()
		failed += a.failed[k].Load()
	}
	return attempted, failed
}

func (a *accounting) print() {
	for k := range numOpKinds {
		if n := a.attempted[k].Load(); n > 0 {
			fmt.Printf("ops %-8s attempted %9d  failed %d\n", opNames[k], n, a.failed[k].Load())
		}
	}
	fmt.Printf("ops verified step responses %d\n", a.verified.Load())
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.errs {
		fmt.Fprintln(os.Stderr, "failure:", e)
	}
}

// span is one timed interval the harness records in a traced run: a client
// request (calls = 1) or an in-process replay block covering calls calls of
// one layer entry point. parent indexes the enclosing span in the same log
// (-1 for a root); the spans of one request share req.
type span struct {
	name       string
	parent     int32
	req        uint64
	start, end int64
	calls      int32
}

// spanLog is one goroutine's span buffer; logs are merged after the run, so
// recording takes no lock.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(s span) int32 {
	l.spans = append(l.spans, s)
	return int32(len(l.spans) - 1)
}

// spanStat summarises the spans of one name.
type spanStat struct {
	name     string
	spans    int
	calls    int64
	self     int64 // ns, durations minus the union of child spans
	perCallN []float64
}

// summariseSpans groups spans by name. A span's self time is its duration
// minus the part of its interval covered by its children (the union, so
// overlapping pipelined requests are not double-counted).
func summariseSpans(logs []*spanLog) []spanStat {
	byName := map[string]*spanStat{}
	var order []string
	for _, l := range logs {
		children := make(map[int32][]span)
		for _, s := range l.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], s)
			}
		}
		for i, s := range l.spans {
			st := byName[s.name]
			if st == nil {
				st = &spanStat{name: s.name}
				byName[s.name] = st
				order = append(order, s.name)
			}
			d := s.end - s.start
			st.spans++
			st.calls += int64(s.calls)
			st.self += d - covered(children[int32(i)], s.start, s.end)
			if s.calls > 0 {
				st.perCallN = append(st.perCallN, float64(d)/float64(s.calls))
			}
		}
	}
	out := make([]spanStat, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns how much of [start, end) the union of the spans covers.
func covered(spans []span, start, end int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([]span, len(spans))
	copy(iv, spans)
	sort.Slice(iv, func(a, b int) bool { return iv[a].start < iv[b].start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, s := range iv {
		s.start, s.end = max(s.start, start), min(s.end, end)
		if s.end <= s.start {
			continue
		}
		if s.start > curE {
			total += curE - curS
			curS, curE = s.start, s.end
			continue
		}
		curE = max(curE, s.end)
	}
	return total + curE - curS
}

// writeSpans dumps every span as tab-separated values (name, parent, req,
// start ns, end ns, calls) to path.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "log\tname\tparent\treq\tstart_ns\tend_ns\tcalls")
	for li, l := range logs {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", li, s.name, s.parent, s.req, s.start, s.end, s.calls)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

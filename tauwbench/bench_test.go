package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"github.com/iese-repro/tauw/internal/eval"
	"github.com/iese-repro/tauw/internal/fusion"
	"github.com/iese-repro/tauw/internal/wire"
)

// fakeOracle has n ten-frame encounters whose inputs and reference answers
// are derived from their index; enough for the plan and verifier tests.
func fakeOracle(n int) *oracle {
	o := &oracle{enc: make([]encounter, n), exp: make([][]expected, n)}
	for i := range o.enc {
		e := encounter{truth: i % 43}
		for j := range 10 {
			e.outcomes = append(e.outcomes, (i+j)%43)
			q := make([]float64, 10)
			for k := range q {
				q[k] = float64(i*100+j*10+k) / 1e4
			}
			e.quality = append(e.quality, q)
			o.exp[i] = append(o.exp[i], expected{fused: i % 43, u: 0.1 + float64(j)/100, statelessU: 0.05,
				leaf: j, level: "ignore-reading"})
		}
		o.enc[i] = e
	}
	return o
}

// encodeStream renders a plan as the step-batch frames durable-batch would
// send (series ids stand in for the server's), the request stream itself.
func encodeStream(t *testing.T, p *plan, o *oracle) []byte {
	t.Helper()
	var out []byte
	all := append(append([]stepOp(nil), p.warm...), slices.Concat(p.rounds...)...)
	for lo := 0; lo < len(all); lo += batchItems {
		chunk := all[lo:min(lo+batchItems, len(all))]
		var lenOff int
		var err error
		out, lenOff = wire.BeginFrame(out, wire.FrameStepBatch, uint32(lo))
		if out, err = wire.AppendBatchHeader(out, len(chunk)); err != nil {
			t.Fatal(err)
		}
		for _, op := range chunk {
			e := &o.enc[op.enc]
			id := "s" + string(rune('a'+op.slot%26))
			if out, err = wire.AppendStepItem(out, id, e.outcomes[op.frame], e.quality[op.frame]); err != nil {
				t.Fatal(err)
			}
		}
		out = wire.EndFrame(out, lenOff)
	}
	return out
}

func TestRequestStreamFollowsSeed(t *testing.T) {
	o := fakeOracle(300)
	for _, w := range workloads {
		a := encodeStream(t, newPlan(w, 7, o, 40), o)
		b := encodeStream(t, newPlan(w, 7, o, 40), o)
		c := encodeStream(t, newPlan(w, 8, o, 40), o)
		if !slices.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request streams", w.name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
}

func TestPlanShape(t *testing.T) {
	o := fakeOracle(300)
	w, err := findWorkload("durable-batch")
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(w, 1, o, 20)
	// Staggered slots: slot i steps i mod 10 warm frames, so the first
	// round's positions cycle 0..9 and every round ends ~1/10 of the
	// encounters.
	if got, want := len(p.warm), 4096/10*45+4096%10*(4096%10-1)/2; got != want {
		t.Fatalf("%d warm steps, want %d", got, want)
	}
	for i, op := range p.rounds[0] {
		if int(op.frame) != i%10 {
			t.Fatalf("slot %d starts measuring at frame %d, want %d", i, op.frame, i%10)
		}
	}
	for r, ops := range p.rounds {
		ends := 0
		for _, op := range ops {
			if op.last {
				ends++
			}
		}
		if ends < 409 || ends > 410 {
			t.Fatalf("round %d ends %d encounters, want 409 or 410", r, ends)
		}
	}
	// A slot's encounter runs every frame in order before the next starts.
	for s := range 3 {
		prev := stepOp{frame: -1}
		for _, ops := range p.rounds {
			op := ops[s]
			if prev.frame >= 0 && !prev.last && (op.enc != prev.enc || op.frame != prev.frame+1) {
				t.Fatalf("slot %d jumped from %+v to %+v", s, prev, op)
			}
			if prev.last && op.frame != 0 {
				t.Fatalf("slot %d starts its next encounter at frame %d", s, op.frame)
			}
			prev = op
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {11, 2}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := countAbove([]int64{1, 2, 2, 2, 5}, 2); got != 1 {
		t.Errorf("countAbove = %d, want 1", got)
	}
}

func TestWindowSplit(t *testing.T) {
	sec := int64(1e9)
	for _, c := range []struct {
		w    window
		want []window
	}{
		{window{0, 3 * sec}, []window{{0, sec}, {sec, 2 * sec}, {2 * sec, 3 * sec}}},
		// A remainder under half a width joins the last sub-window...
		{window{0, 2*sec + sec/4}, []window{{0, sec}, {sec, 2*sec + sec/4}}},
		// ...one of at least half a width stands alone.
		{window{0, 2*sec + sec/2}, []window{{0, sec}, {sec, 2 * sec}, {2 * sec, 2*sec + sec/2}}},
		{window{5, 5 + sec/3}, []window{{5, 5 + sec/3}}},
	} {
		if got := c.w.split(sec); !reflect.DeepEqual(got, c.want) {
			t.Errorf("split(%v) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestSummariseTakesMedianOfSubWindows(t *testing.T) {
	sec := int64(1e9)
	var samples []sample
	// Three one-second sub-windows with p50s of 10, 20 and 1000 µs (the
	// last a slow spell): the reported p50 is the middle one. Samples
	// outside the window are ignored.
	for i, v := range []int64{10e3, 20e3, 1000e3} {
		for k := range 100 {
			samples = append(samples, sample{at: int64(i)*sec + int64(k), rtt: v})
		}
	}
	samples = append(samples, sample{at: 3 * sec, rtt: 1}, sample{at: -1, rtt: 1})
	lat := summarise(samples, window{0, 3 * sec})
	if lat.N != 300 || lat.SubWindows != 3 {
		t.Fatalf("N %d, sub-windows %d; want 300, 3", lat.N, lat.SubWindows)
	}
	if lat.P50 != 20 || lat.P90 != 20 {
		t.Errorf("p50 %v p90 %v, want 20 and 20", lat.P50, lat.P90)
	}
	if lat.P99 != 1000 || lat.Beyond99 != 0 {
		t.Errorf("p99 %v with %d beyond, want 1000 with 0", lat.P99, lat.Beyond99)
	}
}

func TestProcParsers(t *testing.T) {
	// The command name holds spaces and a parenthesis; utime 250 and stime
	// 50 ticks are fields 14 and 15.
	stat := []byte("4242 (tau serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 9 0 100 1000000 2000 " +
		"18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 3.0 {
		t.Errorf("parseStatCPU = %v, %v; want 3 s", cpu, err)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1")); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	status := []byte("Name:\ttauserve\nVmPeak:\t  200000 kB\nVmHWM:\t   43000 kB\nVmRSS:\t   15872 kB\nThreads:\t9\n")
	if kb, err := parseStatusKB(status, "VmRSS"); err != nil || kb != 15872 {
		t.Errorf("VmRSS = %d, %v; want 15872", kb, err)
	}
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 43000 {
		t.Errorf("VmHWM = %d, %v; want 43000", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("parseStatusKB found a missing key")
	}
	steal, total, err := parseHostCPU([]byte("cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\n"))
	if err != nil || steal != 30 || total != 1000 {
		t.Errorf("parseHostCPU = %d, %d, %v; want 30 of 1000", steal, total, err)
	}
}

func TestParseMetrics(t *testing.T) {
	before, err := parseMetrics([]byte(`# HELP tauw_go_gc_cycles_total GC cycles.
# TYPE tauw_go_gc_cycles_total counter
tauw_go_gc_cycles_total 12
tauw_go_heap_bytes 4.06444e+06
tauw_stage_duration_seconds_bucket{stage="decode",le="1e-06"} 0
tauw_stage_duration_seconds_sum{stage="decode"} 0.5
tauw_stage_duration_seconds_count{stage="decode"} 1000
tauw_build_info{go_version="go1.24.0",goos="linux",goarch="amd64"} 1
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics([]byte(`tauw_go_gc_cycles_total 20
tauw_stage_duration_seconds_sum{stage="decode"} 0.53
tauw_stage_duration_seconds_count{stage="decode"} 4000
`))
	if err != nil {
		t.Fatal(err)
	}
	if v := before["tauw_go_heap_bytes"]; v != 4064440 {
		t.Errorf("heap = %v", v)
	}
	if v := before[`tauw_build_info{go_version="go1.24.0",goos="linux",goarch="amd64"}`]; v != 1 {
		t.Errorf("build info = %v", v)
	}
	d := metricsDelta{before: before, after: after}
	if v := d.diff("tauw_go_gc_cycles_total"); v != 8 {
		t.Errorf("gc diff = %v, want 8", v)
	}
	if v := d.stageMean("decode", 1e6); math.Abs(v-10) > 1e-9 {
		t.Errorf("decode mean = %v µs, want 10", v)
	}
	if v := d.stageMean("fsync", 1e3); v != 0 {
		t.Errorf("absent stage mean = %v, want 0", v)
	}
	if _, err := parseMetrics([]byte("tauw_steps_total\n")); err == nil {
		t.Error("parseMetrics accepted a line without a value")
	}
}

func TestVerifierFlagsOneULP(t *testing.T) {
	o := fakeOracle(2)
	x := o.exp[1][3]
	good := served{fused: x.fused, u: x.u, statelessU: x.statelessU, seriesLen: 4, totalSteps: 4,
		modelVersion: servingModelVersion, level: x.level, accepted: x.accepted}
	if err := o.checkStep(1, 3, &good); err != nil {
		t.Fatalf("the reference answer failed its own check: %v", err)
	}
	for name, mutate := range map[string]func(*served){
		"uncertainty +1 ulp":    func(s *served) { s.u = math.Nextafter(s.u, 2) },
		"uncertainty -1 ulp":    func(s *served) { s.u = math.Nextafter(s.u, -1) },
		"stateless +1 ulp":      func(s *served) { s.statelessU = math.Nextafter(s.statelessU, 2) },
		"fused outcome":         func(s *served) { s.fused++ },
		"series_len":            func(s *served) { s.seriesLen++ },
		"total_steps":           func(s *served) { s.totalSteps++ },
		"model_version":         func(s *served) { s.modelVersion++ },
		"countermeasure":        func(s *served) { s.level = "accept" },
		"accepted flag flipped": func(s *served) { s.accepted = !s.accepted },
	} {
		bad := good
		mutate(&bad)
		if err := o.checkStep(1, 3, &bad); err == nil {
			t.Errorf("%s: not flagged", name)
		}
	}
	last := o.exp[1][9]
	fb := servedFeedback{step: 10, correct: last.fused == o.enc[1].truth, fused: last.fused, u: last.u,
		leaf: last.leaf, modelVersion: servingModelVersion}
	if err := o.checkFeedback(1, &fb); err != nil {
		t.Fatalf("the reference feedback failed its own check: %v", err)
	}
	fb.u = math.Nextafter(fb.u, 2)
	if err := o.checkFeedback(1, &fb); err == nil {
		t.Error("feedback uncertainty +1 ulp: not flagged")
	}
}

// TestServedPathMatchesReference replays every test encounter through the
// fast-path wrapper tauserve serves from and checks it against the oracle,
// the property every workload's verification relies on.
func TestServedPathMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tiny study")
	}
	st, err := eval.BuildStudy(eval.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := buildOracle(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.enc) != 300 {
		t.Errorf("%d encounters, want the tiny study's 300", len(o.enc))
	}
	fast, err := st.Wrapper()
	if err != nil {
		t.Fatal(err)
	}
	for e := range o.enc {
		fast.NewSeries()
		for j := range o.enc[e].outcomes {
			r, err := fast.Step(o.enc[e].outcomes[j], o.enc[e].quality[j])
			if err != nil {
				t.Fatal(err)
			}
			x := &o.exp[e][j]
			got := served{fused: r.Fused, u: r.Uncertainty, statelessU: r.Stateless.Uncertainty,
				seriesLen: r.SeriesLen, totalSteps: r.TotalSteps, modelVersion: servingModelVersion,
				level: x.level, accepted: x.accepted}
			if err := o.checkStep(e, j, &got); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The reference really is the reference path: its fuser hides the
	// incremental form.
	var ref fusion.OutcomeFuser = opaqueFuser{fusion.MajorityVote{}}
	if _, ok := ref.(fusion.Incremental); ok {
		t.Error("opaqueFuser exposes the incremental form")
	}
}

func TestCoveredUnion(t *testing.T) {
	spans := []span{{start: 10, end: 20}, {start: 15, end: 30}, {start: 40, end: 50}, {start: 0, end: 5}}
	if got := covered(spans, 0, 100); got != 5+20+10 {
		t.Errorf("covered = %d, want 35", got)
	}
	if got := covered(spans, 12, 45); got != 18+5 {
		t.Errorf("clipped covered = %d, want 23", got)
	}
	if got := covered(nil, 0, 100); got != 0 {
		t.Errorf("covered of nothing = %d", got)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the harness's
// workload and metric catalog in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

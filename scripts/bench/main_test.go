package main

import "testing"

func TestParseBenchProcsKeys(t *testing.T) {
	out := `
goos: linux
BenchmarkPoolStepParallel/sharded     	     100	       343.9 ns/op	     657 B/op	       4 allocs/op
BenchmarkPoolStepParallel/sharded-4   	     100	      1283 ns/op	     660 B/op	       4 allocs/op
BenchmarkPoolStepParallel/sharded     	     100	       310.0 ns/op	     650 B/op	       4 allocs/op
BenchmarkWrapperStep                  	     100	       186.2 ns/op	      19 B/op	       0 allocs/op
BenchmarkNoAllocsReported             	     100	       500.0 ns/op
`
	entries := parseBench(out)
	one, ok := entries["BenchmarkPoolStepParallel/sharded"]
	if !ok {
		t.Fatalf("missing procs=1 key; have %v", keys(entries))
	}
	if one.Procs != 1 || one.NsPerOp != 310.0 || one.Samples != 2 {
		t.Errorf("procs=1 entry = %+v, want min-merged 310.0 ns over 2 samples", one)
	}
	four, ok := entries["BenchmarkPoolStepParallel/sharded [procs=4]"]
	if !ok {
		t.Fatalf("missing procs=4 key; have %v", keys(entries))
	}
	if four.Procs != 4 || four.NsPerOp != 1283 || four.Samples != 1 {
		t.Errorf("procs=4 entry = %+v, want its own un-merged row", four)
	}
	if _, ok := entries["BenchmarkWrapperStep"]; !ok {
		t.Errorf("plain benchmark key lost; have %v", keys(entries))
	}
	// A benchmark without ReportAllocs records the absent-metric sentinel,
	// not a spurious zero that would enroll it in the alloc gate.
	if e := entries["BenchmarkNoAllocsReported"]; e.AllocsPerOp != -1 {
		t.Errorf("absent allocs/op recorded as %g, want -1", e.AllocsPerOp)
	}
	if e := entries["BenchmarkWrapperStep"]; e.AllocsPerOp != 0 {
		t.Errorf("reported zero allocs/op recorded as %g, want 0", e.AllocsPerOp)
	}
}

func keys(m map[string]Entry) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestAllocRegressed(t *testing.T) {
	cases := []struct {
		gate, base, cur float64
		want            bool
	}{
		{2, 0, 0, false},     // stays clean
		{2, 0, 2, false},     // at the gate is still fine
		{2, 0, 3, true},      // zero-alloc path decayed
		{2, 2, 200, true},    // at-gate baseline decayed
		{2, 200, 400, false}, // was never under the gate: not this gate's job
		{2, 3, 0, false},     // improvement
		{-1, 0, 50, false},   // disabled
		{0, 0, 1, true},      // strict zero-alloc gate
		{2, -1, 120, false},  // baseline never reported allocs: exempt
		{2, 0, -1, false},    // current stopped reporting: exempt
	}
	for _, c := range cases {
		if got := allocRegressed(c.gate, c.base, c.cur); got != c.want {
			t.Errorf("allocRegressed(%g, %g, %g) = %v, want %v", c.gate, c.base, c.cur, got, c.want)
		}
	}
}

func TestStripProcs(t *testing.T) {
	for _, c := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkX-8", "BenchmarkX", 8},
		{"BenchmarkX", "BenchmarkX", 1},
		{"BenchmarkX/len=10-4", "BenchmarkX/len=10", 4},
		{"BenchmarkX/a-b", "BenchmarkX/a-b", 1},
	} {
		name, procs := stripProcs(c.in)
		if name != c.name || procs != c.procs {
			t.Errorf("stripProcs(%q) = (%q, %d), want (%q, %d)", c.in, name, procs, c.name, c.procs)
		}
	}
}

// TestGateCovers: a gate entry covers its own benchmark, that benchmark's
// procs rows and its sub-benchmarks, and nothing that merely shares the
// prefix.
func TestGateCovers(t *testing.T) {
	cases := []struct {
		gate, name string
		want       bool
	}{
		{"BenchmarkWrapperStep", "BenchmarkWrapperStep", true},
		{"BenchmarkWrapperStep", "BenchmarkWrapperStep [procs=4]", true},
		{"BenchmarkWrapperStep", "BenchmarkWrapperStepLen/len=10", false},
		{"BenchmarkWrapperStep", "BenchmarkWrapperStepLenReference/len=10", false},
		{"BenchmarkWrapperStepLen", "BenchmarkWrapperStepLen/len=10000 [procs=4]", true},
		{"BenchmarkWrapperStepLen", "BenchmarkWrapperStepLenReference/len=10", false},
		{"BenchmarkPoolStepBatch", "BenchmarkPoolStepBatch/reuse/workers=1", true},
		{"BenchmarkWireStep", "BenchmarkWireStepSerial", false},
		{"BenchmarkWireStepSerial", "BenchmarkWireStepSerial", true},
		{"BenchmarkWireBatch", "BenchmarkWireBatchStep", false},
		{"BenchmarkCheckpoint/mem", "BenchmarkCheckpoint/mem", true},
		{"BenchmarkCheckpoint/mem", "BenchmarkCheckpoint/file", false},
		{"BenchmarkFlush", "BenchmarkFlushes", false},
		{"", "BenchmarkWrapperStep", false},
	}
	for _, c := range cases {
		if got := gateCovers(c.gate, c.name); got != c.want {
			t.Errorf("gateCovers(%q, %q) = %v, want %v", c.gate, c.name, got, c.want)
		}
	}
}

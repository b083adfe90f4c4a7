// Command bench converts `go test -bench` output into the repo's
// BENCH_*.json trajectory format and gates benchmark regressions in CI.
//
// Subcommands:
//
//	bench json -in bench.txt -out BENCH_PR3.json
//	    Parse benchmark output (possibly with -count repeats) into a JSON
//	    map of benchmark name -> {ns_per_op, bytes_per_op, allocs_per_op}.
//	    The GOMAXPROCS suffix (-8) is stripped so keys are stable across
//	    runners; repeated measurements keep the minimum ns/op (the least
//	    noisy estimate of the code's cost).
//
//	bench compare -baseline BENCH_2.json -current BENCH_PR3.json \
//	    -gate 'BenchmarkWrapperStep,BenchmarkPoolStepParallel' -warn 0.10 -fail 0.50
//	    Compare two trajectory files. A -gate entry gates the benchmark it
//	    names: that row, its " [procs=N]" rows and its sub-benchmarks
//	    (name/...), never another benchmark whose name merely starts the
//	    same. Gated benchmarks warn above the warn threshold and fail the
//	    process (exit 1) above the fail threshold of ns/op regression;
//	    everything else is reported informationally. Independently, the
//	    -alloc-gate threshold (default 2) fails any benchmark that was at or
//	    under the threshold in allocs/op in the baseline and now exceeds it:
//	    zero-alloc paths may not silently decay, and unlike ns/op the check
//	    is machine-independent so it applies to every benchmark.
//
// Benchmarks measured at GOMAXPROCS > 1 (-cpu=1,4) keep their own keys with
// a " [procs=N]" suffix, so contention rows never min-merge with the
// single-core rows.
//
//tauw:cli
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's recorded cost.
type Entry struct {
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`
	// AllocsPerOp is -1 when the benchmark did not report allocations
	// (no b.ReportAllocs / -benchmem): an absent metric is not zero, and
	// recording it as zero would silently enroll the benchmark in the
	// alloc-gate and fail it spuriously once it starts reporting.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Samples is how many -count repeats the minimum was taken over.
	Samples int `json:"samples"`
	// Procs is the GOMAXPROCS the benchmark ran at (the -N name suffix).
	// RunParallel benchmarks measure contention, so their ns/op is only
	// comparable between runs at the same core count; compare skips gating
	// entries whose Procs differ.
	Procs int `json:"procs,omitempty"`
}

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: bench <json|compare> [flags]")
	}
	var err error
	switch os.Args[1] {
	case "json":
		err = runJSON(os.Args[2:])
	case "compare":
		err = runCompare(os.Args[2:])
	default:
		fatalf("unknown subcommand %q (want json or compare)", os.Args[1])
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func runJSON(args []string) error {
	fs := flag.NewFlagSet("json", flag.ExitOnError)
	in := fs.String("in", "", "benchmark output file (default stdin)")
	out := fs.String("out", "", "output JSON file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var raw []byte
	var err error
	if *in != "" {
		raw, err = os.ReadFile(*in)
	} else {
		raw, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		return err
	}
	entries := parseBench(string(raw))
	if len(entries) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	blob, err := marshalSorted(entries)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Println(string(blob))
		return nil
	}
	return os.WriteFile(*out, append(blob, '\n'), 0o644)
}

// parseBench extracts benchmark result lines. A line looks like:
//
//	BenchmarkWrapperStepLen/len=10-8   100   219.0 ns/op   0 B/op   0 allocs/op
func parseBench(out string) map[string]Entry {
	entries := make(map[string]Entry)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name, procs := stripProcs(fields[0])
		if procs > 1 {
			// A multi-procs run (-cpu=1,4) measures the same benchmark as a
			// different workload; keep the rows apart instead of collapsing
			// them onto one key and silently min-merging across core counts.
			name = fmt.Sprintf("%s [procs=%d]", name, procs)
		}
		e := Entry{Samples: 1, Procs: procs, AllocsPerOp: -1}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
				seen = true
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			}
		}
		if !seen {
			continue
		}
		if prev, ok := entries[name]; ok {
			// Keep the fastest repeat: scheduling noise only ever adds time.
			if prev.NsPerOp < e.NsPerOp {
				e.NsPerOp = prev.NsPerOp
			}
			if prev.BytesPerOp < e.BytesPerOp {
				e.BytesPerOp = prev.BytesPerOp
			}
			if prev.AllocsPerOp < e.AllocsPerOp {
				e.AllocsPerOp = prev.AllocsPerOp
			}
			e.Samples = prev.Samples + 1
		}
		entries[name] = e
	}
	return entries
}

// stripProcs removes the trailing -<GOMAXPROCS> go test appends to benchmark
// names, so keys are comparable across machines, and returns the stripped
// value so the core count stays recorded in the entry. go test omits the
// suffix exactly when GOMAXPROCS is 1, so no suffix means procs 1.
func stripProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs <= 0 {
		return name, 1
	}
	return name[:i], procs
}

func marshalSorted(entries map[string]Entry) ([]byte, error) {
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("{\n")
	for i, n := range names {
		v, err := json.Marshal(entries[n])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&sb, "  %q: %s", n, v)
		if i < len(names)-1 {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("}")
	return []byte(sb.String()), nil
}

func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	baselinePath := fs.String("baseline", "", "committed BENCH_*.json to compare against")
	currentPath := fs.String("current", "", "freshly measured JSON")
	gate := fs.String("gate", "BenchmarkWrapperStep,BenchmarkPoolStepParallel",
		"comma-separated benchmark names whose ns/op regressions are gated, each with its procs rows and sub-benchmarks")
	warn := fs.Float64("warn", 0.10, "gated regression fraction that triggers a warning")
	fail := fs.Float64("fail", 0.50, "gated regression fraction that fails the gate")
	allocGate := fs.Float64("alloc-gate", 2,
		"zero-alloc decay gate: any benchmark at or under this many allocs/op in the baseline "+
			"fails the gate if it now exceeds it (machine-independent; set negative to disable)")
	flat := fs.String("flat", "",
		"comma-separated within-run ratio gates 'fastName:slowName:maxRatio' — fails when "+
			"current[slowName].ns_per_op > maxRatio * current[fastName].ns_per_op; "+
			"unlike the cross-run ns/op gate this is machine-independent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *currentPath == "" {
		return fmt.Errorf("compare needs -current")
	}
	current, err := load(*currentPath)
	if err != nil {
		return err
	}
	if *baselinePath == "" {
		// Flat-only mode: the within-run ratio gates need no baseline (both
		// sides come from the same measurement), so they can run even when
		// no BENCH_*.json has been committed yet.
		if *flat == "" {
			return fmt.Errorf("compare needs -baseline (or -flat for within-run gates only)")
		}
		if err := checkFlat(*flat, current); err != nil {
			fmt.Printf("::error::%v\n", err)
			return fmt.Errorf("benchmark gate failed")
		}
		return nil
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		return err
	}
	gates := strings.Split(*gate, ",")
	gated := func(name string) bool {
		for _, g := range gates {
			if gateCovers(strings.TrimSpace(g), name) {
				return true
			}
		}
		return false
	}

	names := make([]string, 0, len(baseline))
	for n := range baseline {
		names = append(names, n)
	}
	sort.Strings(names)
	failed := false
	for _, n := range names {
		base := baseline[n]
		cur, ok := current[n]
		if !ok {
			// A gated benchmark that silently stops being measured (rename,
			// broken -bench regex) would otherwise disable the gate forever.
			if gated(n) {
				fmt.Printf("::error::gated benchmark %s present in %s but not measured now\n", n, *baselinePath)
				failed = true
			} else {
				fmt.Printf("::warning::benchmark %s present in %s but not measured now\n", n, *baselinePath)
			}
			continue
		}
		if base.Procs != 0 && cur.Procs != 0 && base.Procs != cur.Procs {
			// Contention benchmarks (b.RunParallel) measure a different
			// workload at a different core count; gating across that
			// difference would flag hardware, not code.
			fmt.Printf("  %-55s skipped: baseline at GOMAXPROCS=%d, current at %d — not comparable\n",
				n, base.Procs, cur.Procs)
			continue
		}
		delta := cur.NsPerOp/base.NsPerOp - 1
		tag := "ok"
		switch {
		case gated(n) && delta > *fail:
			tag = "FAIL"
			failed = true
		case gated(n) && delta > *warn:
			tag = "warn"
		case delta < -0.10:
			tag = "improved"
		}
		marker := " "
		if gated(n) {
			marker = "*"
		}
		fmt.Printf("%s %-55s %12.1f -> %12.1f ns/op  %+7.1f%%  [%s]\n",
			marker, n, base.NsPerOp, cur.NsPerOp, delta*100, tag)
		if tag == "FAIL" {
			fmt.Printf("::error::%s regressed %.1f%% in ns/op (fail threshold %.0f%%)\n",
				n, delta*100, *fail*100)
		}
		if tag == "warn" {
			fmt.Printf("::warning::%s regressed %.1f%% in ns/op (warn threshold %.0f%%)\n",
				n, delta*100, *warn*100)
		}
		if gated(n) && cur.AllocsPerOp > base.AllocsPerOp {
			fmt.Printf("::warning::%s allocs/op grew %g -> %g\n", n, base.AllocsPerOp, cur.AllocsPerOp)
		}
		// The allocs/op gate is absolute and machine-independent: a path
		// that was (near) allocation-free in the committed trajectory may
		// not silently decay past the threshold, whatever its ns/op does.
		// It applies to every comparable benchmark, not just the ns-gated
		// set — zero-alloc is a property of the code, not the runner.
		if allocRegressed(*allocGate, base.AllocsPerOp, cur.AllocsPerOp) {
			fmt.Printf("::error::%s allocs/op regressed %g -> %g (gate: was <= %g in baseline, must stay there)\n",
				n, base.AllocsPerOp, cur.AllocsPerOp, *allocGate)
			failed = true
		}
	}
	for n := range current {
		if _, ok := baseline[n]; !ok {
			fmt.Printf("  %-55s new benchmark (%.1f ns/op), no baseline yet\n", n, current[n].NsPerOp)
		}
	}
	if err := checkFlat(*flat, current); err != nil {
		fmt.Printf("::error::%v\n", err)
		failed = true
	}
	if failed {
		return fmt.Errorf("benchmark gate failed")
	}
	return nil
}

// gateCovers reports whether -gate entry g covers the trajectory row name:
// the benchmark g itself, its rows at another GOMAXPROCS ("g [procs=N]")
// and its sub-benchmarks ("g/..."). A plain prefix match would let
// BenchmarkWrapperStep gate BenchmarkWrapperStepLenReference too.
func gateCovers(g, name string) bool {
	rest, ok := strings.CutPrefix(name, g)
	return g != "" && ok && (rest == "" || rest[0] == '/' || strings.HasPrefix(rest, " [procs="))
}

// allocRegressed is the zero-alloc decay rule: a benchmark whose baseline
// sat at or under the gate in allocs/op fails if it now exceeds the gate.
// Negative gates disable the check, and a negative allocs/op on either
// side means the metric was not reported there (see Entry.AllocsPerOp) —
// an absent measurement can neither enroll a benchmark in the gate nor
// trip it.
func allocRegressed(gate, base, cur float64) bool {
	return gate >= 0 && base >= 0 && cur >= 0 && base <= gate && cur > gate
}

// checkFlat enforces within-run ratio gates: both sides are measured on the
// same machine in the same run, so the check is immune to runner-speed
// variance — it gates the algorithmic shape (e.g. the O(1)-in-series-length
// step claim: len=10000 must stay within 2x of len=10), not absolute speed.
func checkFlat(spec string, current map[string]Entry) error {
	if spec == "" {
		return nil
	}
	for _, g := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(g), ":")
		if len(parts) != 3 {
			return fmt.Errorf("bad -flat gate %q (want fast:slow:maxRatio)", g)
		}
		maxRatio, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || maxRatio <= 0 {
			return fmt.Errorf("bad -flat ratio in %q", g)
		}
		fast, ok := current[parts[0]]
		if !ok {
			return fmt.Errorf("-flat gate: %s not measured", parts[0])
		}
		slow, ok := current[parts[1]]
		if !ok {
			return fmt.Errorf("-flat gate: %s not measured", parts[1])
		}
		ratio := slow.NsPerOp / fast.NsPerOp
		if ratio > maxRatio {
			return fmt.Errorf("%s is %.2fx of %s (max %.2fx): step cost is no longer flat",
				parts[1], ratio, parts[0], maxRatio)
		}
		fmt.Printf("  flat: %s / %s = %.2fx (max %.2fx) [ok]\n", parts[1], parts[0], ratio, maxRatio)
	}
	return nil
}

func load(path string) (map[string]Entry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]Entry
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return m, nil
}

// Command tauwbench is the repository benchmark: it launches the prebuilt
// tauserve binary (tiny preset) for one workload, drives it over loopback
// in a closed loop, checks every step response bit for bit against an
// in-process reference wrapper, and prints the workload's end-to-end
// metrics (-trace 0) or per-layer metrics (-trace 1). The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash tauwbench/run.sh --workload stream-wire --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metric → layer → workload map and
// the spreads observed while proving the benchmark steady.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"github.com/iese-repro/tauw/internal/eval"
)

// setupRuns is how many times an untraced run sets tauserve up; setup_s is
// their median and the last one serves the load.
const setupRuns = 3

// harnessHeapLimit is the heap size at which the harness collects garbage
// during a run.
const harnessHeapLimit = 256 << 20

// warmUp is the unmeasured load before the first measured window, long
// enough for the series population, the Go heap and (durable-batch) the
// first flushes to settle.
const warmUp = 2 * time.Second

type config struct {
	w       workload
	seed    uint64
	seconds int
	traced  bool
	bin     string
	workdir string
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: stream-wire, stream-http or durable-batch")
		seed    = flag.Uint64("seed", 1, "workload seed: sets the order of the encounters and their assignment to series")
		seconds = flag.Int("seconds", 30, "measured seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run and per-layer metrics")
		bin     = flag.String("bin", ".bench_build/tauserve", "prebuilt tauserve binary")
		workdir = flag.String("workdir", ".bench_build/run", "directory for server logs, state and span dumps")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tauwbench:", err)
		os.Exit(2)
	}
	res, err := run(config{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, bin: *bin, workdir: *workdir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tauwbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tauwbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run. Inputs, the reference and (traced) the
// in-process layer replays are all built before the first server starts.
func run(cfg config) (*result, error) {
	w := cfg.w
	dir, err := runDir(cfg.workdir, w.name)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s  seed %d  seconds %d  trace %v\n", w.name, cfg.seed, cfg.seconds, cfg.traced)
	t0 := time.Now()
	st, err := eval.BuildStudy(eval.TinyConfig())
	if err != nil {
		return nil, err
	}
	buildStudy := time.Since(t0)
	o, err := buildOracle(st)
	if err != nil {
		return nil, err
	}
	slots := newSlots(w, cfg.seed, o)
	var tails [][][]byte
	if w.name == "stream-http" {
		tails = stepTails(o)
	}
	var lay *layers
	if cfg.traced {
		lay = newLayers(st, o, w, cfg.seed)
		if err := lay.run(); err != nil {
			return nil, fmt.Errorf("in-process layers: %w", err)
		}
		lay.finish()
		lay.metrics["eval.build_study_s"] = buildStudy.Seconds()
	}

	// The in-process layers above run under the default collector, as
	// tauserve does. The load generator shares the server's CPUs, so from
	// here on its own collector runs only near harnessHeapLimit: collections
	// of the generator's heap do not land inside measured windows as extra
	// CPU contention (the wire paths allocate almost nothing per request).
	runtime.GC()
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(harnessHeapLimit)

	stateDir := ""
	if w.durable {
		stateDir = filepath.Join(dir, "state")
	}
	logPath := filepath.Join(dir, "tauserve.log")
	setups := setupRuns
	if cfg.traced {
		setups = 1
	}
	var setupS []float64
	var srv *server
	for i := range setups {
		s, d, err := launch(cfg.bin, stateDir, logPath)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i == setups-1 {
			srv = s
			break
		}
		if err := s.stop(); err != nil {
			return nil, fmt.Errorf("stopping set-up %d: %w", i+1, err)
		}
	}
	defer srv.kill()
	fmt.Printf("setup_s runs %v\n", setupS)

	acct := &accounting{}
	var drv driver
	if w.name == "durable-batch" {
		drv, err = newDurableDriver(srv, o, acct, slots)
	} else {
		drv, err = newStreamDriver(w, srv, o, acct, slots, tails)
	}
	if err != nil {
		return nil, err
	}
	defer drv.close()
	if err := drv.start(); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metricValue{}}
	ok := true
	if cfg.traced {
		ok, err = tracedRun(cfg, srv, drv, lay, res, dir)
	} else {
		err = measuredRun(cfg, srv, drv, setupS, res)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.traced {
		drv.close()
		if err := srv.stop(); err != nil {
			return nil, fmt.Errorf("stopping tauserve: %w", err)
		}
	}
	acct.print()
	res.Attempted, res.Failed = acct.totals()
	res.Correct = ok && res.Failed == 0 && acct.verified.Load() > 0
	return res, nil
}

// edges snapshots the server at each window edge; with rss set it also
// samples VmRSS from the first edge to the last.
func edges(srv *server, sc *scraper, at []int64, rss bool) func() ([]snapshot, float64, int, error) {
	type out struct {
		snaps []snapshot
		rss   float64
		n     int
		err   error
	}
	ch := make(chan out, 1)
	go func() {
		var o out
		var sampler *rssSampler
		for i, t := range at {
			time.Sleep(time.Duration(t - now()))
			s, err := srv.snapshot(sc)
			if err != nil && o.err == nil {
				o.err = err
			}
			o.snaps = append(o.snaps, s)
			if rss && i == 0 {
				sampler = srv.sampleRSS()
			}
		}
		if sampler != nil {
			o.rss, o.n, _ = sampler.finish()
		}
		ch <- o
	}()
	return func() ([]snapshot, float64, int, error) {
		o := <-ch
		return o.snaps, o.rss, o.n, o.err
	}
}

// measuredRun is the untraced run: warm up, then one measured window.
func measuredRun(cfg config, srv *server, drv driver, setupS []float64, res *result) error {
	start := now() + int64(warmUp)
	p := []phase{{window: window{start, start + int64(cfg.seconds)*1e9}}}
	wait := edges(srv, nil, []int64{p[0].start, p[0].end}, true)
	pr := drv.run(p)[0]
	snaps, rss, rssN, err := wait()
	if err != nil {
		return err
	}
	if pr.steps == 0 {
		return errors.New("no verified steps in the measured window")
	}
	lat := summarise(pr.samples, p[0].window)
	cpu := snaps[1].serverCPU - snaps[0].serverCPU
	printWindow("measured", p[0].window, pr, lat)
	fmt.Printf("server cpu %.3f s  rss peak %.2f MB over %d samples  host steal %.1f%%\n", cpu, rss, rssN,
		stealPct(snaps[0], snaps[1]))
	set := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(endToEnd, name)}
	}
	set("setup_s", median(slices.Clone(setupS)))
	set("req_p50_us", lat.P50)
	set("req_p90_us", lat.P90)
	set("server_cpu_us_per_step", cpu/float64(pr.steps)*1e6)
	set("rss_mb", rss)
	return nil
}

// stealPct is the share of the machine's CPU time between two snapshots
// that the hypervisor gave to other guests.
func stealPct(a, b snapshot) float64 {
	if b.total == a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total) * 100
}

func printWindow(label string, w window, pr phaseResult, lat latency) {
	secs := w.seconds()
	fmt.Printf("%s window %.1fs: %d verified steps (%.0f/s), %d requests, in-flight depth %.2f\n",
		label, secs, pr.steps, float64(pr.steps)/secs, pr.requests, float64(pr.busy)/float64(w.end-w.start))
	fmt.Printf("%s latency µs: p50 %.2f p90 %.2f (medians of %d 1-s windows); p99 %.2f (%d beyond) p99.9 %.2f (%d beyond) over %d samples\n",
		label, lat.P50, lat.P90, lat.SubWindows, lat.P99, lat.Beyond99, lat.P999, lat.Beyond999, lat.N)
}

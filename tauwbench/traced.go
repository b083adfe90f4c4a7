package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/monitor"
	"github.com/iese-repro/tauw/internal/store"
)

// metricDef is one metric of BENCHMARK.json. on lists the workloads a
// per-layer metric's layer runs in; elsewhere the traced run leaves it out
// of its printed table and reports it as 0 in the JSON result, which must
// carry every per-layer metric.
type metricDef struct {
	name, unit, better string
	bound              float64
	on                 []string
}

const (
	wireW    = "stream-wire"
	httpW    = "stream-http"
	durableW = "durable-batch"
)

var allW = []string{wireW, httpW, durableW}

// endToEnd are the untraced run's metrics, printed for every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "req_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "req_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "server_cpu_us_per_step", unit: "us", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

// perLayer are the traced run's metrics. README.md maps each to the
// end-to-end metric it should move, and on which workload.
var perLayer = []metricDef{
	{name: "eval.build_study_s", unit: "s", better: "lower", on: allW},
	{name: "uw.base_estimate_ns", unit: "ns", better: "lower", on: allW},
	{name: "uw.taqim_predict_ns", unit: "ns", better: "lower", on: allW},
	{name: "core.wrapper_step_ns", unit: "ns", better: "lower", on: allW},
	{name: "core.pool_step_ns", unit: "ns", better: "lower", on: allW},
	{name: "core.series_open_close_ns", unit: "ns", better: "lower", on: allW},
	{name: "core.feedback_join_ns", unit: "ns", better: "lower", on: allW},
	{name: "core.feedback_joined_ratio", unit: "ratio", better: "higher", on: allW},
	{name: "core.batch_item_ns", unit: "ns", better: "lower", on: allW},
	{name: "core.batch_serial_item_ns", unit: "ns", better: "lower", on: allW},
	{name: "core.pool_step_traced_ns", unit: "ns", better: "lower", on: allW},
	{name: "trace.step_overhead_ns", unit: "ns", better: "lower", on: allW},
	{name: "simplex.gate_ns", unit: "ns", better: "lower", on: allW},
	{name: "monitor.feedback_observe_ns", unit: "ns", better: "lower", on: allW},
	{name: "wire.step_rtt_us", unit: "us", better: "lower", on: []string{wireW}},
	{name: "wire.batch_rtt_per_item_ns", unit: "ns", better: "lower", on: []string{durableW}},
	{name: "wire.lifecycle_rtt_us", unit: "us", better: "lower", on: []string{wireW}},
	{name: "tauserve.http_decode_us", unit: "us", better: "lower", on: []string{httpW}},
	{name: "tauserve.http_step_us", unit: "us", better: "lower", on: []string{httpW}},
	{name: "tauserve.http_encode_us", unit: "us", better: "lower", on: []string{httpW}},
	{name: "tauserve.http_rtt_us", unit: "us", better: "lower", on: []string{httpW}},
	{name: "store.wal_bytes_per_step", unit: "B/step", better: "lower", on: []string{durableW}},
	{name: "store.flushes", unit: "count", better: "lower", on: []string{durableW}},
	{name: "store.checkpoints", unit: "count", better: "lower", on: []string{durableW}},
	{name: "store.append_us", unit: "us", better: "lower", on: []string{durableW}},
	{name: "store.fsync_ms", unit: "ms", better: "lower", on: []string{durableW}},
	{name: "store.checkpoint_ms", unit: "ms", better: "lower", on: []string{durableW}},
	{name: "store.recover_ms", unit: "ms", better: "lower", on: []string{durableW}},
	{name: "runtime.gc_per_10k_steps", unit: "count", better: "lower", on: allW},
	{name: "runtime.heap_mb", unit: "MB", better: "lower", on: allW},
	{name: "client.steps_per_s", unit: "1/s", better: "higher", on: allW},
	{name: "client.cpu_us_per_step", unit: "us", better: "lower", on: allW},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", on: allW},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("tauwbench: metric " + name + " is not in the catalog")
}

// tracedRun is the traced run: after warm-up, an untraced window and a
// traced window of the same load back to back (their p50s give the tracing
// overhead), /metrics diffed across the traced window, then one-in-flight
// probes of the transport. On durable-batch the server is then drained
// with SIGTERM and its state dir recovered in process. It reports whether
// every recovery check held.
func tracedRun(cfg config, srv *server, drv driver, lay *layers, res *result, dir string) (bool, error) {
	total := float64(cfg.seconds) * 1e9
	win := int64(max(2e9, 0.35*total))
	probeFor := time.Duration(max(1e9, 0.15*total))
	start := now() + int64(time.Second)
	phases := []phase{
		{window: window{start, start + win}},
		{window: window{start + win, start + 2*win}, traced: true},
	}
	sc := newScraper(srv)
	wait := edges(srv, sc, []int64{phases[0].start, phases[1].start, phases[1].end}, false)
	prs := drv.run(phases)
	snaps, _, _, err := wait()
	if err != nil {
		return false, err
	}
	plain, traced := prs[0], prs[1]
	if plain.steps == 0 || traced.steps == 0 {
		return false, fmt.Errorf("no verified steps in a measured window")
	}
	latPlain := summarise(plain.samples, phases[0].window)
	latTraced := summarise(traced.samples, phases[1].window)
	printWindow("untraced", phases[0].window, plain, latPlain)
	printWindow("traced", phases[1].window, traced, latTraced)
	fmt.Printf("host steal %.1f%% untraced, %.1f%% traced\n", stealPct(snaps[0], snaps[1]), stealPct(snaps[1], snaps[2]))
	probe := drv.probe(probeFor)
	open := drv.openSeries()

	m := lay.metrics
	w := cfg.w.name
	d := metricsDelta{before: snaps[1].metrics, after: snaps[2].metrics}
	steps := float64(traced.steps)
	m["runtime.gc_per_10k_steps"] = d.diff("tauw_go_gc_cycles_total") / steps * 1e4
	m["runtime.heap_mb"] = snaps[2].metrics["tauw_go_heap_bytes"] / (1 << 20)
	m["client.steps_per_s"] = float64(plain.steps) / phases[0].seconds()
	m["client.cpu_us_per_step"] = (snaps[1].clientCPU - snaps[0].clientCPU) / float64(plain.steps) * 1e6
	m["bench.trace_overhead_pct"] = (latTraced.P50 - latPlain.P50) / latPlain.P50 * 100
	switch w {
	case wireW:
		m["wire.step_rtt_us"] = spanMedian(probe.logs, "wire.step") / 1e3
		m["wire.lifecycle_rtt_us"] = spanMedian(probe.logs, "wire.open", "wire.feedback", "wire.close") / 1e3
	case httpW:
		m["tauserve.http_decode_us"] = d.stageMean("decode", 1e6)
		m["tauserve.http_step_us"] = d.stageMean("step", 1e6)
		m["tauserve.http_encode_us"] = d.stageMean("encode", 1e6)
		m["tauserve.http_rtt_us"] = spanMedian(probe.logs, "http.step") / 1e3
	case durableW:
		m["wire.batch_rtt_per_item_ns"] = spanMedian(probe.logs, "wire.batch") / batchItems
		m["store.wal_bytes_per_step"] = d.diff("tauw_checkpoint_wal_bytes_total") / steps
		m["store.flushes"] = d.diff("tauw_checkpoint_flushes_total")
		m["store.checkpoints"] = d.diff("tauw_checkpoint_total")
		m["store.append_us"] = d.stageMean("store_append", 1e6)
		m["store.fsync_ms"] = d.stageMean("fsync", 1e3)
		m["store.checkpoint_ms"] = d.stageMean("checkpoint", 1e3)
	}

	// Spans: the in-process replays, the traced load window, the probes.
	logs := []*spanLog{lay.log}
	logs = append(logs, traced.logs...)
	logs = append(logs, probe.logs...)
	printSpans(summariseSpans(logs))
	spanPath := filepath.Join(dir, "spans.tsv")
	if err := writeSpans(spanPath, logs); err != nil {
		return false, err
	}
	fmt.Printf("spans written to %s\n", spanPath)

	ok := true
	drv.close()
	if err := srv.stop(); err != nil {
		return false, fmt.Errorf("stopping tauserve: %w", err)
	}
	if cfg.w.durable {
		recovered, mismatched, elapsed, err := recoverState(lay, srv.stateDir, drv.(*durableDriver))
		if err != nil {
			return false, err
		}
		m["store.recover_ms"] = elapsed.Seconds() * 1e3
		fmt.Printf("recovered %d series in %.1f ms; %d were open at drain; %d did not continue bit-exactly\n",
			recovered, m["store.recover_ms"], open, mismatched)
		if recovered != open || mismatched != 0 {
			fmt.Println("recovery check failed")
			ok = false
		}
	}

	for _, def := range perLayer {
		v, measured := m[def.name]
		applies := slices.Contains(def.on, w)
		if !applies {
			v = 0
		}
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		switch {
		case !applies:
		case !measured:
			fmt.Printf("layer %-30s not measured\n", def.name)
			ok = false
		default:
			fmt.Printf("layer %-30s %14.3f %s\n", def.name, v, def.unit)
		}
	}
	return ok, nil
}

// recoverState replays the drained server's state dir into a fresh pool
// built the way tauserve builds it, timing store.OpenFileStore plus
// store.Recover, and then steps every series open at drain once more in
// process: the next frame must match the reference bit for bit, so the
// restore is checked, not only counted. It returns the recovered series
// count and how many series failed to continue.
func recoverState(lay *layers, stateDir string, d *durableDriver) (recovered, mismatched int, elapsed time.Duration, err error) {
	pool, err := core.NewWrapperPool(lay.st.Base, lay.st.TAQIM, core.Config{}, 0,
		core.WithShards(0), core.WithMonitoring(servedRing), core.WithStateJournal())
	if err != nil {
		return 0, 0, 0, err
	}
	mon, err := monitor.New(monitor.Config{})
	if err != nil {
		return 0, 0, 0, err
	}
	leaves, err := monitor.NewLeafStats(lay.st.TAQIM.NumRegions(), 0)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	fs, err := store.OpenFileStore(stateDir)
	if err != nil {
		return 0, 0, 0, err
	}
	_, err = store.Recover(fs, pool, mon, leaves)
	elapsed = time.Since(start)
	fs.Close()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("recovering %s: %w", stateDir, err)
	}
	recovered = pool.Active()
	for _, s := range d.slots {
		if s.id == "" {
			continue
		}
		e := &d.o.enc[s.enc]
		r, err := pool.StepSeries(s.id, e.outcomes[s.pos], e.quality[s.pos])
		if err == nil {
			x := &d.o.exp[s.enc][s.pos]
			err = d.o.checkStep(s.enc, s.pos, &served{
				fused: r.Fused, u: r.Uncertainty, statelessU: r.Stateless.Uncertainty,
				seriesLen: r.SeriesLen, totalSteps: r.TotalSteps, modelVersion: r.ModelVersion,
				level: x.level, accepted: x.accepted,
			})
		}
		if err != nil {
			mismatched++
			if mismatched == 1 {
				fmt.Printf("recovered series %s does not continue its encounter: %v\n", s.id, err)
			}
		}
	}
	return recovered, mismatched, elapsed, nil
}

// spanMedian is the median duration, in ns, of the spans with any of the
// given names.
func spanMedian(logs []*spanLog, names ...string) float64 {
	var ds []float64
	for _, l := range logs {
		for _, s := range l.spans {
			if slices.Contains(names, s.name) {
				ds = append(ds, float64(s.end-s.start))
			}
		}
	}
	return median(ds)
}

func printSpans(stats []spanStat) {
	for _, s := range stats {
		perCall := median(s.perCallN)
		fmt.Printf("span %-52s spans %8d calls %9d  median/call %12.1f ns  self %.3f s\n",
			strings.TrimSpace(s.name), s.spans, s.calls, perCall, float64(s.self)/1e9)
	}
}

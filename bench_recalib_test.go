package tauw_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/dtree"
	"github.com/iese-repro/tauw/internal/uw"
)

// BenchmarkRecalibrate measures one full model refresh: clone the taQIM's
// tree, recompute every leaf's binomial bound from combined offline+online
// counts, and recompile the struct-of-arrays inference form — the work a
// drift alarm triggers. It runs off the serving path (the pool keeps
// stepping on the old revision), so its cost bounds recalibration latency,
// not serving latency.
func BenchmarkRecalibrate(b *testing.B) {
	st := study(b)
	n := st.TAQIM.NumRegions()
	ev := make([]dtree.LeafEvidence, n)
	for i := range ev {
		ev[i] = dtree.LeafEvidence{LeafID: i, Count: 500, Events: 50}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.TAQIM.Recalibrate(ev, dtree.RecalibConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSwapRing is BenchmarkPoolStepDuringSwap's feedback-ring cap.
const benchSwapRing = 64

// BenchmarkPoolStepDuringSwap is BenchmarkPoolStepParallel/sharded with a
// background goroutine hot-swapping the serving model about once per
// millisecond: the step path must stay allocation-free and within a few
// nanoseconds of the swap-free number — the zero-downtime claim, measured.
// The monitoring ring is on, as it would be in any deployment that can
// recalibrate at all.
func BenchmarkPoolStepDuringSwap(b *testing.B) {
	st := study(b)
	series := st.TestSeries[0]
	outcome, quality := series.Outcomes[0], series.Quality[0]
	pool, err := core.NewWrapperPool(st.Base, st.TAQIM, benchPoolCfg, 0, core.WithMonitoring(benchSwapRing))
	if err != nil {
		b.Fatal(err)
	}
	for id := 0; id < benchPoolTracks; id++ {
		if err := pool.Open(id); err != nil {
			b.Fatal(err)
		}
	}
	lifted, _, err := st.TAQIM.Recalibrate(
		[]dtree.LeafEvidence{{LeafID: 0, Count: 1000, Events: 500}}, dtree.RecalibConfig{})
	if err != nil {
		b.Fatal(err)
	}
	// Warm every track past its ring cap before the timer: a track's first
	// step allocates its scratch row and its ring grows to the cap by use,
	// both open/setup cost — the benchmark (and its alloc gate) measures
	// the steady-state step during swaps.
	for id := 0; id < benchPoolTracks; id++ {
		for i := 0; i <= benchSwapRing; i++ {
			if _, err := pool.Step(id, outcome, quality); err != nil {
				b.Fatal(err)
			}
		}
	}
	models := [2]*uw.QualityImpactModel{st.TAQIM, lifted}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := pool.SwapModel(models[i%2]); err != nil {
				b.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	perG := benchPoolTracks / runtime.GOMAXPROCS(0)
	if perG < 1 {
		perG = 1
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := (int(next.Add(1)-1) * perG) % benchPoolTracks
		i := 0
		for pb.Next() {
			i++
			if _, err := pool.Step(base+i%perG, outcome, quality); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

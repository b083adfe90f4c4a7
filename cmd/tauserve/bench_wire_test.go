// bench_wire_test.go measures the binary transport end to end over real
// loopback TCP: a live listener, the wire client, full frames both ways.
// The pipelined step benchmark is the transport's headline number — with
// many callers in flight per connection the per-op cost collapses to the
// server's dispatch cost plus an amortised fraction of one syscall, which
// is what the transport exists to buy over per-request HTTP.
package main

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/iese-repro/tauw/internal/augment"
	"github.com/iese-repro/tauw/internal/simplex"
	"github.com/iese-repro/tauw/internal/wire"
)

// benchWire builds a served study, attaches a binary listener on loopback,
// and returns a connected client.
func benchWire(b *testing.B, opts ...ServerOption) *wire.Client {
	b.Helper()
	benchServer(b) // builds studyVal and benchSrv
	srv, err := NewServer(studyVal.Base, studyVal.TAQIM, simplex.DefaultTSRPolicy(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeWire(ln) //nolint:errcheck // drain shuts it down
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.ShutdownWire(ctx) //nolint:errcheck // best-effort bench cleanup
	})
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func benchQuality() []float64 {
	q := make([]float64, len(augment.Names())+1)
	q[2] = 0.2
	q[len(q)-1] = 200
	return q
}

// BenchmarkWireStepPipelined is the transport's operating point: many
// concurrent callers share one connection, so requests pipeline and
// responses coalesce. ns/op is the per-step cost under that regime and the
// alloc counters must stay at zero — both sides run on pooled buffers.
func BenchmarkWireStepPipelined(b *testing.B) {
	c := benchWire(b)
	b.SetParallelism(32)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id, err := c.OpenSeries()
		if err != nil {
			b.Error(err)
			return
		}
		quality := benchQuality()
		var res wire.StepResult
		for pb.Next() {
			if err := c.Step(id, 14, quality, &res); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkWireStepSerial is the worst case: one caller, strict
// request/response lockstep, so every step pays a full round trip of
// syscalls. The spread to BenchmarkWireStepPipelined is the value of
// pipelining, not a regression.
func BenchmarkWireStepSerial(b *testing.B) {
	c := benchWire(b)
	id, err := c.OpenSeries()
	if err != nil {
		b.Fatal(err)
	}
	quality := benchQuality()
	var res wire.StepResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(id, 14, quality, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireBatchStep sends 512-item batch frames; ns/op divided by 512
// is the per-item cost with framing amortised across the batch. Buffers are
// capped at 64 records, as in the HTTP batch benchmarks, and warmUp untimed
// frames fill every buffer and grow every provenance ring to its cap
// (DefaultFeedbackRing, reached at step 129), so the timed frames measure
// the steady state whatever -benchtime is.
func BenchmarkWireBatchStep(b *testing.B) {
	const (
		batchSize = 512
		warmUp    = 160
	)
	c := benchWire(b, WithBufferLimit(64))
	quality := benchQuality()
	items := make([]wire.StepRequest, batchSize)
	for i := range items {
		id, err := c.OpenSeries()
		if err != nil {
			b.Fatal(err)
		}
		items[i] = wire.StepRequest{SeriesID: id, Outcome: 14, Quality: quality}
	}
	out := make([]wire.BatchItemResult, batchSize)
	step := func() {
		if err := c.StepBatch(items, out); err != nil {
			b.Fatal(err)
		}
		if out[0].Status != wire.StatusOK {
			b.Fatalf("item 0 status %d: %s", out[0].Status, out[0].Err)
		}
	}
	for i := 0; i < warmUp; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkWireFeedback measures one step plus its ground-truth join over
// the binary transport, mirroring BenchmarkServerFeedback's step+feedback
// round (stepping inside the loop keeps every feedback joinable regardless
// of the provenance ring size).
func BenchmarkWireFeedback(b *testing.B) {
	c := benchWire(b)
	id, err := c.OpenSeries()
	if err != nil {
		b.Fatal(err)
	}
	quality := benchQuality()
	var res wire.StepResult
	var fb wire.FeedbackResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(id, 14, quality, &res); err != nil {
			b.Fatal(err)
		}
		if err := c.Feedback(id, res.TotalSteps, 14, &fb); err != nil {
			b.Fatal(err)
		}
	}
}

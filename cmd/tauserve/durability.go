// durability.go wires the write-behind durability layer (internal/store)
// into the server: -state-dir opens a file store (checkpoint + WAL) in the
// given directory, serving state is restored from it before the listener
// opens, and a background checkpointer persists dirty series on its own
// clock while the step hot path stays storage-free. The drain sequence ends
// with a final full checkpoint, so a clean shutdown loses nothing and a
// crash loses at most the last -flush-interval of steps.
package main

import (
	"fmt"
	"time"

	"github.com/iese-repro/tauw/internal/store"
	"github.com/iese-repro/tauw/internal/xlog"
)

// durLog reports the durability layer's lifecycle (recovery, fault
// injection arming) as structured component=durability records; the
// checkpointer's own cycle reporting runs under component=store.
var durLog = xlog.New("durability")

// WithDurability arms the pool's close journal so series closes reach the
// WAL. Must be set when a store will be attached: without the journal a
// close between two flushes would leave the closed series' last snapshot in
// the log, and recovery would resurrect it.
func WithDurability() ServerOption {
	return func(o *serverOptions) { o.journal = true }
}

// attachDurability opens the state directory, restores serving state into
// the freshly built (still traffic-free) server, writes an immediate
// post-recovery checkpoint so the next crash recovers from a compact blob
// instead of re-replaying the old WAL tail, and starts the write-behind
// loop with cfg's cadence and fault handling (its Trace and Stages are the
// server's). faultInject wraps the file store in a store.FaultStore and
// routes POST /debug/fault, the chaos harness's control surface: testing
// only, never set it in production. It returns the running checkpointer;
// the caller owns the final Stop (see serveUntilShutdown).
func (s *Server) attachDurability(stateDir string, faultInject bool, cfg store.CheckpointConfig) (*store.Checkpointer, error) {
	fs, err := store.OpenFileStore(stateDir)
	if err != nil {
		return nil, fmt.Errorf("opening state dir: %w", err)
	}
	var st store.Store = fs
	if faultInject {
		// The chaos harness's store: every operation passes through the
		// runtime-scriptable fault plan that POST /debug/fault reprograms.
		s.faults = store.NewFaultStore(fs)
		st = s.faults
		durLog.Warn("fault injection ARMED (-fault-inject): POST /debug/fault reprograms the store fault plan — testing only")
	}
	start := time.Now()
	rs, err := store.Recover(st, s.pool, s.calib, s.leafStats)
	if err != nil {
		fs.Close()
		return nil, fmt.Errorf("recovering state from %s: %w", stateDir, err)
	}
	durLog.Info("recovered state",
		"dir", stateDir, "took", time.Since(start).Round(time.Millisecond),
		"series", rs.Series, "wal_records", rs.Records, "closes", rs.Closes,
		"model_version", rs.ModelVersion, "had_checkpoint", rs.HadCheckpoint)
	cfg.Trace, cfg.Stages = s.trace, s.stages
	cp, err := store.NewCheckpointer(st, s.pool, s.calib, s.leafStats, cfg)
	if err != nil {
		fs.Close()
		return nil, err
	}
	if err := cp.Checkpoint(); err != nil {
		fs.Close()
		return nil, fmt.Errorf("post-recovery checkpoint: %w", err)
	}
	cp.Start()
	s.expo.Checkpoint = cp
	// /readyz reports degraded mode from here on: before a store is
	// attached there is no durability to suspend.
	s.degraded = cp.Degraded
	return cp, nil
}

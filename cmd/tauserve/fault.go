// fault.go is the chaos harness's control surface: when the process is
// started with -fault-inject (and a -state-dir), the durable store is
// wrapped in a store.FaultStore and POST /debug/fault reprograms its fault
// plan at runtime — fail the next N operations, tear appends, inject
// latency, heal. The endpoint only exists when the flag armed it, is
// documented as a testing facility, and uses the stdlib JSON codec: nothing
// here is a hot path, and nothing here should ever run in production.
package main

import (
	//tauwcheck:ignore codecpure debug-only fault-plan endpoint, not a serving codec
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/iese-repro/tauw/internal/store"
)

// faultRequest scripts one reconfiguration of the fault plan. Clear runs
// first (so one request can atomically heal-then-rearm), then the schedule
// fields apply to the selected operation(s).
type faultRequest struct {
	// Op selects the store operation: "append", "checkpoint", "sync", or
	// "all" (also the default for an empty string).
	Op string `json:"op"`
	// After successful calls pass through before Count calls fail
	// (count < 0 = fail until cleared; count == 0 schedules nothing).
	After int `json:"after"`
	Count int `json:"count"`
	// Torn makes scheduled Append failures torn writes (tallied in
	// torn_bytes) instead of clean errors.
	Torn bool `json:"torn"`
	// LatencyMS injects a fixed delay before every selected operation
	// (0 leaves latency unchanged unless Clear is set).
	LatencyMS int `json:"latency_ms"`
	// Clear drops all schedules and latencies before applying the rest.
	Clear bool `json:"clear"`
}

// faultResponse echoes the store's fault counters after the change.
type faultResponse struct {
	Ops       map[string]uint64 `json:"ops"`
	Faults    map[string]uint64 `json:"faults"`
	TornBytes uint64            `json:"torn_bytes"`
}

func parseFaultOps(op string) ([]store.Op, error) {
	switch op {
	case "append":
		return []store.Op{store.OpAppend}, nil
	case "checkpoint":
		return []store.Op{store.OpCheckpoint}, nil
	case "sync":
		return []store.Op{store.OpSync}, nil
	case "", "all":
		return []store.Op{store.OpAppend, store.OpCheckpoint, store.OpSync}, nil
	}
	return nil, fmt.Errorf("unknown op %q (want append, checkpoint, sync, or all)", op)
}

// handleFault reprograms the fault plan (POST /debug/fault, only routed
// when -fault-inject armed the wrapper).
func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	var req faultRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxStepBodyBytes)).Decode(&req); err != nil {
		httpError(w, decodeStatus(err), "decoding request: "+err.Error())
		return
	}
	ops, err := parseFaultOps(req.Op)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Clear {
		s.faults.Clear()
	}
	for _, op := range ops {
		if req.Count != 0 {
			if req.Torn && op == store.OpAppend {
				s.faults.TornAppend(req.After, req.Count)
			} else {
				s.faults.FailOps(op, req.After, req.Count, nil)
			}
		}
		if req.LatencyMS > 0 {
			s.faults.SetLatency(op, time.Duration(req.LatencyMS)*time.Millisecond)
		}
	}
	st := s.faults.Stats()
	resp := faultResponse{
		Ops:       map[string]uint64{},
		Faults:    map[string]uint64{},
		TornBytes: st.TornBytes,
	}
	for op := store.Op(0); op < store.NumOps(); op++ {
		resp.Ops[op.String()] = st.Ops[op]
		resp.Faults[op.String()] = st.Faults[op]
	}
	writeJSON(w, http.StatusOK, resp, "fault")
}

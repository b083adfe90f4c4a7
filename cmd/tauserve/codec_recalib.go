// codec_recalib.go shapes the recalibration endpoint's body: POST
// /v1/recalibrate answers with the old/new model version and the per-leaf
// bound deltas of the swap, rendered by writeJSON like every other cold
// admin response.
package main

import (
	"github.com/iese-repro/tauw/internal/dtree"
	"github.com/iese-repro/tauw/internal/recalib"
)

// recalibLeafDelta is one leaf's audit line in the recalibration response.
type recalibLeafDelta struct {
	Leaf     int     `json:"leaf"`
	OldBound float64 `json:"old_bound"`
	NewBound float64 `json:"new_bound"`
	// OnlineCount/OnlineEvents are the evidence offered for the leaf;
	// PriorCount/PriorEvents the calibration statistics it held before.
	OnlineCount  int `json:"online_count"`
	OnlineEvents int `json:"online_events"`
	PriorCount   int `json:"prior_count"`
	PriorEvents  int `json:"prior_events"`
	// Refreshed reports whether the bound was recomputed (evidence met the
	// min-feedback-per-leaf guard) or kept.
	Refreshed bool `json:"refreshed"`
}

// recalibResponse is the body of POST /v1/recalibrate.
type recalibResponse struct {
	// Swapped reports whether a new model revision went live; when false,
	// Reason says which guard refused.
	Swapped    bool   `json:"swapped"`
	Reason     string `json:"reason,omitempty"`
	OldVersion uint64 `json:"old_version"`
	NewVersion uint64 `json:"new_version"`
	// Leaves is the per-leaf delta audit (null when no swap happened).
	Leaves []recalibLeafDelta `json:"leaves"`
}

// recalibResponseFrom shapes a policy report into the wire form.
func recalibResponseFrom(rep recalib.Report) recalibResponse {
	resp := recalibResponse{
		Swapped:    rep.Swapped,
		Reason:     rep.Reason,
		OldVersion: rep.OldVersion,
		NewVersion: rep.NewVersion,
	}
	if rep.Deltas != nil {
		resp.Leaves = make([]recalibLeafDelta, len(rep.Deltas))
		for i, d := range rep.Deltas {
			resp.Leaves[i] = leafDeltaFrom(d)
		}
	}
	return resp
}

func leafDeltaFrom(d dtree.LeafDelta) recalibLeafDelta {
	return recalibLeafDelta{
		Leaf:         d.LeafID,
		OldBound:     d.OldValue,
		NewBound:     d.NewValue,
		OnlineCount:  d.OnlineCount,
		OnlineEvents: d.OnlineEvents,
		PriorCount:   d.PriorCount,
		PriorEvents:  d.PriorEvents,
		Refreshed:    d.Refreshed,
	}
}

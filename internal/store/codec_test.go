package store

import (
	"bytes"
	"math"
	"testing"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/fusion"
	"github.com/iese-repro/tauw/internal/monitor"
)

// sampleSeriesState covers every field class: negative track (series
// space), eviction (Total > len(Records)), outcome stats with non-trivial
// certainty sums, a majority tally with a recency clock, and a provenance
// ring with taken and untaken slots.
func sampleSeriesState() core.SeriesState {
	return core.SeriesState{
		Track: -3,
		Total: 12,
		Records: []core.Record{
			{Outcome: 1, Uncertainty: 0.25},
			{Outcome: -2, Uncertainty: math.Nextafter(0, 1)},
			{Outcome: 0, Uncertainty: 1},
		},
		Stats: []core.OutcomeStat{
			{Outcome: -2, Count: 1, Certainty: math.Nextafter(1, 0)},
			{Outcome: 0, Count: 1, Certainty: 0},
			{Outcome: 1, Count: 1, Certainty: 0.75},
		},
		HasTally: true,
		Tally: fusion.TallyState{
			Clock: 12,
			Votes: []fusion.TallyVote{
				{Outcome: -2, Count: 1, Last: 11},
				{Outcome: 1, Count: 2, Last: 12},
			},
		},
		Ring: []core.ProvEntry{
			{Step: 11, Uncertainty: 0.5, ModelVersion: 1, Fused: 1, Leaf: 3, Taken: true},
			{Step: 12, Uncertainty: 0.125, ModelVersion: 2, Fused: -2, Leaf: -1},
		},
	}
}

func seriesStatesEqual(a, b *core.SeriesState) bool {
	if a.Track != b.Track || a.Total != b.Total || a.HasTally != b.HasTally {
		return false
	}
	if len(a.Records) != len(b.Records) || len(a.Stats) != len(b.Stats) || len(a.Ring) != len(b.Ring) {
		return false
	}
	for i := range a.Records {
		ra, rb := &a.Records[i], &b.Records[i]
		if ra.Outcome != rb.Outcome || math.Float64bits(ra.Uncertainty) != math.Float64bits(rb.Uncertainty) {
			return false
		}
	}
	for i := range a.Stats {
		if a.Stats[i].Outcome != b.Stats[i].Outcome || a.Stats[i].Count != b.Stats[i].Count ||
			math.Float64bits(a.Stats[i].Certainty) != math.Float64bits(b.Stats[i].Certainty) {
			return false
		}
	}
	if a.Tally.Clock != b.Tally.Clock || len(a.Tally.Votes) != len(b.Tally.Votes) {
		return false
	}
	for i := range a.Tally.Votes {
		if a.Tally.Votes[i] != b.Tally.Votes[i] {
			return false
		}
	}
	for i := range a.Ring {
		if a.Ring[i] != b.Ring[i] {
			return false
		}
	}
	return true
}

func TestSeriesRecordRoundtrip(t *testing.T) {
	want := sampleSeriesState()
	rec := AppendSeriesRecord(nil, &want)
	var got core.SeriesState
	if err := DecodeSeriesRecord(rec, &got); err != nil {
		t.Fatal(err)
	}
	if !seriesStatesEqual(&want, &got) {
		t.Fatalf("roundtrip diverged:\nwant %+v\ngot  %+v", want, got)
	}
	// Decoding into a dirty reused state must fully overwrite it.
	if err := DecodeSeriesRecord(rec, &got); err != nil {
		t.Fatal(err)
	}
	if !seriesStatesEqual(&want, &got) {
		t.Fatalf("reused-state roundtrip diverged")
	}
	// An empty series (fresh open, no steps) roundtrips too.
	empty := core.SeriesState{Track: 7}
	rec2 := AppendSeriesRecord(nil, &empty)
	var got2 core.SeriesState
	if err := DecodeSeriesRecord(rec2, &got2); err != nil {
		t.Fatal(err)
	}
	if !seriesStatesEqual(&empty, &got2) {
		t.Fatalf("empty-series roundtrip diverged: %+v", got2)
	}
}

func TestSeriesRecordRejectsTruncation(t *testing.T) {
	st := sampleSeriesState()
	rec := AppendSeriesRecord(nil, &st)
	var got core.SeriesState
	for cut := 0; cut < len(rec); cut++ {
		if err := DecodeSeriesRecord(rec[:cut], &got); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", cut, len(rec))
		}
	}
	// Trailing garbage is rejected, not ignored.
	if err := DecodeSeriesRecord(append(append([]byte(nil), rec...), 0xff), &got); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

func TestCloseRecordRoundtrip(t *testing.T) {
	for _, track := range []int{0, 1, -5, 1 << 40} {
		rec := AppendCloseRecord(nil, track)
		got, err := DecodeCloseRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got != track {
			t.Fatalf("close roundtrip: got %d, want %d", got, track)
		}
	}
	if _, err := DecodeCloseRecord([]byte{kindClose}); err == nil {
		t.Fatal("empty close payload decoded")
	}
}

func TestMetaRecordRoundtrip(t *testing.T) {
	want := Meta{SeriesCounter: 42, ModelVersion: 7, ModelJSON: []byte(`{"leaves":[]}`)}
	rec := AppendMetaRecord(nil, &want)
	var got Meta
	if err := DecodeMetaRecord(rec, &got); err != nil {
		t.Fatal(err)
	}
	if got.SeriesCounter != want.SeriesCounter || got.ModelVersion != want.ModelVersion ||
		string(got.ModelJSON) != string(want.ModelJSON) {
		t.Fatalf("meta roundtrip: got %+v, want %+v", got, want)
	}
	// Version-1 meta has no model payload.
	v1 := Meta{SeriesCounter: 3, ModelVersion: 1}
	rec = AppendMetaRecord(nil, &v1)
	if err := DecodeMetaRecord(rec, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.ModelJSON) != 0 {
		t.Fatalf("v1 meta decoded model payload %q", got.ModelJSON)
	}
	// The construction-model fingerprint trails the record.
	fp := Meta{SeriesCounter: 3, ModelVersion: 2, ModelJSON: []byte(`{}`)}
	fp.Fingerprint[0], fp.Fingerprint[31] = 0xab, 0xcd
	rec = AppendMetaRecord(nil, &fp)
	if err := DecodeMetaRecord(rec, &got); err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != fp.Fingerprint || got.ModelVersion != 2 || string(got.ModelJSON) != `{}` {
		t.Fatalf("fingerprinted meta roundtrip: got %+v, want %+v", got, fp)
	}
	if err := DecodeMetaRecord(rec[:len(rec)-1], &got); err == nil {
		t.Fatal("truncated fingerprint decoded")
	}
	if err := DecodeMetaRecord(append(rec, 0), &got); err == nil {
		t.Fatal("trailing byte after fingerprint decoded")
	}
}

// TestMetaRecordLegacyBytes pins the layout of records written before meta
// records carried a fingerprint: the bytes below are what the encoder
// produced then, and a record without a fingerprint still encodes to them.
func TestMetaRecordLegacyBytes(t *testing.T) {
	for _, tc := range []struct {
		rec  []byte
		want Meta
	}{
		{[]byte{0x3, 0xac, 0x2, 0x1, 0x0}, Meta{SeriesCounter: 300, ModelVersion: 1}},
		{[]byte{0x3, 0x7, 0x2, 0x7, 0x7b, 0x22, 0x78, 0x22, 0x3a, 0x31, 0x7d},
			Meta{SeriesCounter: 7, ModelVersion: 2, ModelJSON: []byte(`{"x":1}`)}},
	} {
		var got Meta
		if err := DecodeMetaRecord(tc.rec, &got); err != nil {
			t.Fatalf("legacy record %x: %v", tc.rec, err)
		}
		if got.SeriesCounter != tc.want.SeriesCounter || got.ModelVersion != tc.want.ModelVersion ||
			string(got.ModelJSON) != string(tc.want.ModelJSON) || got.Fingerprint != (core.Fingerprint{}) {
			t.Fatalf("legacy record %x decoded %+v, want %+v", tc.rec, got, tc.want)
		}
		if re := AppendMetaRecord(nil, &tc.want); !bytes.Equal(re, tc.rec) {
			t.Fatalf("unfingerprinted meta encodes %x, legacy layout is %x", re, tc.rec)
		}
	}
}

func sampleMonitorRecord() MonitorRecord {
	r := MonitorRecord{
		HasMonitor: true,
		Monitor: monitor.MonitorState{
			Shards: 2, Window: 4, Bins: 2,
			ShardStates: []monitor.ShardState{
				{
					N: 3, Correct: 2, BrierSum: 0.375,
					Bins:   []monitor.BinState{{Count: 2, Errors: 1, USum: 0.5}, {Count: 1, USum: 0.9}},
					Window: []float64{0.01, 0.25, 0.09},
					WinSum: 0.35,
				},
				{
					Bins: []monitor.BinState{{}, {}},
				},
			},
			Drift: monitor.DriftState{N: 3, Mean: 0.11, MT: -0.5, MinMT: -1.5, Alarms: 1, Active: true},
		},
		HasLeaves: true,
		Leaves: monitor.LeafState{
			Leaves:       []monitor.LeafCounts{{Count: 5, Events: 2}, {}, {Count: 1, Events: 1}},
			Unattributed: monitor.LeafCounts{Count: 9, Events: 4},
		},
	}
	r.PoolStats.UncertaintyFP = 12345
	r.PoolStats.Outcomes[0] = 3
	r.PoolStats.Outcomes[len(r.PoolStats.Outcomes)-1] = 8
	return r
}

func monitorRecordsEqual(a, b *MonitorRecord) bool {
	if a.HasMonitor != b.HasMonitor || a.HasLeaves != b.HasLeaves || a.PoolStats != b.PoolStats {
		return false
	}
	am, bm := &a.Monitor, &b.Monitor
	if am.Shards != bm.Shards || am.Window != bm.Window || am.Bins != bm.Bins ||
		am.Drift != bm.Drift || len(am.ShardStates) != len(bm.ShardStates) {
		return false
	}
	for i := range am.ShardStates {
		sa, sb := &am.ShardStates[i], &bm.ShardStates[i]
		if sa.N != sb.N || sa.Correct != sb.Correct ||
			math.Float64bits(sa.BrierSum) != math.Float64bits(sb.BrierSum) ||
			math.Float64bits(sa.WinSum) != math.Float64bits(sb.WinSum) ||
			len(sa.Bins) != len(sb.Bins) || len(sa.Window) != len(sb.Window) {
			return false
		}
		for j := range sa.Bins {
			if sa.Bins[j] != sb.Bins[j] {
				return false
			}
		}
		for j := range sa.Window {
			if math.Float64bits(sa.Window[j]) != math.Float64bits(sb.Window[j]) {
				return false
			}
		}
	}
	if len(a.Leaves.Leaves) != len(b.Leaves.Leaves) || a.Leaves.Unattributed != b.Leaves.Unattributed {
		return false
	}
	for i := range a.Leaves.Leaves {
		if a.Leaves.Leaves[i] != b.Leaves.Leaves[i] {
			return false
		}
	}
	return true
}

func TestMonitorRecordRoundtrip(t *testing.T) {
	want := sampleMonitorRecord()
	rec := AppendMonitorRecord(nil, &want)
	var got MonitorRecord
	if err := DecodeMonitorRecord(rec, &got); err != nil {
		t.Fatal(err)
	}
	if !monitorRecordsEqual(&want, &got) {
		t.Fatalf("monitor roundtrip diverged:\nwant %+v\ngot  %+v", want, got)
	}
	// Decoding a record without monitor/leaf payloads into the reused (now
	// populated) struct must clear it.
	bare := MonitorRecord{}
	bare.PoolStats.UncertaintyFP = 1
	rec = AppendMonitorRecord(nil, &bare)
	if err := DecodeMonitorRecord(rec, &got); err != nil {
		t.Fatal(err)
	}
	if !monitorRecordsEqual(&bare, &got) {
		t.Fatalf("bare monitor roundtrip diverged: %+v", got)
	}
}

func TestMonitorRecordRejectsBadBucket(t *testing.T) {
	rec := []byte{kindMonitor, 0, 0}
	rec = appendUvarint(rec, 0) // UncertaintyFP
	rec = appendUvarint(rec, 1) // one pair
	rec = appendUvarint(rec, 200)
	rec = appendUvarint(rec, 1)
	var got MonitorRecord
	if err := DecodeMonitorRecord(rec, &got); err == nil {
		t.Fatal("out-of-range outcome bucket decoded")
	}
}

func TestBlobWalk(t *testing.T) {
	st := sampleSeriesState()
	var blob []byte
	blob = AppendBlobRecord(blob, AppendMetaRecord(nil, &Meta{SeriesCounter: 1, ModelVersion: 1}))
	blob = AppendBlobRecord(blob, AppendSeriesRecord(nil, &st))
	blob = AppendBlobRecord(blob, AppendCloseRecord(nil, 4))
	var kinds []byte
	err := WalkBlob(blob, func(rec []byte) error {
		k, err := RecordKind(rec)
		if err != nil {
			return err
		}
		kinds = append(kinds, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(kinds) != string([]byte{kindMeta, kindSeries, kindClose}) {
		t.Fatalf("walked kinds %v", kinds)
	}
	// A truncated blob fails instead of yielding a short record.
	if err := WalkBlob(blob[:len(blob)-1], func([]byte) error { return nil }); err == nil {
		t.Fatal("truncated blob walked without error")
	}
}

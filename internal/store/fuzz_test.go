package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/iese-repro/tauw/internal/core"
)

// FuzzDecodeRecord throws arbitrary bytes at every record decoder plus the
// blob walker: none may panic or over-allocate (the count guards validate
// element counts against remaining payload before any make), and a record
// that decodes must re-encode into something that decodes to the same
// state.
func FuzzDecodeRecord(f *testing.F) {
	st := sampleSeriesState()
	f.Add(AppendSeriesRecord(nil, &st))
	f.Add(AppendCloseRecord(nil, -7))
	f.Add(AppendMetaRecord(nil, &Meta{SeriesCounter: 9, ModelVersion: 2, ModelJSON: []byte(`{}`)}))
	f.Add(AppendMetaRecord(nil, &Meta{SeriesCounter: 9, ModelVersion: 1, Fingerprint: core.Fingerprint{1, 2, 3}}))
	mr := sampleMonitorRecord()
	f.Add(AppendMonitorRecord(nil, &mr))
	var blob []byte
	blob = AppendBlobRecord(blob, AppendCloseRecord(nil, 1))
	blob = AppendBlobRecord(blob, AppendMetaRecord(nil, &Meta{SeriesCounter: 1, ModelVersion: 1}))
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte{kindSeries})
	f.Add([]byte{kindMonitor, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		var ss core.SeriesState
		if err := DecodeSeriesRecord(data, &ss); err == nil {
			re := AppendSeriesRecord(nil, &ss)
			var back core.SeriesState
			if err := DecodeSeriesRecord(re, &back); err != nil {
				t.Fatalf("re-encoded series record failed to decode: %v", err)
			}
			if !seriesStatesEqual(&ss, &back) {
				t.Fatalf("series re-encode diverged")
			}
		}
		if track, err := DecodeCloseRecord(data); err == nil {
			re := AppendCloseRecord(nil, track)
			if got, err := DecodeCloseRecord(re); err != nil || got != track {
				t.Fatalf("close re-encode: got %d, %v", got, err)
			}
		}
		var m Meta
		if err := DecodeMetaRecord(data, &m); err == nil {
			re := AppendMetaRecord(nil, &m)
			var back Meta
			if err := DecodeMetaRecord(re, &back); err != nil {
				t.Fatalf("re-encoded meta record failed to decode: %v", err)
			}
			if back.SeriesCounter != m.SeriesCounter || back.ModelVersion != m.ModelVersion ||
				!bytes.Equal(back.ModelJSON, m.ModelJSON) || back.Fingerprint != m.Fingerprint {
				t.Fatalf("meta re-encode diverged")
			}
		}
		var mr MonitorRecord
		if err := DecodeMonitorRecord(data, &mr); err == nil {
			re := AppendMonitorRecord(nil, &mr)
			var back MonitorRecord
			if err := DecodeMonitorRecord(re, &back); err != nil {
				t.Fatalf("re-encoded monitor record failed to decode: %v", err)
			}
			if !monitorRecordsEqual(&mr, &back) {
				t.Fatalf("monitor re-encode diverged")
			}
		}
		WalkBlob(data, func(rec []byte) error { return nil }) //nolint:errcheck // must not panic
	})
}

// FuzzWALRecover writes arbitrary bytes as a WAL file and requires the
// store to open, recover whatever frames survive scrutiny, and then accept
// fresh appends and a checkpoint on top — a corrupt log never bricks the
// store.
func FuzzWALRecover(f *testing.F) {
	// Seed: a well-formed two-frame WAL, produced by the store itself.
	dir, err := os.MkdirTemp("", "walfuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	s, err := OpenFileStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Append([]byte("frame-one")); err != nil {
		f.Fatal(err)
	}
	if err := s.Append([]byte("frame-two")); err != nil {
		f.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		f.Fatal(err)
	}
	s.Close()
	wal, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal)
	f.Add(wal[:len(wal)-3])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStore(dir)
		if err != nil {
			t.Fatalf("open over arbitrary wal: %v", err)
		}
		var n int
		if err := s.Recover(
			func([]byte) error { return nil },
			func(rec []byte) error { n++; return nil },
		); err != nil {
			t.Fatalf("recover over arbitrary wal: %v", err)
		}
		if err := s.Append([]byte("fresh")); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint([]byte("cp")); err != nil {
			t.Fatal(err)
		}
		s.Close()
		// The store must come back with exactly the checkpoint.
		s2, err := OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		var cp []byte
		if err := s2.Recover(
			func(blob []byte) error { cp = append([]byte(nil), blob...); return nil },
			func([]byte) error { return nil },
		); err != nil {
			t.Fatal(err)
		}
		if string(cp) != "cp" {
			t.Fatalf("checkpoint after recovery cycle = %q", cp)
		}
	})
}

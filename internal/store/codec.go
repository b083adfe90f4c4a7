// Package store is the durability layer: a compact versioned binary
// encoding of the wrapper pool's restorable state (internal/core and
// internal/monitor export it as flat snapshot structs), a Store contract
// for persisting it, and the write-behind checkpointer that ties the two
// together without touching the serving hot path.
//
// codec.go defines the record encoding, in the same discipline as the wire
// codec: reflection-free append-based encoders over caller-owned buffers,
// decoders that validate every length against the remaining payload before
// allocating, floats as IEEE-754 bits (snapshot/restore must be
// bit-exact), and varints for the counters (most are small; series totals
// and LSNs grow without bound). Every record starts with a kind byte, so a
// log is a self-describing sequence and future kinds extend the format
// without renumbering.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/fusion"
	"github.com/iese-repro/tauw/internal/monitor"
)

// Record kinds. A close record retires a track; a meta record carries the
// pool-level scalars (series counter, serving model); a monitor record
// carries the feedback-side accumulators.
const (
	kindSeries  = 0x01
	kindClose   = 0x02
	kindMeta    = 0x03
	kindMonitor = 0x04
)

var (
	errShortRecord = errors.New("store: truncated record")
	errIntRange    = errors.New("store: integer field out of range")
)

// ---------------------------------------------------------- primitives --

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// decoder is a cursor over one record with a sticky error: a short or
// malformed field poisons every subsequent read, so call sites read
// straight through and check err once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errShortRecord)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errShortRecord)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail(errShortRecord)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail(errShortRecord)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// skip discards the next n bytes.
func (d *decoder) skip(n int) {
	if d.err != nil {
		return
	}
	if len(d.b) < n {
		d.fail(errShortRecord)
		return
	}
	d.b = d.b[n:]
}

func (d *decoder) bytes() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// count reads an element count and validates it against the bytes left:
// every element occupies at least minBytes, so a count that could not
// possibly be backed by the payload is rejected before anything is
// allocated (the fuzz targets lean on this).
func (d *decoder) count(minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)/minBytes) {
		d.fail(fmt.Errorf("%w: count %d exceeds %d remaining bytes", errShortRecord, v, len(d.b)))
		return 0
	}
	return int(v)
}

// int63 narrows a uvarint into a non-negative int.
func (d *decoder) int63() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > math.MaxInt64 {
		d.fail(errIntRange)
		return 0
	}
	return int(v)
}

// intv narrows a varint into an int.
func (d *decoder) intv() int {
	return int(d.varint())
}

// finish rejects trailing garbage — records are exact, not prefixes.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("store: %d trailing bytes after record", len(d.b))
	}
	return nil
}

// ------------------------------------------------------- series record --

// AppendSeriesRecord encodes one track snapshot. Each buffered record is
// its outcome, its uncertainty and a quality-factor count that is always 0:
// the buffer no longer keeps a step's quality vector, and the count keeps
// the layout that records written while it did still use (see
// DecodeSeriesRecord).
func AppendSeriesRecord(dst []byte, st *core.SeriesState) []byte {
	dst = append(dst, kindSeries)
	dst = appendVarint(dst, int64(st.Track))
	dst = appendUvarint(dst, uint64(st.Total))
	dst = appendUvarint(dst, uint64(len(st.Records)))
	for i := range st.Records {
		r := &st.Records[i]
		dst = appendVarint(dst, int64(r.Outcome))
		dst = appendF64(dst, r.Uncertainty)
		dst = append(dst, 0) // quality-factor count
	}
	dst = appendUvarint(dst, uint64(len(st.Stats)))
	for i := range st.Stats {
		s := &st.Stats[i]
		dst = appendVarint(dst, int64(s.Outcome))
		dst = appendUvarint(dst, uint64(s.Count))
		dst = appendF64(dst, s.Certainty)
	}
	if st.HasTally {
		dst = append(dst, 1)
		dst = appendUvarint(dst, st.Tally.Clock)
		dst = appendUvarint(dst, uint64(len(st.Tally.Votes)))
		for i := range st.Tally.Votes {
			v := &st.Tally.Votes[i]
			dst = appendVarint(dst, int64(v.Outcome))
			dst = appendUvarint(dst, uint64(v.Count))
			dst = appendUvarint(dst, v.Last)
		}
	} else {
		dst = append(dst, 0)
	}
	dst = appendUvarint(dst, uint64(len(st.Ring)))
	for i := range st.Ring {
		e := &st.Ring[i]
		dst = appendUvarint(dst, e.Step)
		dst = appendF64(dst, e.Uncertainty)
		dst = appendUvarint(dst, e.ModelVersion)
		dst = appendVarint(dst, int64(e.Fused))
		dst = appendVarint(dst, int64(e.Leaf))
		taken := byte(0)
		if e.Taken {
			taken = 1
		}
		dst = append(dst, taken)
	}
	return dst
}

// DecodeSeriesRecord decodes a series record into st, reusing its slice
// capacity. A record written while the buffer still kept each step's
// quality vector carries those factors after each record's count; they are
// read past and dropped, since nothing a restored track computes reads
// them.
func DecodeSeriesRecord(rec []byte, st *core.SeriesState) error {
	if len(rec) < 1 || rec[0] != kindSeries {
		return fmt.Errorf("store: not a series record")
	}
	d := decoder{b: rec[1:]}
	st.Track = d.intv()
	st.Total = d.int63()
	nrec := d.count(10) // varint + f64 + count per record at minimum
	st.Records = st.Records[:0]
	for i := 0; i < nrec && d.err == nil; i++ {
		var r core.Record
		r.Outcome = d.intv()
		r.Uncertainty = d.f64()
		d.skip(8 * d.count(8))
		st.Records = append(st.Records, r)
	}
	nstats := d.count(3)
	st.Stats = st.Stats[:0]
	for i := 0; i < nstats && d.err == nil; i++ {
		st.Stats = append(st.Stats, core.OutcomeStat{
			Outcome:   d.intv(),
			Count:     d.int63(),
			Certainty: d.f64(),
		})
	}
	st.HasTally = d.byte() != 0
	st.Tally.Clock = 0
	st.Tally.Votes = st.Tally.Votes[:0]
	if st.HasTally {
		st.Tally.Clock = d.uvarint()
		nvotes := d.count(3)
		for i := 0; i < nvotes && d.err == nil; i++ {
			st.Tally.Votes = append(st.Tally.Votes, fusion.TallyVote{
				Outcome: d.intv(),
				Count:   d.int63(),
				Last:    d.uvarint(),
			})
		}
	}
	nring := d.count(13)
	st.Ring = st.Ring[:0]
	for i := 0; i < nring && d.err == nil; i++ {
		st.Ring = append(st.Ring, core.ProvEntry{
			Step:         d.uvarint(),
			Uncertainty:  d.f64(),
			ModelVersion: d.uvarint(),
			Fused:        int32(d.intv()),
			Leaf:         int32(d.intv()),
			Taken:        d.byte() != 0,
		})
	}
	return d.finish()
}

// -------------------------------------------------------- close record --

// AppendCloseRecord encodes a track retirement.
func AppendCloseRecord(dst []byte, track int) []byte {
	dst = append(dst, kindClose)
	return appendVarint(dst, int64(track))
}

// DecodeCloseRecord decodes a close record.
func DecodeCloseRecord(rec []byte) (track int, err error) {
	if len(rec) < 1 || rec[0] != kindClose {
		return 0, fmt.Errorf("store: not a close record")
	}
	d := decoder{b: rec[1:]}
	track = d.intv()
	return track, d.finish()
}

// --------------------------------------------------------- meta record --

// Meta carries the pool-level scalars: the series-id counter, the serving
// model and the fingerprint of the pool's construction model. ModelJSON is
// empty while the pool still serves its construction-time model (version
// 1) — that model is loaded again at startup, so only hot-swapped revisions
// persist. Fingerprint binds the state to that construction model (see
// Recover); it is zero in records written before it existed.
type Meta struct {
	SeriesCounter uint64
	ModelVersion  uint64
	ModelJSON     []byte
	Fingerprint   core.Fingerprint
}

// AppendMetaRecord encodes the pool-level scalars. A non-zero fingerprint
// trails the record as raw bytes, so a record without one keeps the layout
// older readers and writers use.
func AppendMetaRecord(dst []byte, m *Meta) []byte {
	dst = append(dst, kindMeta)
	dst = appendUvarint(dst, m.SeriesCounter)
	dst = appendUvarint(dst, m.ModelVersion)
	dst = appendUvarint(dst, uint64(len(m.ModelJSON)))
	dst = append(dst, m.ModelJSON...)
	if m.Fingerprint != (core.Fingerprint{}) {
		dst = append(dst, m.Fingerprint[:]...)
	}
	return dst
}

// DecodeMetaRecord decodes a meta record; ModelJSON aliases rec.
func DecodeMetaRecord(rec []byte, m *Meta) error {
	if len(rec) < 1 || rec[0] != kindMeta {
		return fmt.Errorf("store: not a meta record")
	}
	d := decoder{b: rec[1:]}
	m.SeriesCounter = d.uvarint()
	m.ModelVersion = d.uvarint()
	m.ModelJSON = d.bytes()
	m.Fingerprint = core.Fingerprint{}
	if d.err == nil && len(d.b) > 0 {
		if len(d.b) < len(m.Fingerprint) {
			d.fail(errShortRecord)
		} else {
			d.b = d.b[copy(m.Fingerprint[:], d.b):]
		}
	}
	return d.finish()
}

// ------------------------------------------------------ monitor record --

// MonitorRecord bundles the feedback-side state checkpointed together: the
// reliability accumulators (optional — tauserve can run unmonitored), the
// per-leaf recalibration evidence (optional), and the pool's step
// counters.
type MonitorRecord struct {
	HasMonitor bool
	Monitor    monitor.MonitorState
	HasLeaves  bool
	Leaves     monitor.LeafState
	PoolStats  core.PoolStats
}

// AppendMonitorRecord encodes the feedback-side state.
func AppendMonitorRecord(dst []byte, r *MonitorRecord) []byte {
	dst = append(dst, kindMonitor)
	if r.HasMonitor {
		dst = append(dst, 1)
		m := &r.Monitor
		dst = appendUvarint(dst, uint64(m.Shards))
		dst = appendUvarint(dst, uint64(m.Window))
		dst = appendUvarint(dst, uint64(m.Bins))
		dst = appendUvarint(dst, uint64(len(m.ShardStates)))
		for i := range m.ShardStates {
			sh := &m.ShardStates[i]
			dst = appendUvarint(dst, sh.N)
			dst = appendUvarint(dst, sh.Correct)
			dst = appendF64(dst, sh.BrierSum)
			dst = appendUvarint(dst, uint64(len(sh.Bins)))
			for j := range sh.Bins {
				dst = appendUvarint(dst, sh.Bins[j].Count)
				dst = appendUvarint(dst, sh.Bins[j].Errors)
				dst = appendF64(dst, sh.Bins[j].USum)
			}
			dst = appendUvarint(dst, uint64(len(sh.Window)))
			for _, se := range sh.Window {
				dst = appendF64(dst, se)
			}
			dst = appendF64(dst, sh.WinSum)
		}
		dr := &m.Drift
		dst = appendUvarint(dst, uint64(dr.N))
		dst = appendF64(dst, dr.Mean)
		dst = appendF64(dst, dr.MT)
		dst = appendF64(dst, dr.MinMT)
		dst = appendUvarint(dst, uint64(dr.Alarms))
		active := byte(0)
		if dr.Active {
			active = 1
		}
		dst = append(dst, active)
	} else {
		dst = append(dst, 0)
	}
	if r.HasLeaves {
		dst = append(dst, 1)
		dst = appendUvarint(dst, uint64(len(r.Leaves.Leaves)))
		for i := range r.Leaves.Leaves {
			dst = appendUvarint(dst, r.Leaves.Leaves[i].Count)
			dst = appendUvarint(dst, r.Leaves.Leaves[i].Events)
		}
		dst = appendUvarint(dst, r.Leaves.Unattributed.Count)
		dst = appendUvarint(dst, r.Leaves.Unattributed.Events)
	} else {
		dst = append(dst, 0)
	}
	dst = appendUvarint(dst, r.PoolStats.UncertaintyFP)
	nonzero := 0
	for _, c := range r.PoolStats.Outcomes {
		if c > 0 {
			nonzero++
		}
	}
	dst = appendUvarint(dst, uint64(nonzero))
	for b, c := range r.PoolStats.Outcomes {
		if c > 0 {
			dst = appendUvarint(dst, uint64(b))
			dst = appendUvarint(dst, c)
		}
	}
	return dst
}

// DecodeMonitorRecord decodes a monitor record into r, reusing its slice
// capacity.
func DecodeMonitorRecord(rec []byte, r *MonitorRecord) error {
	if len(rec) < 1 || rec[0] != kindMonitor {
		return fmt.Errorf("store: not a monitor record")
	}
	d := decoder{b: rec[1:]}
	r.HasMonitor = d.byte() != 0
	if r.HasMonitor {
		m := &r.Monitor
		m.Shards = d.int63()
		m.Window = d.int63()
		m.Bins = d.int63()
		nsh := d.count(11)
		if cap(m.ShardStates) < nsh {
			m.ShardStates = make([]monitor.ShardState, nsh)
		}
		m.ShardStates = m.ShardStates[:nsh]
		for i := 0; i < nsh && d.err == nil; i++ {
			sh := &m.ShardStates[i]
			sh.N = d.uvarint()
			sh.Correct = d.uvarint()
			sh.BrierSum = d.f64()
			nbins := d.count(10)
			sh.Bins = sh.Bins[:0]
			for j := 0; j < nbins && d.err == nil; j++ {
				sh.Bins = append(sh.Bins, monitor.BinState{
					Count:  d.uvarint(),
					Errors: d.uvarint(),
					USum:   d.f64(),
				})
			}
			nwin := d.count(8)
			sh.Window = sh.Window[:0]
			for j := 0; j < nwin && d.err == nil; j++ {
				sh.Window = append(sh.Window, d.f64())
			}
			sh.WinSum = d.f64()
		}
		m.Drift.N = d.int63()
		m.Drift.Mean = d.f64()
		m.Drift.MT = d.f64()
		m.Drift.MinMT = d.f64()
		m.Drift.Alarms = d.int63()
		m.Drift.Active = d.byte() != 0
	} else {
		r.Monitor = monitor.MonitorState{ShardStates: r.Monitor.ShardStates[:0]}
	}
	r.HasLeaves = d.byte() != 0
	r.Leaves.Leaves = r.Leaves.Leaves[:0]
	r.Leaves.Unattributed = monitor.LeafCounts{}
	if r.HasLeaves {
		nleaves := d.count(2)
		for i := 0; i < nleaves && d.err == nil; i++ {
			r.Leaves.Leaves = append(r.Leaves.Leaves, monitor.LeafCounts{
				Count:  d.uvarint(),
				Events: d.uvarint(),
			})
		}
		r.Leaves.Unattributed.Count = d.uvarint()
		r.Leaves.Unattributed.Events = d.uvarint()
	}
	r.PoolStats.UncertaintyFP = d.uvarint()
	clear(r.PoolStats.Outcomes[:])
	npairs := d.count(2)
	for i := 0; i < npairs && d.err == nil; i++ {
		b := d.int63()
		c := d.uvarint()
		if d.err == nil {
			if b >= len(r.PoolStats.Outcomes) {
				return fmt.Errorf("store: outcome bucket %d outside pool range", b)
			}
			r.PoolStats.Outcomes[b] = c
		}
	}
	return d.finish()
}

// -------------------------------------------------------------- blobs --

// AppendBlobRecord frames one record inside a checkpoint blob (uvarint
// length + record), so a checkpoint is one store payload holding many
// records.
func AppendBlobRecord(dst, rec []byte) []byte {
	dst = appendUvarint(dst, uint64(len(rec)))
	return append(dst, rec...)
}

// WalkBlob visits the records of a checkpoint blob in order.
func WalkBlob(blob []byte, visit func(rec []byte) error) error {
	for len(blob) > 0 {
		n, w := binary.Uvarint(blob)
		if w <= 0 || n > uint64(len(blob)-w) {
			return fmt.Errorf("store: truncated checkpoint blob")
		}
		if err := visit(blob[w : w+int(n) : w+int(n)]); err != nil {
			return err
		}
		blob = blob[w+int(n):]
	}
	return nil
}

// RecordKind peeks at a record's kind byte.
func RecordKind(rec []byte) (byte, error) {
	if len(rec) == 0 {
		return 0, errShortRecord
	}
	return rec[0], nil
}

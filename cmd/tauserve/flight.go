// flight.go is the flight recorder's HTTP surface: GET /debug/flight dumps
// the recorder's live rings as one merged, time-ordered JSON array, and
// GET /debug/flight/last-anomaly serves the snapshot frozen at the last
// anomaly (breaker trip, drift alarm, shed storm). Both render through a
// reflection-free appender like the v1 endpoints — a dump taken while the
// server is melting down must not add allocation pressure to the meltdown —
// and reuse one server-held event buffer, so repeated dumps settle at zero
// steady-state allocations beyond the response write itself.
package main

import (
	"net/http"
	"strconv"

	"github.com/iese-repro/tauw/internal/trace"
)

// handleFlight renders the merged live dump. Events are sorted by
// timestamp across all ring stripes, so the array reads as the recent
// history of the whole process, newest last.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	drainBody(w, r)
	sc := getScratch()
	defer sc.release()
	s.flightMu.Lock()
	s.flightBuf = s.trace.Snapshot(s.flightBuf)
	sc.out = appendFlightDump(sc.out[:0], s.trace.Now(), s.flightBuf)
	s.flightMu.Unlock()
	writeRaw(w, http.StatusOK, sc.out, "flight")
}

// handleFlightAnomaly serves the last frozen anomaly snapshot, or 404 when
// nothing has been frozen since startup — "no anomaly yet" is an answer a
// poller can branch on, not an empty dump it must interpret.
func (s *Server) handleFlightAnomaly(w http.ResponseWriter, r *http.Request) {
	drainBody(w, r)
	sc := getScratch()
	defer sc.release()
	s.flightMu.Lock()
	info, evs := s.trace.LastAnomaly(s.anomBuf)
	s.anomBuf = evs
	if info.Seq == 0 {
		s.flightMu.Unlock()
		httpError(w, http.StatusNotFound, "no anomaly snapshot frozen yet")
		return
	}
	sc.out = appendAnomalyDump(sc.out[:0], info, evs)
	s.flightMu.Unlock()
	writeRaw(w, http.StatusOK, sc.out, "flight")
}

// appendFlightDump renders the /debug/flight body:
//
//	{"now":<unix-ns>,"count":N,"events":[...]}
func appendFlightDump(dst []byte, now int64, events []trace.Event) []byte {
	dst = append(dst, `{"now":`...)
	dst = strconv.AppendInt(dst, now, 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(len(events)), 10)
	dst = append(dst, ',')
	dst = appendFlightEvents(dst, events)
	return append(dst, '}')
}

// appendAnomalyDump renders the /debug/flight/last-anomaly body:
//
//	{"reason":"breaker_trip","at":<unix-ns>,"seq":K,"count":N,"events":[...]}
func appendAnomalyDump(dst []byte, info trace.AnomalyInfo, events []trace.Event) []byte {
	dst = append(dst, `{"reason":`...)
	dst = appendJSONString(dst, info.Reason)
	dst = append(dst, `,"at":`...)
	dst = strconv.AppendInt(dst, info.At, 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, info.Seq, 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(len(events)), 10)
	dst = append(dst, ',')
	dst = appendFlightEvents(dst, events)
	return append(dst, '}')
}

// appendFlightEvents renders `"events":[{...},...]`. Every field is an
// integer or a name from a fixed table (no escaping needed), so one event
// is a handful of strconv appends.
func appendFlightEvents(dst []byte, events []trace.Event) []byte {
	dst = append(dst, `"events":[`...)
	for i := range events {
		ev := &events[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"ts":`...)
		dst = strconv.AppendInt(dst, ev.TS, 10)
		dst = append(dst, `,"kind":"`...)
		dst = append(dst, ev.Kind.Name()...)
		dst = append(dst, `","status":"`...)
		dst = append(dst, ev.Status.Name()...)
		dst = append(dst, `","shard":`...)
		dst = strconv.AppendUint(dst, uint64(ev.Shard), 10)
		// Series renders signed: server-minted series live in the negative
		// track-id space (series "sN" is track -N), and "-1" reads as s1
		// where the raw two's-complement uint64 would not.
		dst = append(dst, `,"series":`...)
		dst = strconv.AppendInt(dst, int64(ev.Series), 10)
		dst = append(dst, `,"dur_ns":`...)
		dst = strconv.AppendInt(dst, ev.Dur, 10)
		dst = append(dst, `,"arg":`...)
		dst = strconv.AppendUint(dst, ev.Arg, 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// wire_test.go pins the binary transport to the JSON endpoints: the
// differential table runs every row (study traffic, mixed batches, error
// and feedback-join statuses, deadline and queue-full sheds) over both and
// requires identical statuses, messages, results and monitor state. The
// remaining tests cover what only the wire listener has: protocol
// violations, its drain, and peers that stop reading.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/iese-repro/tauw/internal/augment"
	"github.com/iese-repro/tauw/internal/simplex"
	"github.com/iese-repro/tauw/internal/store"
	"github.com/iese-repro/tauw/internal/wire"
)

// startWire attaches a binary listener to srv on a loopback port and
// returns its address; the listener drains on test cleanup.
func startWire(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeWire(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.ShutdownWire(ctx); err != nil {
			t.Errorf("ShutdownWire: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("ServeWire: %v", err)
		}
	})
	return ln.Addr().String()
}

func dialWire(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// result is one operation's outcome on either transport: its status, the
// error message on failure, and on a successful step or batch item the
// result in the JSON shape.
type result struct {
	status int
	msg    string
	step   *stepResponse
}

// diffSide is one transport of the differential: the serving operations
// over HTTP/JSON or over wire frames. Every operation logs an outcome line —
// status, message, and on success the result with floats as bits — so the
// two sides compare line by line. Lifecycle successes (HTTP 201/204) count
// as 200.
type diffSide interface {
	open() string
	step(id string, outcome int, q []float64) result
	batch(items []wire.StepRequest) (result, []result)
	feedback(id string, step, truth int) result
	close(id string) result
	outcomes() []string
}

type diffLog struct {
	t     *testing.T
	lines []string
}

func (l *diffLog) outcomes() []string { return l.lines }

func (l *diffLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// logStep logs a step or batch item outcome.
func (l *diffLog) logStep(op string, r result) {
	if r.status != http.StatusOK {
		l.add("%s %d %q", op, r.status, r.msg)
		return
	}
	s := r.step
	l.add("%s 200 fused=%d u=%x stateless=%x len=%d total=%d version=%d %s accepted=%t", op,
		s.FusedOutcome, math.Float64bits(s.Uncertainty), math.Float64bits(s.StatelessU),
		s.SeriesLen, s.TotalSteps, s.ModelVersion, s.Countermeasure, s.Accepted)
}

func (l *diffLog) logFeedback(r result, fb *feedbackResponse) {
	if r.status != http.StatusOK {
		l.add("feedback %d %q", r.status, r.msg)
		return
	}
	l.add("feedback 200 step=%d correct=%t fused=%d u=%x leaf=%d version=%d alarm=%t",
		fb.Step, fb.Correct, fb.FusedOutcome, math.Float64bits(fb.Uncertainty), fb.TAQIMLeaf,
		fb.ModelVersion, fb.DriftAlarm)
}

// httpSide speaks the JSON endpoints.
type httpSide struct {
	diffLog
	url string
}

// post sends body to path and decodes a successful answer into out.
func (h *httpSide) post(method, path string, body, out any) result {
	h.t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		h.t.Fatal(err)
	}
	req, err := http.NewRequest(method, h.url+path, bytes.NewReader(data))
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusCreated, http.StatusNoContent:
	default:
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			h.t.Fatalf("%s %s = %d with a non-JSON error body: %v", method, path, resp.StatusCode, err)
		}
		return result{status: resp.StatusCode, msg: e.Error}
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			h.t.Fatal(err)
		}
	}
	return result{status: http.StatusOK}
}

// jsonStep renders a positional quality vector as a JSON step item.
func jsonStep(id string, outcome int, q []float64) stepRequest {
	names := augment.Names()
	qm := make(map[string]float64, len(names))
	for k, name := range names {
		qm[name] = q[k]
	}
	return stepRequest{SeriesID: id, Outcome: outcome, Quality: qm, PixelSize: q[len(q)-1]}
}

func (h *httpSide) open() string {
	var body newSeriesResponse
	r := h.post(http.MethodPost, "/v1/series", struct{}{}, &body)
	h.add("open %d %q %s", r.status, r.msg, body.SeriesID)
	return body.SeriesID
}

func (h *httpSide) step(id string, outcome int, q []float64) result {
	var body stepResponse
	r := h.post(http.MethodPost, "/v1/step", jsonStep(id, outcome, q), &body)
	r.step = &body
	h.logStep("step", r)
	return r
}

func (h *httpSide) batch(items []wire.StepRequest) (result, []result) {
	var req batchStepRequest
	for _, it := range items {
		req.Steps = append(req.Steps, jsonStep(it.SeriesID, it.Outcome, it.Quality))
	}
	var body batchStepResponse
	r := h.post(http.MethodPost, "/v1/steps", req, &body)
	h.add("batch %d %q ok=%d failed=%d", r.status, r.msg, body.OK, body.Failed)
	var rs []result
	for _, it := range body.Results {
		rs = append(rs, result{status: it.Status, msg: it.Error, step: it.Step})
		h.logStep("item", rs[len(rs)-1])
	}
	return r, rs
}

func (h *httpSide) feedback(id string, step, truth int) result {
	var body feedbackResponse
	r := h.post(http.MethodPost, "/v1/feedback", feedbackWire{SeriesID: id, Step: step, Truth: truth}, &body)
	h.logFeedback(r, &body)
	return r
}

func (h *httpSide) close(id string) result {
	r := h.post(http.MethodDelete, "/v1/series/"+id, nil, nil)
	h.add("close %d %q", r.status, r.msg)
	return r
}

// wireSide speaks wire frames.
type wireSide struct {
	diffLog
	c *wire.Client
}

// result maps a client call's error to the status and message the server
// answered; a transport failure fails the test.
func (w *wireSide) result(err error) result {
	w.t.Helper()
	if err == nil {
		return result{status: http.StatusOK}
	}
	var werr *wire.Error
	if !errors.As(err, &werr) {
		w.t.Fatalf("wire call failed outside the protocol: %v", err)
	}
	return result{status: werr.Status, msg: werr.Msg}
}

// stepResponseOf maps a wire step result onto the JSON result shape.
func stepResponseOf(r *wire.StepResult) *stepResponse {
	return &stepResponse{
		FusedOutcome: r.Fused, Uncertainty: r.Uncertainty, StatelessU: r.StatelessU,
		SeriesLen: r.SeriesLen, TotalSteps: r.TotalSteps, ModelVersion: r.ModelVersion,
		Countermeasure: r.Countermeasure, Accepted: r.Accepted,
	}
}

func (w *wireSide) open() string {
	id, err := w.c.OpenSeries()
	r := w.result(err)
	w.add("open %d %q %s", r.status, r.msg, id)
	return id
}

func (w *wireSide) step(id string, outcome int, q []float64) result {
	var res wire.StepResult
	r := w.result(w.c.Step(id, outcome, q, &res))
	r.step = stepResponseOf(&res)
	w.logStep("step", r)
	return r
}

func (w *wireSide) batch(items []wire.StepRequest) (result, []result) {
	out := make([]wire.BatchItemResult, len(items))
	r := w.result(w.c.StepBatch(items, out))
	if r.status != http.StatusOK {
		w.add("batch %d %q ok=0 failed=0", r.status, r.msg)
		return r, nil
	}
	var rs []result
	ok := 0
	for i := range out {
		rs = append(rs, result{status: out[i].Status, msg: out[i].Err, step: stepResponseOf(&out[i].Step)})
		if out[i].Status == http.StatusOK {
			ok++
		}
	}
	w.add("batch 200 \"\" ok=%d failed=%d", ok, len(out)-ok)
	for _, it := range rs {
		w.logStep("item", it)
	}
	return r, rs
}

func (w *wireSide) feedback(id string, step, truth int) result {
	var fb wire.FeedbackResult
	r := w.result(w.c.Feedback(id, step, truth, &fb))
	w.logFeedback(r, &feedbackResponse{
		Step: fb.Step, Correct: fb.Correct, FusedOutcome: fb.FusedOutcome, Uncertainty: fb.Uncertainty,
		TAQIMLeaf: fb.TAQIMLeaf, ModelVersion: fb.ModelVersion, DriftAlarm: fb.DriftAlarm,
	})
	return r
}

func (w *wireSide) close(id string) result {
	r := w.result(w.c.CloseSeries(id))
	w.add("close %d %q", r.status, r.msg)
	return r
}

// want requires an operation's status and that its message contains
// msgPart.
func want(t *testing.T, op string, r result, status int, msgPart string) {
	t.Helper()
	if r.status != status || !strings.Contains(r.msg, msgPart) {
		t.Fatalf("%s = %d %q, want %d mentioning %q", op, r.status, r.msg, status, msgPart)
	}
}

// wantSheds requires srv's tauw_shed_total series for endpoint and reason
// to read n.
func wantSheds(t *testing.T, srv *Server, endpoint, reason string, n int) {
	t.Helper()
	line := fmt.Sprintf("tauw_shed_total{endpoint=%q,reason=%q} %d\n", endpoint, reason, n)
	if expo := string(srv.expo.AppendMetrics(nil)); !strings.Contains(expo, line) {
		t.Fatalf("exposition lacks %q", line)
	}
}

// TestWireHTTPDifferential runs every row against two servers built from
// the same study, one driven over HTTP and one over wire frames, and
// requires the two outcome logs to be identical: the same status and
// message for every operation and batch item, and on success the same
// results down to the float bits. Both transports share one request core,
// so any divergence is a wiring bug, not noise.
func TestWireHTTPDifferential(t *testing.T) {
	st := testStudy(t)
	quality := validQuality()
	outOfRange := append([]float64(nil), quality...)
	outOfRange[1] = 2
	badPixel := append([]float64(nil), quality...)
	badPixel[len(badPixel)-1] = -1
	const ok = http.StatusOK

	rows := []struct {
		name string
		opts []ServerOption
		run  func(t *testing.T, srv *Server, tr diffSide)
		// compare checks server state across the two sides after the run.
		compare func(t *testing.T, wireSrv, httpSrv *Server)
	}{{
		// A dozen of the study's test series, every step followed by its
		// ground truth: every shard, the whole result shape, and the joins.
		name: "study traffic",
		run: func(t *testing.T, _ *Server, tr diffSide) {
			for si, s := range st.TestSeries[:12] {
				id := tr.open()
				for j := range s.Outcomes {
					want(t, fmt.Sprintf("series %d step %d", si, j), tr.step(id, s.Outcomes[j], s.Quality[j]), ok, "")
					want(t, fmt.Sprintf("series %d feedback %d", si, j), tr.feedback(id, j+1, s.Truth), ok, "")
				}
				want(t, "close", tr.close(id), ok, "")
			}
		},
		compare: func(t *testing.T, wireSrv, httpSrv *Server) {
			// Same joins in the same per-shard order: the monitor state must
			// coincide bit-exactly too.
			won, hon := wireSrv.Calibration().Snapshot(), httpSrv.Calibration().Snapshot()
			if !reflect.DeepEqual(won, hon) {
				t.Fatalf("monitor state diverged:\nwire %+v\nhttp %+v", won, hon)
			}
		},
	}, {
		// Items fail one by one with the single-step status; valid items on
		// the same series step in order.
		name: "mixed batch",
		run: func(t *testing.T, _ *Server, tr diffSide) {
			id := tr.open()
			r, items := tr.batch([]wire.StepRequest{
				{SeriesID: id, Outcome: 14, Quality: quality},
				{SeriesID: "ghost", Outcome: 1, Quality: quality},
				{SeriesID: id, Outcome: 3, Quality: outOfRange},
				{SeriesID: id, Outcome: 14, Quality: quality},
			})
			want(t, "batch", r, ok, "")
			if len(items) != 4 {
				t.Fatalf("%d item results, want 4", len(items))
			}
			want(t, "item 0", items[0], ok, "")
			want(t, "item 1", items[1], http.StatusNotFound, `unknown series "ghost"`)
			want(t, "item 2", items[2], http.StatusBadRequest, "outside [0,1]")
			want(t, "item 3", items[3], ok, "")
			if items[0].step.SeriesLen != 1 || items[3].step.SeriesLen != 2 || items[0].step.Countermeasure == "" {
				t.Fatalf("items 0 and 3 = %+v, %+v", items[0].step, items[3].step)
			}
			r, _ = tr.batch(nil)
			want(t, "empty batch", r, http.StatusBadRequest, "empty batch")
		},
	}, {
		name: "step errors",
		run: func(t *testing.T, _ *Server, tr diffSide) {
			id := tr.open()
			want(t, "unknown series", tr.step("ghost", 1, quality), http.StatusNotFound, `unknown series "ghost"`)
			want(t, "quality out of range", tr.step(id, 1, outOfRange), http.StatusBadRequest, "outside [0,1]")
			want(t, "bad pixel size", tr.step(id, 1, badPixel), http.StatusBadRequest, "pixel_size must be positive")
			want(t, "close unknown series", tr.close("ghost"), http.StatusNotFound, `unknown series "ghost"`)
		},
	}, {
		name: "feedback joins",
		run: func(t *testing.T, _ *Server, tr diffSide) {
			want(t, "unknown series", tr.feedback("ghost", 1, 1), http.StatusNotFound, `unknown series "ghost"`)
			id := tr.open()
			want(t, "step", tr.step(id, 7, quality), ok, "")
			want(t, "step never served", tr.feedback(id, 100, 7), http.StatusGone, "")
			want(t, "join", tr.feedback(id, 1, 7), ok, "")
			want(t, "duplicate", tr.feedback(id, 1, 7), http.StatusConflict, "")
		},
	}, {
		name: "feedback disabled",
		opts: []ServerOption{WithFeedbackRing(0)},
		run: func(t *testing.T, _ *Server, tr diffSide) {
			id := tr.open()
			want(t, "step", tr.step(id, 1, quality), ok, "")
			want(t, "feedback", tr.feedback(id, 1, 1), http.StatusNotImplemented, "")
		},
	}, {
		// A deadline that is always spent once admitted: every hot endpoint
		// sheds with 503, and the sheds are counted.
		name: "deadline shed",
		opts: []ServerOption{WithRequestTimeout(time.Nanosecond)},
		run: func(t *testing.T, srv *Server, tr diffSide) {
			id := tr.open()
			want(t, "step", tr.step(id, 1, quality), http.StatusServiceUnavailable, msgDeadline)
			r, _ := tr.batch([]wire.StepRequest{{SeriesID: id, Outcome: 1, Quality: quality}})
			want(t, "batch", r, http.StatusServiceUnavailable, msgDeadline)
			want(t, "feedback", tr.feedback(id, 1, 1), http.StatusServiceUnavailable, msgDeadline)
			for _, endpoint := range []string{"step", "steps", "feedback"} {
				wantSheds(t, srv, endpoint, "deadline", 1)
			}
		},
	}, {
		// Every hot endpoint's only admission slot is held, with no queue:
		// each sheds with 429 until the slot is released.
		name: "queue full shed",
		opts: []ServerOption{WithAdmission(1, 0)},
		run: func(t *testing.T, srv *Server, tr diffSide) {
			id := tr.open()
			eps := []*hotEndpoint{&srv.adm.step, &srv.adm.batch, &srv.adm.feedback}
			for _, ep := range eps {
				if ep.admit() != ok {
					t.Fatal("an idle endpoint refused its only slot")
				}
			}
			want(t, "step", tr.step(id, 1, quality), http.StatusTooManyRequests, msgQueueFull)
			r, _ := tr.batch([]wire.StepRequest{{SeriesID: id, Outcome: 1, Quality: quality}})
			want(t, "batch", r, http.StatusTooManyRequests, msgQueueFull)
			want(t, "feedback", tr.feedback(id, 1, 1), http.StatusTooManyRequests, msgQueueFull)
			for _, ep := range eps {
				ep.release()
			}
			want(t, "step after release", tr.step(id, 1, quality), ok, "")
			for _, endpoint := range []string{"step", "steps", "feedback"} {
				wantSheds(t, srv, endpoint, "queue_full", 1)
			}
		},
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			newSrv := func() *Server {
				srv, err := NewServer(st.Base, st.TAQIM, simplex.DefaultTSRPolicy(), row.opts...)
				if err != nil {
					t.Fatal(err)
				}
				return srv
			}
			wireSrv, httpSrv := newSrv(), newSrv()
			ts := httptest.NewServer(httpSrv.Handler())
			t.Cleanup(ts.Close)
			ws := &wireSide{diffLog: diffLog{t: t}, c: dialWire(t, startWire(t, wireSrv))}
			hs := &httpSide{diffLog: diffLog{t: t}, url: ts.URL}
			row.run(t, wireSrv, ws)
			row.run(t, httpSrv, hs)
			w, h := ws.outcomes(), hs.outcomes()
			for i := 0; i < len(w) || i < len(h); i++ {
				if i >= len(w) || i >= len(h) || w[i] != h[i] {
					t.Fatalf("outcome %d diverged:\nwire %q\nhttp %q", i, at(w, i), at(h, i))
				}
			}
			if row.compare != nil {
				row.compare(t, wireSrv, httpSrv)
			}
		})
	}
}

// at is lines[i], or "<none>" past the end.
func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<none>"
}

// wantWireError asserts err is a *wire.Error with the given status and
// message substring.
func wantWireError(t *testing.T, err error, status int, msgPart string) {
	t.Helper()
	var werr *wire.Error
	if !errors.As(err, &werr) {
		t.Fatalf("error %T %v, want *wire.Error", err, err)
	}
	if werr.Status != status {
		t.Fatalf("status %d (%q), want %d", werr.Status, werr.Msg, status)
	}
	if !strings.Contains(werr.Msg, msgPart) {
		t.Fatalf("message %q, want it to mention %q", werr.Msg, msgPart)
	}
}

// TestWireProtocolViolations covers what only the binary encoding can get
// wrong: a step item with the wrong factor count is a 400, an unknown frame
// type gets a 400 error frame, and a version mismatch kills the connection.
func TestWireProtocolViolations(t *testing.T) {
	testServer(t)
	srv, err := NewServer(studyVal.Base, studyVal.TAQIM, simplex.DefaultTSRPolicy())
	if err != nil {
		t.Fatal(err)
	}
	addr := startWire(t, srv)

	c := dialWire(t, addr)
	id, err := c.OpenSeries()
	if err != nil {
		t.Fatal(err)
	}
	var res wire.StepResult
	wantWireError(t, c.Step(id, 1, validQuality()[:2], &res), wire.StatusBadRequest, "quality factors")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf, lenOff := wire.BeginFrame(nil, 0x42, 9)
	buf = wire.EndFrame(buf, lenOff)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewReader(conn, nil)
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameError || f.ReqID != 9 {
		t.Fatalf("frame type %#x reqID %d", f.Type, f.ReqID)
	}
	status, msg, err := wire.DecodeErrorPayload(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if status != wire.StatusBadRequest || !strings.Contains(msg, "unknown frame type") {
		t.Fatalf("error %d %q", status, msg)
	}

	// A wrong version byte is unrecoverable: the server drops the
	// connection instead of answering.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	raw := []byte{8, 0, 0, 0, 99, wire.FrameHello, 0, 0, 0, 0, 0, 0}
	if _, err := conn2.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := conn2.Read(one[:]); err == nil {
		t.Fatal("server answered a wrong-version frame")
	}
}

// TestWireFlushesBeforePartialFrame: a response must not wait for a
// frame that has only begun to arrive. The peer writes one hello frame and
// the first bytes of a second in one write; the first answer must arrive
// while the second frame is still incomplete, and the rest of it then gets
// its own.
func TestWireFlushesBeforePartialFrame(t *testing.T) {
	testServer(t)
	srv, err := NewServer(studyVal.Base, studyVal.TAQIM, simplex.DefaultTSRPolicy())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", startWire(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	first, lenOff := wire.BeginFrame(nil, wire.FrameHello, 1)
	first = wire.EndFrame(first, lenOff)
	second, lenOff := wire.BeginFrame(nil, wire.FrameHello, 2)
	second = wire.EndFrame(second, lenOff)
	if _, err := conn.Write(append(first, second[:5]...)); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewReader(conn, nil)
	for i, rest := range [][]byte{second[5:], nil} {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("response %d: %v", i+1, err)
		}
		if f.Type != wire.ResponseType(wire.FrameHello) || f.ReqID != uint32(i+1) {
			t.Fatalf("response %d: frame type %#x reqID %d", i+1, f.Type, f.ReqID)
		}
		if rest != nil {
			if _, err := conn.Write(rest); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWireDrain covers ShutdownWire: idle connections unblock immediately
// (the read deadline, not the ctx timeout), callers racing the drain either
// complete or fail with a connection error, and the listener refuses new
// connections afterwards.
func TestWireDrain(t *testing.T) {
	testServer(t)
	srv, err := NewServer(studyVal.Base, studyVal.TAQIM, simplex.DefaultTSRPolicy())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeWire(ln) }()
	addr := ln.Addr().String()

	idle := dialWire(t, addr)
	active := dialWire(t, addr)
	id, err := active.OpenSeries()
	if err != nil {
		t.Fatal(err)
	}
	quality := validQuality()

	// Callers hammer the active connection while the drain fires: every
	// call must resolve (success before the cut, connection error after),
	// never hang.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res wire.StepResult
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := active.Step(id, 1, quality, &res); err != nil {
					return // the drain cut the connection mid-burst
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.ShutdownWire(ctx); err != nil {
		t.Fatalf("ShutdownWire: %v", err)
	}
	if since := time.Since(start); since > 3*time.Second {
		t.Fatalf("drain of mostly-idle connections took %v", since)
	}
	close(stop)
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeWire after drain: %v", err)
	}

	// The idle connection was unblocked and closed by the drain: its next
	// call must fail rather than hang.
	var res wire.StepResult
	if err := idle.Step(id, 1, quality, &res); err == nil {
		t.Fatal("step over a drained connection succeeded")
	}
	if _, err := wire.Dial(addr); err == nil {
		t.Fatal("dial succeeded after drain closed the listener")
	}
}

// stallPeer connects a raw peer that shrinks its receive buffer, pipelines
// hello frames and never reads a reply, and returns once its writes have
// made no progress for 300ms: the server's replies have filled every socket
// buffer, so its handler is blocked writing (or has dropped the peer).
func stallPeer(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	var chunk []byte
	for i := 0; i < 1024; i++ {
		frame, lenOff := wire.BeginFrame(chunk, wire.FrameHello, uint32(i))
		chunk = wire.EndFrame(frame, lenOff)
	}
	var written atomic.Int64
	go func() {
		for {
			n, err := conn.Write(chunk)
			written.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	last, since := int64(-1), time.Now()
	for deadline := time.Now().Add(20 * time.Second); time.Since(since) < 300*time.Millisecond; {
		if time.Now().After(deadline) {
			t.Fatal("peer writes never stalled")
		}
		if n := written.Load(); n != last {
			last, since = n, time.Now()
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// wireConns counts the connections srv's wire listener still tracks.
func wireConns(srv *Server) int {
	srv.wireMu.Lock()
	ws := srv.wire
	srv.wireMu.Unlock()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.conns)
}

// TestWireWriteDeadlineDropsStalledPeer: a peer that stops reading must
// lose its connection once a flush has waited the write timeout, instead of
// holding the handler and its scratch until shutdown.
func TestWireWriteDeadlineDropsStalledPeer(t *testing.T) {
	testServer(t)
	srv, err := NewServer(studyVal.Base, studyVal.TAQIM, simplex.DefaultTSRPolicy())
	if err != nil {
		t.Fatal(err)
	}
	srv.writeTimeout = 100 * time.Millisecond
	stallPeer(t, startWire(t, srv))
	for deadline := time.Now().Add(5 * time.Second); wireConns(srv) > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("handler still holds the stalled peer's connection")
		}
	}
}

// TestShutdownCheckpointsAfterIncompleteDrain: with no write timeout, a
// stalled wire peer keeps its handler blocked past the drain timeout. The
// shutdown must report the incomplete drain and still write the final
// checkpoint.
func TestShutdownCheckpointsAfterIncompleteDrain(t *testing.T) {
	testServer(t)
	srv, err := NewServer(studyVal.Base, studyVal.TAQIM, simplex.DefaultTSRPolicy(), WithDurability())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := srv.attachDurability(t.TempDir(), false, store.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := cp.CheckpointStats().Checkpoints
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(wln) //nolint:errcheck // ends with the drain
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpServer := &http.Server{Handler: srv.Handler()}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serveUntilShutdown(ctx, nil, httpServer, srv, cp, 0, 300*time.Millisecond,
			func() error { return httpServer.Serve(hln) })
	}()
	stallPeer(t, wln.Addr().String())
	cancel()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "wire drain incomplete") {
		t.Fatalf("serveUntilShutdown = %v, want the incomplete wire drain reported", err)
	}
	if got := cp.CheckpointStats().Checkpoints; got != before+1 {
		t.Fatalf("checkpoints = %d after shutdown, want %d: the final checkpoint was skipped", got, before+1)
	}
}

// validQuality is a clean positional factor vector: all deficit channels
// zero, pixel size 200.
func validQuality() []float64 {
	q := make([]float64, len(augment.Names())+1)
	q[len(q)-1] = 200
	return q
}

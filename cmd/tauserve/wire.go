// wire.go is the binary-transport face of the server: a TCP listener
// speaking the internal/wire frame protocol alongside the HTTP endpoints.
// Each connection gets one goroutine and one pooled serveScratch; requests
// pipeline (the client needn't wait for a response before sending the next
// frame) and responses coalesce — the handler flushes only when the reader
// holds no complete frame or the output buffer is already large, so a
// pipelined burst costs one write syscall, not one per frame.
//
// The frame handlers are codec shells over the request core in
// pipeline.go, the one the JSON handlers use: the same admission,
// deadlines, stage timing, shed events and error statuses apply to a frame
// as to an HTTP request. The differential test in wire_test.go pins the
// equivalence.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/iese-repro/tauw/internal/wire"
	"github.com/iese-repro/tauw/internal/xslice"
)

// wireFlushThreshold flushes the response buffer early even while more
// requests are buffered, bounding per-connection memory under a deep
// pipeline of batch frames.
const wireFlushThreshold = 64 << 10

// wireServer is the binary listener's state: the tracked connections for
// drain, and the per-connection-constant hello payload derived from the
// gate policy.
type wireServer struct {
	srv *Server
	ln  net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup

	// hello is the precomputed hello response payload. Its level table is
	// the gate's escalation order, so a step response names the selected
	// level in one byte by the gate's Decision.Index.
	hello []byte
}

func newWireServer(s *Server, ln net.Listener) (*wireServer, error) {
	policy := s.gate.Policy()
	levels := make([]string, 0, len(policy.Levels)+1)
	for _, l := range policy.Levels {
		levels = append(levels, l.Name)
	}
	levels = append(levels, policy.Terminal.Name)
	hello, err := wire.AppendHelloPayload(nil, &wire.Hello{Levels: levels})
	if err != nil {
		return nil, err
	}
	return &wireServer{
		srv:   s,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
		hello: hello,
	}, nil
}

// ServeWire accepts binary-transport connections on ln until the listener
// closes (ShutdownWire during drain returns nil; any other accept failure
// is returned). At most one wire listener may be active per server.
func (s *Server) ServeWire(ln net.Listener) error {
	ws, err := newWireServer(s, ln)
	if err != nil {
		return err
	}
	s.wireMu.Lock()
	if s.wire != nil {
		s.wireMu.Unlock()
		return errors.New("tauserve: wire listener already active")
	}
	s.wire = ws
	s.wireMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ws.isDraining() {
				return nil
			}
			return err
		}
		if !ws.track(conn) {
			conn.Close()
			continue
		}
		go ws.handleConn(conn)
	}
}

// ShutdownWire drains the binary listener: stop accepting, unblock every
// idle connection via an immediate read deadline (frames already received
// still complete and their responses flush), and wait for the handlers up
// to ctx's deadline, force-closing stragglers after it. A server without a
// wire listener returns immediately.
func (s *Server) ShutdownWire(ctx context.Context) error {
	s.wireMu.Lock()
	ws := s.wire
	s.wireMu.Unlock()
	if ws == nil {
		return nil
	}
	ws.mu.Lock()
	ws.draining = true
	for conn := range ws.conns {
		conn.SetReadDeadline(time.Now())
	}
	ws.mu.Unlock()
	ws.ln.Close()
	done := make(chan struct{})
	go func() {
		ws.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		ws.mu.Lock()
		for conn := range ws.conns {
			conn.Close()
		}
		ws.mu.Unlock()
		return fmt.Errorf("wire drain incomplete: %w", ctx.Err())
	}
}

// track registers a connection (and its wg slot) unless the server is
// draining; registration and the drain flag share one critical section so
// a connection can never slip in after the drain walked the map.
func (ws *wireServer) track(conn net.Conn) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.draining {
		return false
	}
	ws.conns[conn] = struct{}{}
	ws.wg.Add(1)
	return true
}

func (ws *wireServer) forget(conn net.Conn) {
	ws.mu.Lock()
	delete(ws.conns, conn)
	ws.mu.Unlock()
}

func (ws *wireServer) isDraining() bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.draining
}

// handleConn is one connection's frame loop.
func (ws *wireServer) handleConn(conn net.Conn) {
	defer ws.wg.Done()
	defer ws.forget(conn)
	defer conn.Close()
	sc := getScratch()
	fr := wire.NewReader(conn, sc.body)
	for {
		f, err := fr.Next()
		if err != nil {
			// EOF, the drain deadline, or a framing violation: flush what
			// is pending and drop the connection (past a framing error the
			// stream cannot be trusted, and a draining peer gets its
			// completed responses either way).
			if len(sc.out) > 0 {
				ws.flush(conn, sc) //nolint:errcheck // the connection is closing anyway
			}
			break
		}
		ws.dispatch(&f, sc)
		// Flush before Next can block: with only part of a frame buffered,
		// it waits for the rest, and the responses must not wait with it.
		if len(sc.out) > 0 && (!fr.HasFrame() || len(sc.out) >= wireFlushThreshold) {
			if ws.flush(conn, sc) != nil {
				break
			}
		}
	}
	sc.body = fr.Buffer()
	sc.release()
}

// flush writes the pending responses under the -write-timeout deadline, so
// a peer that stops reading is dropped instead of holding the goroutine and
// its scratch until shutdown.
func (ws *wireServer) flush(conn net.Conn, sc *serveScratch) error {
	if ws.srv.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(ws.srv.writeTimeout))
	}
	_, err := conn.Write(sc.out)
	sc.out = sc.out[:0]
	return err
}

// dispatch handles one request frame, appending its response frame to
// sc.out: the payload the frame's shell rendered, or in its place an error
// frame.
func (ws *wireServer) dispatch(f *wire.Frame, sc *serveScratch) {
	s := ws.srv
	// The connection handles its frames in sequence, so the previous frame's
	// quality vectors are done with: its response is already bytes in sc.out.
	sc.dec.reset(nil)
	out, lenOff := wire.BeginFrame(sc.out, wire.ResponseType(f.Type), f.ReqID)
	status, msg := http.StatusOK, ""
	switch f.Type {
	case wire.FrameHello:
		out = append(out, ws.hello...)
	case wire.FrameOpenSeries:
		id, err := s.pool.OpenSeries()
		if err != nil {
			status, msg = errStatus(err, "")
		}
		out = wire.AppendSeriesIDPayload(out, id)
	case wire.FrameCloseSeries:
		id, err := wire.DecodeSeriesIDPayload(f.Payload)
		if err != nil {
			status, msg = http.StatusBadRequest, err.Error()
		} else if err = s.pool.CloseSeries(bytesToString(id)); err != nil {
			status, msg = errStatus(err, bytesToString(id))
		}
	case wire.FrameStep:
		if status, msg = s.enter(&s.adm.step, &sc.x); status == http.StatusOK {
			out, status, msg = ws.step(f.Payload, out, sc)
			s.finish(&sc.x)
		}
	case wire.FrameStepBatch:
		if status, msg = s.enter(&s.adm.batch, &sc.x); status == http.StatusOK {
			out, status, msg = ws.stepBatch(f.Payload, out, sc)
			s.finish(&sc.x)
		}
	case wire.FrameFeedback:
		if status, msg = s.enter(&s.adm.feedback, &sc.x); status == http.StatusOK {
			out, status, msg = ws.feedback(f.Payload, out)
			s.finish(&sc.x)
		}
	default:
		status, msg = http.StatusBadRequest, "unknown frame type 0x"+strconv.FormatUint(uint64(f.Type), 16)
	}
	if status != http.StatusOK {
		out, lenOff = wire.BeginFrame(out[:lenOff], wire.FrameError, f.ReqID)
		out = wire.AppendErrorPayload(out, status, msg)
	}
	sc.out = wire.EndFrame(out, lenOff)
}

// decodeWireItem copies a decoded item view into out. Its quality vector
// is carved from the scratch's arena and passes the JSON items' checkQuality;
// a wrong factor count is the one item error only the positional wire
// encoding can make.
func (sc *serveScratch) decodeWireItem(v *wire.StepItemView, out *wireStep) {
	*out = wireStep{seriesID: bytesToString(v.SeriesID), outcome: v.Outcome}
	if want := len(qualityNames) + 1; v.NumQuality() != want {
		out.itemErr = fmt.Errorf("expected %d quality factors (deficit channels plus pixel size), got %d",
			want, v.NumQuality())
		return
	}
	qf := sc.dec.qfVector()
	for i := range qf {
		qf[i] = v.QualityAt(i)
	}
	if out.itemErr = checkQuality(qf); out.itemErr == nil {
		out.qf = qf
	}
}

// step is the wire shell of the step core: one item in, a step result out.
func (ws *wireServer) step(p, out []byte, sc *serveScratch) ([]byte, int, string) {
	v, rest, err := wire.DecodeStepItemView(p)
	if err != nil || len(rest) != 0 {
		return out, http.StatusBadRequest, "malformed step payload"
	}
	var step wireStep
	var resp stepResponse
	sc.decodeWireItem(&v, &step)
	status, msg := ws.srv.stepOne(&sc.x, &step, &resp)
	if status == http.StatusOK {
		out = ws.appendStepResult(out, &resp)
	}
	return out, status, msg
}

// stepBatch is the wire shell of the batch core: the items decoded into
// sc.steps, one status (and result or message) per item out.
func (ws *wireServer) stepBatch(p, out []byte, sc *serveScratch) ([]byte, int, string) {
	n, p, err := wire.DecodeBatchHeader(p)
	if err != nil {
		return out, http.StatusBadRequest, err.Error()
	}
	sc.steps = xslice.Grow(sc.steps, n)
	for i := 0; i < n && err == nil; i++ {
		var v wire.StepItemView
		if v, p, err = wire.DecodeStepItemView(p); err == nil {
			sc.decodeWireItem(&v, &sc.steps[i])
		}
	}
	if err != nil || len(p) != 0 {
		return out, http.StatusBadRequest, "malformed batch payload"
	}
	status, msg := ws.srv.stepBatch(context.Background(), &sc.x, sc)
	if status != http.StatusOK {
		return out, status, msg
	}
	out, _ = wire.AppendBatchHeader(out, n) // n passed the same cap in DecodeBatchHeader
	for i := range sc.resp.Results {
		r := &sc.resp.Results[i]
		if r.Status != http.StatusOK {
			out = wire.AppendBatchItemResult(out, r.Status, nil, 0, r.Error)
			continue
		}
		out = ws.appendStepResult(wire.AppendBatchItemStatus(out, r.Status), r.Step)
	}
	return out, http.StatusOK, ""
}

// appendStepResult renders the shared stepResponse shape as a wire step
// result, naming the countermeasure by its hello-table index.
func (ws *wireServer) appendStepResult(dst []byte, r *stepResponse) []byte {
	res := wire.StepResult{
		Fused:        r.FusedOutcome,
		Uncertainty:  r.Uncertainty,
		StatelessU:   r.StatelessU,
		SeriesLen:    r.SeriesLen,
		TotalSteps:   r.TotalSteps,
		ModelVersion: r.ModelVersion,
		Accepted:     r.Accepted,
	}
	return wire.AppendStepResultPayload(dst, &res, r.level)
}

// feedback is the wire shell of the ground-truth core.
func (ws *wireServer) feedback(p, out []byte) ([]byte, int, string) {
	id, step, truth, err := wire.DecodeFeedbackRequestPayload(p)
	if err != nil {
		return out, http.StatusBadRequest, "malformed feedback payload"
	}
	var resp feedbackResponse
	status, msg := ws.srv.joinFeedback(bytesToString(id), step, truth, &resp)
	if status == http.StatusOK {
		out = wire.AppendFeedbackResultPayload(out, &wire.FeedbackResult{
			Step:         resp.Step,
			Correct:      resp.Correct,
			FusedOutcome: resp.FusedOutcome,
			Uncertainty:  resp.Uncertainty,
			TAQIMLeaf:    resp.TAQIMLeaf,
			ModelVersion: resp.ModelVersion,
			DriftAlarm:   resp.DriftAlarm,
		})
	}
	return out, status, msg
}

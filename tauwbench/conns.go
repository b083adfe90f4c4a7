package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"

	"github.com/iese-repro/tauw/internal/augment"
	"github.com/iese-repro/tauw/internal/wire"
)

// wireConn is a stream caller's view of a shared pipelined wire client.
type wireConn struct {
	cl *wire.Client
	o  *oracle
}

// wireErr wraps a wire client error: a status the server answered is a
// statusError, anything else broke the connection.
func wireErr(err error) error {
	var we *wire.Error
	if errors.As(err, &we) {
		return &statusError{status: we.Status, msg: we.Msg}
	}
	return &transportError{err}
}

func (c *wireConn) transport() string { return "wire" }

func (c *wireConn) open() (string, error) {
	id, err := c.cl.OpenSeries()
	if err != nil {
		return "", wireErr(err)
	}
	return id, nil
}

func (c *wireConn) step(id string, e, j int, out *served) error {
	enc := &c.o.enc[e]
	var r wire.StepResult
	if err := c.cl.Step(id, enc.outcomes[j], enc.quality[j], &r); err != nil {
		return wireErr(err)
	}
	*out = servedFromWire(&r)
	return nil
}

func servedFromWire(r *wire.StepResult) served {
	return served{
		fused: r.Fused, u: r.Uncertainty, statelessU: r.StatelessU,
		seriesLen: r.SeriesLen, totalSteps: r.TotalSteps, modelVersion: r.ModelVersion,
		level: r.Countermeasure, accepted: r.Accepted,
	}
}

func (c *wireConn) feedback(id string, step, truth int, out *servedFeedback) error {
	var r wire.FeedbackResult
	if err := c.cl.Feedback(id, step, truth, &r); err != nil {
		return wireErr(err)
	}
	*out = servedFeedback{
		step: r.Step, correct: r.Correct, fused: r.FusedOutcome, u: r.Uncertainty,
		leaf: r.TAQIMLeaf, modelVersion: r.ModelVersion,
	}
	return nil
}

func (c *wireConn) closeSeries(id string) error {
	if err := c.cl.CloseSeries(id); err != nil {
		return wireErr(err)
	}
	return nil
}

// httpConn is one keep-alive HTTP/1.1 connection speaking tauserve's JSON
// endpoints. It writes each request with one syscall and parses the
// response in the calling goroutine: a net/http client hands every request
// through two goroutines of its own, and on 2 vCPUs that generator cost
// lands on the CPUs the server is being measured on.
type httpConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	// tails holds each step body after its series id, per encounter and
	// frame, rendered once before the server starts.
	tails [][][]byte
	body  []byte
	req   []byte
	resp  []byte
}

func dialHTTP(addr string, tails [][][]byte) (*httpConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{addr: addr, conn: conn, br: bufio.NewReaderSize(conn, 16<<10), tails: tails}, nil
}

// stepTails renders the part of every step body that follows the series
// id: outcome, the nine deficit channels by name, and pixel size. Floats
// use the shortest representation that parses back to the same bits.
func stepTails(o *oracle) [][][]byte {
	names := augment.Names()
	out := make([][][]byte, len(o.enc))
	for e := range o.enc {
		enc := &o.enc[e]
		out[e] = make([][]byte, enc.frames())
		for j := range enc.outcomes {
			q := enc.quality[j]
			b := []byte(`","outcome":`)
			b = strconv.AppendInt(b, int64(enc.outcomes[j]), 10)
			b = append(b, `,"quality":{`...)
			for k, n := range names {
				if k > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendQuote(b, n)
				b = append(b, ':')
				b = strconv.AppendFloat(b, q[k], 'g', -1, 64)
			}
			b = append(b, `},"pixel_size":`...)
			b = strconv.AppendFloat(b, q[len(names)], 'g', -1, 64)
			out[e][j] = append(b, '}')
		}
	}
	return out
}

func (c *httpConn) transport() string { return "http" }

// do sends one request and reads the whole response body into c.resp; a
// status other than want is a statusError.
func (c *httpConn) do(method, path string, body []byte, want int) error {
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	if body != nil {
		c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	}
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	if _, err := c.conn.Write(c.req); err != nil {
		return &transportError{err}
	}
	status, err := c.readResponse()
	if err != nil {
		return &transportError{err}
	}
	if status != want {
		return &statusError{status: status, msg: string(c.resp)}
	}
	return nil
}

// readResponse parses one HTTP/1.1 response: the status line, the headers
// (only Content-Length matters; tauserve's responses are small and never
// chunked), and the body.
func (c *httpConn) readResponse() (int, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, fmt.Errorf("malformed header %q", line)
		}
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(bytes.TrimSpace(value))); err != nil {
				return 0, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			return 0, fmt.Errorf("unexpected Transfer-Encoding %q", value)
		}
	}
	if length < 0 {
		if status != http.StatusNoContent {
			return 0, fmt.Errorf("status %d response without Content-Length", status)
		}
		length = 0
	}
	c.resp = slices.Grow(c.resp[:0], length)[:length]
	_, err = io.ReadFull(c.br, c.resp)
	return status, err
}

func (c *httpConn) open() (string, error) {
	if err := c.do(http.MethodPost, "/v1/series", nil, http.StatusCreated); err != nil {
		return "", err
	}
	var r struct {
		SeriesID string `json:"series_id"`
	}
	if err := json.Unmarshal(c.resp, &r); err != nil {
		return "", fmt.Errorf("decoding open response: %w", err)
	}
	return r.SeriesID, nil
}

func (c *httpConn) step(id string, e, j int, out *served) error {
	c.body = append(c.body[:0], `{"series_id":`...)
	c.body = strconv.AppendQuote(c.body, id)
	c.body = append(c.body[:len(c.body)-1], c.tails[e][j]...)
	if err := c.do(http.MethodPost, "/v1/step", c.body, http.StatusOK); err != nil {
		return err
	}
	var r struct {
		FusedOutcome   int     `json:"fused_outcome"`
		Uncertainty    float64 `json:"uncertainty"`
		StatelessU     float64 `json:"stateless_uncertainty"`
		SeriesLen      int     `json:"series_len"`
		TotalSteps     int     `json:"total_steps"`
		ModelVersion   uint64  `json:"model_version"`
		Countermeasure string  `json:"countermeasure"`
		Accepted       bool    `json:"accepted"`
	}
	if err := json.Unmarshal(c.resp, &r); err != nil {
		return fmt.Errorf("decoding step response: %w", err)
	}
	*out = served{
		fused: r.FusedOutcome, u: r.Uncertainty, statelessU: r.StatelessU,
		seriesLen: r.SeriesLen, totalSteps: r.TotalSteps, modelVersion: r.ModelVersion,
		level: r.Countermeasure, accepted: r.Accepted,
	}
	return nil
}

func (c *httpConn) feedback(id string, step, truth int, out *servedFeedback) error {
	c.body = append(c.body[:0], `{"series_id":`...)
	c.body = strconv.AppendQuote(c.body, id)
	c.body = append(c.body, `,"step":`...)
	c.body = strconv.AppendInt(c.body, int64(step), 10)
	c.body = append(c.body, `,"truth":`...)
	c.body = strconv.AppendInt(c.body, int64(truth), 10)
	c.body = append(c.body, '}')
	if err := c.do(http.MethodPost, "/v1/feedback", c.body, http.StatusOK); err != nil {
		return err
	}
	var r struct {
		Step         int     `json:"step"`
		Correct      bool    `json:"correct"`
		FusedOutcome int     `json:"fused_outcome"`
		Uncertainty  float64 `json:"uncertainty"`
		TAQIMLeaf    int     `json:"taqim_leaf"`
		ModelVersion uint64  `json:"model_version"`
	}
	if err := json.Unmarshal(c.resp, &r); err != nil {
		return fmt.Errorf("decoding feedback response: %w", err)
	}
	*out = servedFeedback{
		step: r.Step, correct: r.Correct, fused: r.FusedOutcome, u: r.Uncertainty,
		leaf: r.TAQIMLeaf, modelVersion: r.ModelVersion,
	}
	return nil
}

func (c *httpConn) closeSeries(id string) error {
	return c.do(http.MethodDelete, "/v1/series/"+id, nil, http.StatusNoContent)
}

// newStreamDriver connects a stream workload: stream-wire's callers share
// one pipelined wire connection, one slot each; stream-http has one
// connection, whose one caller steps every slot.
func newStreamDriver(w workload, srv *server, o *oracle, acct *accounting, slots []*slot, tails [][][]byte) (*streamDriver, error) {
	d := &streamDriver{slotOps: slotOps{o: o, acct: acct, slots: slots}}
	switch w.name {
	case "stream-wire":
		cl, err := wire.Dial(srv.wireAddr)
		if err != nil {
			return nil, err
		}
		d.closers = append(d.closers, func() { cl.Close() })
		conn := &wireConn{cl: cl, o: o}
		for _, s := range slots {
			d.callers = append(d.callers, &caller{conn: conn, slots: []*slot{s}})
		}
	case "stream-http":
		c, err := dialHTTP(srv.httpAddr, tails)
		if err != nil {
			return nil, err
		}
		d.closers = append(d.closers, func() { c.conn.Close() })
		d.callers = append(d.callers, &caller{conn: c, slots: slots})
	default:
		return nil, fmt.Errorf("%s is not a stream workload", w.name)
	}
	return d, nil
}

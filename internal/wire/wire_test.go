package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

// buildFrame renders one complete frame for the reader tests.
func buildFrame(typ byte, reqID uint32, payload []byte) []byte {
	buf, lenOff := BeginFrame(nil, typ, reqID)
	buf = append(buf, payload...)
	return EndFrame(buf, lenOff)
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	stream = append(stream, buildFrame(FrameStep, 7, []byte("alpha"))...)
	stream = append(stream, buildFrame(FrameHello, 0, nil)...)
	stream = append(stream, buildFrame(FrameError, 0xFFFFFFFF, []byte{1, 2, 3})...)

	fr := NewReader(bytes.NewReader(stream), nil)
	want := []Frame{
		{Type: FrameStep, ReqID: 7, Payload: []byte("alpha")},
		{Type: FrameHello, ReqID: 0, Payload: []byte{}},
		{Type: FrameError, ReqID: 0xFFFFFFFF, Payload: []byte{1, 2, 3}},
	}
	for i, w := range want {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != w.Type || f.ReqID != w.ReqID || !bytes.Equal(f.Payload, w.Payload) {
			t.Fatalf("frame %d = %+v, want %+v", i, f, w)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestReaderSplitReads drips the stream one byte at a time: frame boundaries
// never align with read boundaries, so every fill/compact path runs.
func TestReaderSplitReads(t *testing.T) {
	var stream []byte
	for i := 0; i < 50; i++ {
		stream = append(stream, buildFrame(FrameStep, uint32(i), bytes.Repeat([]byte{byte(i)}, i*7%97))...)
	}
	fr := NewReader(iotest.OneByteReader(bytes.NewReader(stream)), nil)
	for i := 0; i < 50; i++ {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.ReqID != uint32(i) || len(f.Payload) != i*7%97 {
			t.Fatalf("frame %d: reqID %d payload %d bytes", i, f.ReqID, len(f.Payload))
		}
	}
}

// TestReaderHasFrame: HasFrame is true exactly while a complete frame is
// buffered, so Next can return it without reading the stream; a frame of
// which only the first bytes, or only the header, arrived counts as absent.
func TestReaderHasFrame(t *testing.T) {
	third := buildFrame(FrameStep, 3, []byte("gamma"))
	var stream []byte
	stream = append(stream, buildFrame(FrameStep, 1, []byte("alpha"))...)
	stream = append(stream, buildFrame(FrameHello, 2, nil)...)
	stream = append(stream, third[:5]...)
	fr := NewReader(bytes.NewReader(stream), nil)
	if fr.HasFrame() {
		t.Fatal("HasFrame before any read")
	}
	for i, want := range []bool{true, false} {
		if _, err := fr.Next(); err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
		if got := fr.HasFrame(); got != want {
			t.Fatalf("after frame %d: HasFrame = %v, want %v", i+1, got, want)
		}
	}
	fr = NewReader(bytes.NewReader(append(buildFrame(FrameHello, 1, nil), third[:HeaderSize]...)), nil)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if fr.HasFrame() {
		t.Fatal("HasFrame with only the next frame's header buffered")
	}
}

// TestReaderGrowth feeds a frame larger than the initial buffer so the
// reader must grow, then a small one to confirm the stream stays aligned.
func TestReaderGrowth(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, 100<<10)
	var stream []byte
	stream = append(stream, buildFrame(FrameStepBatch, 1, big)...)
	stream = append(stream, buildFrame(FrameStep, 2, []byte("tail"))...)
	fr := NewReader(bytes.NewReader(stream), make([]byte, 4096))
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, big) {
		t.Fatalf("big payload corrupted: %d bytes", len(f.Payload))
	}
	f, err = fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Payload) != "tail" {
		t.Fatalf("tail payload = %q", f.Payload)
	}
}

// TestReaderGrowsOnlyAsBytesArrive sends a header announcing a MaxPayload
// frame followed by 100 bytes: the buffer must stay at its initial size
// instead of being sized by the length prefix, since a connection keeps
// (and then pools) whatever buffer its reader grew.
func TestReaderGrowsOnlyAsBytesArrive(t *testing.T) {
	hdr, _ := BeginFrame(nil, FrameStepBatch, 1)
	putU32(hdr, uint32(headerAfterLen+MaxPayload))
	stream := append(hdr, make([]byte, 100)...)
	fr := NewReader(bytes.NewReader(stream), make([]byte, 4096))
	if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if got := len(fr.Buffer()); got != 4096 {
		t.Fatalf("buffer grew to %d bytes on a 112-byte stream, want 4096", got)
	}

	// Bytes that do arrive still grow the buffer, by doubling, to the
	// frame's exact size.
	payload := bytes.Repeat([]byte{0xCD}, 10000)
	fr = NewReader(bytes.NewReader(buildFrame(FrameStepBatch, 2, payload)), make([]byte, 4096))
	f, err := fr.Next()
	if err != nil || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("grown frame: %v (%d payload bytes)", err, len(f.Payload))
	}
	if got, want := len(fr.Buffer()), HeaderSize+len(payload); got != want {
		t.Fatalf("buffer = %d bytes, want the frame size %d", got, want)
	}
}

func TestReaderHeaderViolations(t *testing.T) {
	valid := buildFrame(FrameStep, 1, []byte("x"))
	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	cases := []struct {
		name   string
		stream []byte
		want   string
	}{
		{"length below header", corrupt(func(b []byte) { putU32(b, 3) }), "below header size"},
		{"oversized length", corrupt(func(b []byte) { putU32(b, MaxPayload+headerAfterLen+1) }), ErrTooLarge.Error()},
		{"wrong version", corrupt(func(b []byte) { b[4] = 9 }), "protocol version 9"},
		{"non-zero flags", corrupt(func(b []byte) { b[6] = 1 }), "non-zero flags"},
		{"non-zero reserved", corrupt(func(b []byte) { b[7] = 0x80 }), "non-zero flags"},
		{"truncated header", valid[:6], io.ErrUnexpectedEOF.Error()},
		{"truncated payload", valid[:len(valid)-1], io.ErrUnexpectedEOF.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := NewReader(bytes.NewReader(tc.stream), nil)
			_, err := fr.Next()
			if err == nil {
				t.Fatal("corrupt frame accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// ---------------------------------------------------------------- codec --

// truncationSweep checks that a decoder errors (never panics, never
// succeeds) on every strict prefix of a valid payload.
func truncationSweep(t *testing.T, payload []byte, decode func([]byte) error) {
	t.Helper()
	for n := 0; n < len(payload); n++ {
		if err := decode(payload[:n]); err == nil {
			t.Fatalf("decoder accepted %d of %d payload bytes", n, len(payload))
		}
	}
	if err := decode(payload); err != nil {
		t.Fatalf("full payload rejected: %v", err)
	}
}

func TestErrorPayloadRoundTrip(t *testing.T) {
	p := AppendErrorPayload(nil, StatusConflict, "duplicate feedback")
	status, msg, err := DecodeErrorPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusConflict || msg != "duplicate feedback" {
		t.Fatalf("decoded %d %q", status, msg)
	}
	truncationSweep(t, p, func(b []byte) error {
		_, _, err := DecodeErrorPayload(b)
		return err
	})
}

func TestHelloRoundTrip(t *testing.T) {
	want := Hello{Levels: []string{"accept", "advisory-only", "ignore-reading", "handover"}}
	p, err := AppendHelloPayload(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHelloPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v", got)
	}
	truncationSweep(t, p, func(b []byte) error {
		_, err := DecodeHelloPayload(b)
		return err
	})
}

func TestSeriesIDRoundTrip(t *testing.T) {
	p := AppendSeriesIDPayload(nil, "s-0042")
	id, err := DecodeSeriesIDPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(id) != "s-0042" {
		t.Fatalf("decoded %q", id)
	}
	truncationSweep(t, p, func(b []byte) error {
		_, err := DecodeSeriesIDPayload(b)
		return err
	})
	// Trailing garbage is rejected too: the payload is exactly the id.
	if _, err := DecodeSeriesIDPayload(append(p, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestStepItemRoundTrip(t *testing.T) {
	quality := []float64{0, 0.25, 1, math.Pi, -3.5}
	p, err := AppendStepItem(nil, "series-9", -14, quality)
	if err != nil {
		t.Fatal(err)
	}
	v, rest, err := DecodeStepItemView(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if string(v.SeriesID) != "series-9" || v.Outcome != -14 || v.NumQuality() != len(quality) {
		t.Fatalf("decoded id=%q outcome=%d nq=%d", v.SeriesID, v.Outcome, v.NumQuality())
	}
	for i, q := range quality {
		if v.QualityAt(i) != q {
			t.Fatalf("quality[%d] = %g, want %g", i, v.QualityAt(i), q)
		}
	}
	truncationSweep(t, p, func(b []byte) error {
		_, _, err := DecodeStepItemView(b)
		return err
	})
}

func TestStepResultRoundTrip(t *testing.T) {
	levels := []string{"accept", "handover"}
	want := StepResult{
		Fused: 14, Uncertainty: 0.03125, StatelessU: 0.5,
		SeriesLen: 17, TotalSteps: 1 << 40, ModelVersion: 3,
		Countermeasure: "handover", Accepted: false,
	}
	p := AppendStepResultPayload(nil, &want, 1)
	var got StepResult
	rest, err := DecodeStepResultPayload(p, &got, levels)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	// A level index outside the hello table is a protocol error, not an
	// out-of-bounds read.
	bad := AppendStepResultPayload(nil, &want, 7)
	if _, err := DecodeStepResultPayload(bad, &got, levels); err == nil {
		t.Fatal("out-of-table level index accepted")
	}
	truncationSweep(t, p, func(b []byte) error {
		var r StepResult
		_, err := DecodeStepResultPayload(b, &r, levels)
		return err
	})
}

func TestBatchItemResultRoundTrip(t *testing.T) {
	levels := []string{"accept"}
	ok := StepResult{Fused: 3, Uncertainty: 0.1, Countermeasure: "accept", Accepted: true}
	var p []byte
	p, err := AppendBatchHeader(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	p = AppendBatchItemResult(p, StatusOK, &ok, 0, "")
	p = AppendBatchItemResult(p, StatusNotFound, nil, 0, `unknown series "ghost"`)

	n, rest, err := DecodeBatchHeader(p)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("batch count %d", n)
	}
	var items [2]BatchItemResult
	// Poison the reused structs: a decode must fully overwrite them.
	items[0] = BatchItemResult{Status: 999, Err: "stale", Step: StepResult{Fused: -1}}
	items[1] = BatchItemResult{Status: 999, Step: StepResult{Fused: -1, Countermeasure: "stale"}}
	for i := range items {
		if rest, err = DecodeBatchItemResult(rest, &items[i], levels); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if items[0].Status != StatusOK || items[0].Err != "" || items[0].Step != ok {
		t.Fatalf("item 0 = %+v", items[0])
	}
	if items[1].Status != StatusNotFound || items[1].Err != `unknown series "ghost"` || items[1].Step != (StepResult{}) {
		t.Fatalf("item 1 = %+v", items[1])
	}
	truncationSweep(t, p[2:], func(b []byte) error {
		var it BatchItemResult
		rest := b
		var err error
		for i := 0; i < 2; i++ {
			if rest, err = DecodeBatchItemResult(rest, &it, levels); err != nil {
				return err
			}
		}
		return nil
	})

	if _, err := AppendBatchHeader(nil, MaxBatchItems+1); err == nil {
		t.Fatal("oversized batch header accepted")
	}
}

func TestFeedbackRoundTrip(t *testing.T) {
	req, err := AppendFeedbackRequestPayload(nil, "s1", 42, -3)
	if err != nil {
		t.Fatal(err)
	}
	id, step, truth, err := DecodeFeedbackRequestPayload(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(id) != "s1" || step != 42 || truth != -3 {
		t.Fatalf("decoded %q %d %d", id, step, truth)
	}
	truncationSweep(t, req, func(b []byte) error {
		_, _, _, err := DecodeFeedbackRequestPayload(b)
		return err
	})

	want := FeedbackResult{
		Step: 42, Correct: true, FusedOutcome: -3, Uncertainty: 0.25,
		TAQIMLeaf: 5, ModelVersion: 2, DriftAlarm: true,
	}
	resp := AppendFeedbackResultPayload(nil, &want)
	var got FeedbackResult
	if err := DecodeFeedbackResultPayload(resp, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	truncationSweep(t, resp, func(b []byte) error {
		var r FeedbackResult
		return DecodeFeedbackResultPayload(b, &r)
	})
}

// ---------------------------------------------------------------- client --

// scriptedPeer is a minimal in-memory wire server for client tests: it
// answers hello with the given ladder and hands every other frame to
// respond, which appends complete response frames to out.
func scriptedPeer(t *testing.T, conn net.Conn, levels []string, respond func(f Frame, out []byte) []byte) {
	t.Helper()
	go func() {
		defer conn.Close()
		fr := NewReader(conn, nil)
		var out []byte
		for {
			f, err := fr.Next()
			if err != nil {
				return
			}
			out = out[:0]
			if f.Type == FrameHello {
				var lenOff int
				out, lenOff = BeginFrame(out, ResponseType(FrameHello), f.ReqID)
				out, err = AppendHelloPayload(out, &Hello{Levels: levels})
				if err != nil {
					t.Error(err)
					return
				}
				out = EndFrame(out, lenOff)
			} else {
				out = respond(f, out)
			}
			if len(out) > 0 {
				if _, err := conn.Write(out); err != nil {
					return
				}
			}
		}
	}()
}

var testLevels = []string{"accept", "advisory-only", "handover"}

func TestClientRoundTrip(t *testing.T) {
	cs, ss := net.Pipe()
	scriptedPeer(t, ss, testLevels, func(f Frame, out []byte) []byte {
		var lenOff int
		switch f.Type {
		case FrameOpenSeries:
			out, lenOff = BeginFrame(out, ResponseType(FrameOpenSeries), f.ReqID)
			out = AppendSeriesIDPayload(out, "s-1")
		case FrameStep:
			v, rest, err := DecodeStepItemView(f.Payload)
			if err != nil || len(rest) != 0 {
				t.Errorf("step decode: %v (%d trailing)", err, len(rest))
			}
			out, lenOff = BeginFrame(out, ResponseType(FrameStep), f.ReqID)
			out = AppendStepResultPayload(out, &StepResult{
				Fused: v.Outcome, Uncertainty: v.QualityAt(0),
				SeriesLen: 1, TotalSteps: 1, ModelVersion: 1, Accepted: true,
			}, 0)
		case FrameStepBatch:
			n, rest, err := DecodeBatchHeader(f.Payload)
			if err != nil {
				t.Errorf("batch decode: %v", err)
			}
			out, lenOff = BeginFrame(out, ResponseType(FrameStepBatch), f.ReqID)
			out, _ = AppendBatchHeader(out, n)
			for i := 0; i < n; i++ {
				var v StepItemView
				if v, rest, err = DecodeStepItemView(rest); err != nil {
					t.Errorf("batch item %d: %v", i, err)
				}
				if string(v.SeriesID) == "ghost" {
					out = AppendBatchItemResult(out, StatusNotFound, nil, 0, `unknown series "ghost"`)
					continue
				}
				out = AppendBatchItemResult(out, StatusOK, &StepResult{Fused: v.Outcome, Accepted: true}, 2, "")
			}
		case FrameFeedback:
			_, step, truth, err := DecodeFeedbackRequestPayload(f.Payload)
			if err != nil {
				t.Errorf("feedback decode: %v", err)
			}
			out, lenOff = BeginFrame(out, ResponseType(FrameFeedback), f.ReqID)
			out = AppendFeedbackResultPayload(out, &FeedbackResult{
				Step: step, Correct: true, FusedOutcome: truth, ModelVersion: 1,
			})
		case FrameCloseSeries:
			out, lenOff = BeginFrame(out, ResponseType(FrameCloseSeries), f.ReqID)
		default:
			t.Errorf("unexpected frame type %#x", f.Type)
			return out
		}
		return EndFrame(out, lenOff)
	})

	c, err := NewClient(cs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !reflect.DeepEqual(c.Levels(), testLevels) {
		t.Fatalf("levels = %v", c.Levels())
	}

	id, err := c.OpenSeries()
	if err != nil {
		t.Fatal(err)
	}
	if id != "s-1" {
		t.Fatalf("series id %q", id)
	}

	var res StepResult
	if err := c.Step(id, 14, []float64{0.125, 0, 1}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Fused != 14 || res.Uncertainty != 0.125 || res.Countermeasure != "accept" || !res.Accepted {
		t.Fatalf("step result %+v", res)
	}

	items := []StepRequest{
		{SeriesID: id, Outcome: 1, Quality: []float64{0.5}},
		{SeriesID: "ghost", Outcome: 2, Quality: []float64{0.5}},
	}
	out := make([]BatchItemResult, 2)
	if err := c.StepBatch(items, out); err != nil {
		t.Fatal(err)
	}
	if out[0].Status != StatusOK || out[0].Step.Fused != 1 || out[0].Step.Countermeasure != "handover" {
		t.Fatalf("batch item 0 %+v", out[0])
	}
	if out[1].Status != StatusNotFound || out[1].Err != `unknown series "ghost"` {
		t.Fatalf("batch item 1 %+v", out[1])
	}

	var fb FeedbackResult
	if err := c.Feedback(id, 1, 14, &fb); err != nil {
		t.Fatal(err)
	}
	if fb.Step != 1 || fb.FusedOutcome != 14 || !fb.Correct {
		t.Fatalf("feedback result %+v", fb)
	}

	if err := c.CloseSeries(id); err != nil {
		t.Fatal(err)
	}
}

// TestClientPipelined drives many concurrent callers over one connection:
// the peer answers with each request's own outcome, so any response
// misrouting (request-id bookkeeping, buffer aliasing) shows up as a wrong
// field, and the race detector watches the write-combining path.
func TestClientPipelined(t *testing.T) {
	cs, ss := net.Pipe()
	scriptedPeer(t, ss, testLevels, func(f Frame, out []byte) []byte {
		v, _, err := DecodeStepItemView(f.Payload)
		if err != nil {
			t.Errorf("step decode: %v", err)
		}
		out, lenOff := BeginFrame(out, ResponseType(FrameStep), f.ReqID)
		out = AppendStepResultPayload(out, &StepResult{
			Fused: v.Outcome, TotalSteps: v.Outcome, Accepted: true,
		}, 0)
		return EndFrame(out, lenOff)
	})
	c, err := NewClient(cs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const callers, steps = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			quality := []float64{0.1}
			var res StepResult
			for i := 0; i < steps; i++ {
				outcome := g*steps + i + 1
				if err := c.Step("s", outcome, quality, &res); err != nil {
					t.Errorf("caller %d step %d: %v", g, i, err)
					return
				}
				if res.Fused != outcome || res.TotalSteps != outcome {
					t.Errorf("caller %d step %d: got fused=%d total=%d, want %d",
						g, i, res.Fused, res.TotalSteps, outcome)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestClientServerErrorFrame(t *testing.T) {
	cs, ss := net.Pipe()
	scriptedPeer(t, ss, testLevels, func(f Frame, out []byte) []byte {
		out, lenOff := BeginFrame(out, FrameError, f.ReqID)
		out = AppendErrorPayload(out, StatusNotFound, `unknown series "nope"`)
		return EndFrame(out, lenOff)
	})
	c, err := NewClient(cs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var res StepResult
	err = c.Step("nope", 1, []float64{0}, &res)
	var werr *Error
	if !errors.As(err, &werr) {
		t.Fatalf("error %T %v, want *wire.Error", err, err)
	}
	if werr.Status != StatusNotFound || werr.Msg != `unknown series "nope"` {
		t.Fatalf("error %+v", werr)
	}
	// The connection survives an error frame: the next call still works if
	// the peer answers it.
}

// TestClientConnectionLoss kills the peer mid-call: the blocked caller and
// all subsequent calls must fail instead of hanging.
func TestClientConnectionLoss(t *testing.T) {
	cs, ss := net.Pipe()
	scriptedPeer(t, ss, testLevels, func(f Frame, out []byte) []byte {
		ss.Close() // die instead of answering
		return nil
	})
	c, err := NewClient(cs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var res StepResult
	if err := c.Step("s", 1, []float64{0}, &res); err == nil {
		t.Fatal("step succeeded over a dead connection")
	}
	if _, err := c.OpenSeries(); err == nil {
		t.Fatal("open-series succeeded after connection loss")
	}
}

func TestClientClosed(t *testing.T) {
	cs, ss := net.Pipe()
	scriptedPeer(t, ss, testLevels, func(f Frame, out []byte) []byte { return nil })
	c, err := NewClient(cs)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	var res StepResult
	if err := c.Step("s", 1, []float64{0}, &res); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("error %v, want ErrClientClosed", err)
	}
}

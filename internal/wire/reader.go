package wire

import (
	"fmt"
	"io"
)

// Reader decodes frames from a byte stream into zero-copy payload views.
// It owns one growable buffer: complete frames already buffered are served
// without touching the underlying reader, which is what lets a server
// coalesce responses (flush only when HasFrame is false, i.e. the next Next
// would wait on the stream) and lets a drain deadline interrupt only idle
// connections, never frames already received.
type Reader struct {
	r   io.Reader
	buf []byte
	// buf[start:end] holds unconsumed bytes; the frame returned by Next
	// occupies buf[start-frameLen:start] until the following Next call.
	start, end int
}

// NewReader wraps r, reusing buf as the initial window when non-nil (the
// pooling hook: a connection handler checks one scratch buffer out per
// connection, not per frame).
func NewReader(r io.Reader, buf []byte) *Reader {
	if cap(buf) < HeaderSize {
		buf = make([]byte, 4096)
	}
	return &Reader{r: r, buf: buf[:cap(buf)]}
}

// Buffer returns the reader's current buffer for re-pooling after the
// stream ends.
func (fr *Reader) Buffer() []byte { return fr.buf }

// HasFrame reports whether the buffer holds a complete frame, so the next
// Next returns without reading the stream. When it is false, the next frame
// or the rest of it has yet to arrive, and the peer may be waiting on the
// responses to what it sent: now is the moment to flush them. A partly
// buffered frame counts as absent, since Next would block on its rest.
func (fr *Reader) HasFrame() bool {
	n := fr.end - fr.start
	return n >= HeaderSize && uint64(n) >= 4+uint64(getU32(fr.buf[fr.start:]))
}

// fill reads more bytes until at least need are buffered, compacting the
// buffer as required and growing it only as bytes arrive: a full buffer at
// most doubles per step and never past need, so a header that announces a
// huge payload costs memory only for the bytes that actually show up.
func (fr *Reader) fill(need int) error {
	if fr.end-fr.start >= need {
		return nil
	}
	if fr.start > 0 && (len(fr.buf)-fr.start < need || fr.start > len(fr.buf)/2) {
		copy(fr.buf, fr.buf[fr.start:fr.end])
		fr.end -= fr.start
		fr.start = 0
	}
	for fr.end-fr.start < need {
		if fr.end == len(fr.buf) {
			grown := make([]byte, min(2*len(fr.buf), need))
			fr.end = copy(grown, fr.buf[fr.start:fr.end])
			fr.start = 0
			fr.buf = grown
		}
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		if err != nil {
			if err == io.EOF && fr.end-fr.start >= need {
				return nil
			}
			if err == io.EOF && fr.end > fr.start {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Next returns the next frame. The payload aliases the internal buffer and
// is valid only until the following Next call. Header violations (bad
// version, non-zero flags or reserved byte, oversized length) are returned
// as errors: the stream cannot be trusted past them, so the connection
// should be closed.
func (fr *Reader) Next() (Frame, error) {
	if err := fr.fill(HeaderSize); err != nil {
		return Frame{}, err
	}
	h := fr.buf[fr.start:]
	n := int(getU32(h))
	if n < headerAfterLen {
		return Frame{}, fmt.Errorf("wire: frame length %d below header size", n)
	}
	if n-headerAfterLen > MaxPayload {
		return Frame{}, ErrTooLarge
	}
	if v := h[4]; v != Version {
		return Frame{}, fmt.Errorf("wire: protocol version %d, want %d", v, Version)
	}
	if h[6] != 0 || h[7] != 0 {
		return Frame{}, fmt.Errorf("wire: non-zero flags/reserved (%d/%d) in version %d frame", h[6], h[7], Version)
	}
	total := 4 + n
	if err := fr.fill(total); err != nil {
		return Frame{}, err
	}
	h = fr.buf[fr.start:]
	f := Frame{
		Type:    h[5],
		ReqID:   getU32(h[8:]),
		Payload: h[HeaderSize:total:total],
	}
	fr.start += total
	return f, nil
}

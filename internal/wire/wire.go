// Package wire is the binary streaming transport of the serving layer: a
// length-prefixed frame protocol over a persistent TCP connection, for
// deployments where the JSON endpoints' per-request HTTP overhead (~60× the
// actual uncertainty computation in BENCH_5) dominates. Frames are pipelined
// — a client keeps many requests in flight and the server answers in
// whatever order it processes them, correlated by request id — and both
// sides reuse pooled buffers, so the steady-state path allocates nothing
// per frame.
//
// Frame layout (all integers little-endian, no encoding/binary reflection):
//
//	offset  size  field
//	0       4     payload length N = frame bytes after this prefix (>= 8)
//	4       1     protocol version (Version)
//	5       1     frame type
//	6       1     flags (must be 0 in version 1)
//	7       1     reserved (must be 0)
//	8       4     request id (echoed verbatim in the response frame)
//	12      N-8   payload (shape per frame type, see codec.go)
//
// Request frame types are small integers; the matching response sets the
// high bit (type | 0x80). FrameError answers any request that failed, with
// an HTTP-aligned status code so the two transports share one error
// vocabulary. A connection starts with a Hello exchange: the response
// carries the simplex countermeasure ladder, so step responses can name the
// selected countermeasure as a one-byte index into that table instead of a
// string per frame.
//
//tauw:codec
package wire

import (
	"errors"
	"fmt"
)

// Version is the protocol version byte; a server rejects frames carrying
// any other value (the versioning escape hatch for incompatible layouts).
const Version = 1

// HeaderSize is the fixed byte count before the payload (length prefix
// included); headerAfterLen is the part covered by the length prefix.
const (
	HeaderSize     = 12
	headerAfterLen = 8
)

// Frame types. Responses echo the request type with the high bit set.
const (
	FrameHello       byte = 1
	FrameOpenSeries  byte = 2
	FrameStep        byte = 3
	FrameStepBatch   byte = 4
	FrameFeedback    byte = 5
	FrameCloseSeries byte = 6

	// FrameError answers any request that failed as a whole; its payload
	// carries a status code and message (see AppendErrorPayload).
	FrameError byte = 0xFF

	// responseBit marks a frame as the response to the same-type request.
	responseBit byte = 0x80
)

// ResponseType maps a request frame type to its response type.
func ResponseType(req byte) byte { return req | responseBit }

// MaxPayload caps one frame's payload, aligned with the JSON batch
// endpoint's body cap: a hostile length prefix is rejected before any
// allocation sized by it.
const MaxPayload = 16 << 20

// MaxBatchItems caps one step-batch frame, matching the JSON batch
// endpoint's item cap so a client can switch transports without resizing
// its batches.
const MaxBatchItems = 4096

// Statuses carried by FrameError and per-item batch results mirror the
// HTTP endpoints' codes, so clients translate failures identically on both
// transports.
const (
	StatusOK              = 200
	StatusBadRequest      = 400
	StatusNotFound        = 404
	StatusConflict        = 409
	StatusGone            = 410
	StatusTooLarge        = 413
	StatusTooManyRequests = 429
	StatusInternal        = 500
	StatusNotImplemented  = 501
	StatusUnavailable     = 503
)

// Error is a failed request as reported by the server.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return fmt.Sprintf("wire: status %d: %s", e.Status, e.Msg) }

// ErrTooLarge is returned when a frame's length prefix exceeds MaxPayload.
var ErrTooLarge = errors.New("wire: frame exceeds max payload")

// errShortPayload fails a payload decode that ran out of bytes.
var errShortPayload = errors.New("wire: truncated payload")

// ---------------------------------------------------------------- little-endian --

// The hand-rolled put/get helpers keep the codec free of encoding/binary's
// interface boxing; all bounds checks are the callers' (appends grow,
// decodes length-check before reading).

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func getU16(b []byte) uint16 {
	_ = b[1]
	return uint16(b[0]) | uint16(b[1])<<8
}

func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// ---------------------------------------------------------------- framing --

// BeginFrame appends a frame header for the given type and request id and
// returns the grown buffer plus the offset of the length prefix; the caller
// appends the payload and then calls EndFrame with that offset. Frames
// under construction nest freely in one buffer as long as Begin/End pair up
// innermost-first (the transport only ever builds them sequentially).
//
//tauw:hotpath
func BeginFrame(dst []byte, typ byte, reqID uint32) ([]byte, int) {
	lenOff := len(dst)
	dst = appendU32(dst, 0) // patched by EndFrame
	dst = append(dst, Version, typ, 0, 0)
	dst = appendU32(dst, reqID)
	return dst, lenOff
}

// EndFrame patches the length prefix of the frame begun at lenOff.
//
//tauw:hotpath
func EndFrame(dst []byte, lenOff int) []byte {
	putU32(dst[lenOff:], uint32(len(dst)-lenOff-4))
	return dst
}

// Frame is one decoded frame. Payload aliases the reader's buffer and is
// valid only until the next Next call.
type Frame struct {
	Type    byte
	ReqID   uint32
	Payload []byte
}

// AppendErrorPayload renders a FrameError payload: u16 status, u16 message
// length, message bytes (truncated to fit the length field).
func AppendErrorPayload(dst []byte, status int, msg string) []byte {
	if len(msg) > 0xFFFF {
		msg = msg[:0xFFFF]
	}
	dst = appendU16(dst, uint16(status))
	dst = appendU16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// DecodeErrorPayload parses a FrameError payload.
func DecodeErrorPayload(p []byte) (status int, msg string, err error) {
	if len(p) < 4 {
		return 0, "", errShortPayload
	}
	n := int(getU16(p[2:]))
	if len(p) < 4+n {
		return 0, "", errShortPayload
	}
	return int(getU16(p)), string(p[4 : 4+n]), nil
}

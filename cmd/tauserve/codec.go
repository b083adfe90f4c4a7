// codec.go is the reflection-free JSON codec for the serving hot path. The
// two hot endpoints (POST /v1/step and POST /v1/steps) have fixed
// request/response shapes, so they do not need encoding/json's reflective
// walk: requests are parsed by a hand-rolled scanner straight into pooled
// scratch (the quality object is resolved into the wrapper's factor vector
// during the parse — the intermediate map never exists), and responses are
// built with append-based writers into a pooled buffer flushed with a single
// Write. Cold endpoints keep the stdlib encoder.
//
// The decoder implements json.Unmarshal semantics for the shapes it
// understands: arbitrary whitespace, unknown fields (skipped, any value
// shape), duplicate keys (last wins; duplicate quality objects merge, as
// stdlib merges into an existing map), escaped strings including surrogate
// pairs, and strict JSON number grammar. Anything it accepts, the stdlib
// accepts with the same meaning — enforced by differential fuzz tests. It is
// stricter than the old json.Decoder-based handler in exactly one way:
// trailing non-whitespace after the top-level value is rejected, as
// json.Unmarshal would.
package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"github.com/iese-repro/tauw/internal/augment"
	"github.com/iese-repro/tauw/internal/core"
)

// qualityNames is the fixed deficit-channel name set, index-aligned with
// qualityIndex and the wrapper's factor vector.
var qualityNames = augment.Names()

// ---------------------------------------------------------------- encoder --

// errNonFiniteJSON mirrors encoding/json's refusal to encode NaN and ±Inf:
// the hot-path encoder must not invent values the stdlib would reject.
var errNonFiniteJSON = errors.New("tauserve: unsupported value: non-finite float")

// appendJSONFloat appends f exactly as encoding/json renders float64 values
// (shortest form, 'e' notation outside [1e-6, 1e21) with the exponent's
// leading zero trimmed), or fails for non-finite values as Marshal does.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, errNonFiniteJSON
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string with encoding/json's
// value semantics: control characters are escaped, invalid UTF-8 is replaced
// with U+FFFD, and the HTML-unsafe characters <, >, & are escaped so the
// bytes match what the stdlib encoder would emit for the same string.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				dst = append(dst, b)
				i++
				continue
			}
			switch b {
			case '"':
				dst = append(dst, '\\', '"')
			case '\\':
				dst = append(dst, '\\', '\\')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			// The stdlib writes the replacement character as an escape
			// sequence, not as raw UTF-8.
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			continue
		}
		// U+2028 and U+2029 are escaped by the stdlib for JS embedding.
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}

// appendStepResponse renders the single-step success body; field order and
// float formatting match the struct's stdlib encoding.
// appendErrorResponse renders the unified error body {"error": msg} —
// the shape of every 4xx/5xx the server writes. String encoding cannot
// fail, so unlike the response encoders it returns no error: httpError
// must never itself need an error path.
func appendErrorResponse(dst []byte, msg string) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendJSONString(dst, msg)
	return append(dst, '}', '\n')
}

//tauw:hotpath
func appendStepResponse(dst []byte, r *stepResponse) ([]byte, error) {
	var err error
	dst = append(dst, `{"series_id":`...)
	dst = appendJSONString(dst, r.SeriesID)
	dst = append(dst, `,"fused_outcome":`...)
	dst = strconv.AppendInt(dst, int64(r.FusedOutcome), 10)
	dst = append(dst, `,"uncertainty":`...)
	if dst, err = appendJSONFloat(dst, r.Uncertainty); err != nil {
		return dst, err
	}
	dst = append(dst, `,"stateless_uncertainty":`...)
	if dst, err = appendJSONFloat(dst, r.StatelessU); err != nil {
		return dst, err
	}
	dst = append(dst, `,"series_len":`...)
	dst = strconv.AppendInt(dst, int64(r.SeriesLen), 10)
	dst = append(dst, `,"total_steps":`...)
	dst = strconv.AppendInt(dst, int64(r.TotalSteps), 10)
	dst = append(dst, `,"model_version":`...)
	dst = strconv.AppendUint(dst, r.ModelVersion, 10)
	dst = append(dst, `,"countermeasure":`...)
	dst = appendJSONString(dst, r.Countermeasure)
	dst = append(dst, `,"accepted":`...)
	dst = strconv.AppendBool(dst, r.Accepted)
	return append(dst, '}'), nil
}

// appendBatchItemResponse renders one batch item with the omitempty
// semantics of the struct tags: exactly one of step/error appears.
func appendBatchItemResponse(dst []byte, r *batchItemResponse) ([]byte, error) {
	var err error
	dst = append(dst, `{"status":`...)
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	if r.Step != nil {
		dst = append(dst, `,"step":`...)
		if dst, err = appendStepResponse(dst, r.Step); err != nil {
			return dst, err
		}
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, r.Error)
	}
	return append(dst, '}'), nil
}

// appendBatchStepResponse renders the full batch body. A nil Results slice
// renders as null, as the stdlib encodes nil slices (the handlers never
// produce one — an empty batch is rejected before encoding — but the
// differential fuzz covers the shape).
//
//tauw:hotpath
func appendBatchStepResponse(dst []byte, r *batchStepResponse) ([]byte, error) {
	var err error
	if r.Results == nil {
		dst = append(dst, `{"results":null,"ok":`...)
		dst = strconv.AppendInt(dst, int64(r.OK), 10)
		dst = append(dst, `,"failed":`...)
		dst = strconv.AppendInt(dst, int64(r.Failed), 10)
		return append(dst, '}'), nil
	}
	dst = append(dst, `{"results":[`...)
	for i := range r.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = appendBatchItemResponse(dst, &r.Results[i]); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `],"ok":`...)
	dst = strconv.AppendInt(dst, int64(r.OK), 10)
	dst = append(dst, `,"failed":`...)
	dst = strconv.AppendInt(dst, int64(r.Failed), 10)
	return append(dst, '}'), nil
}

// ---------------------------------------------------------------- decoder --

// wireStep is one decoded step item of either transport: a JSON quality
// object has already been resolved into the wrapper's factor vector (qf), so
// its map[string]float64 never materialises, and a frame's positional
// vector is copied in. When the item carried a semantic error (unknown
// factor, out-of-range value, bad pixel size, a frame's wrong factor count)
// it is recorded in itemErr and the item fails with its own 400 without
// failing the batch — exactly the split the stdlib path had between
// json.Decode errors (whole-request) and qualityFromMap errors (per-item).
type wireStep struct {
	seriesID string
	outcome  int
	qf       []float64
	itemErr  error
}

// decoder is a minimal JSON scanner over a complete request body. It is
// allocation-free once its quality arena has grown to the requests it
// serves: series ids are zero-copy views into the body where possible, and
// unknown-field values are skipped without materialising anything.
type decoder struct {
	buf []byte
	pos int

	// scratch backs escaped-string decoding and quality-key lookups.
	scratch []byte
	// arena backs the decoded quality vectors of both transports for one
	// request. The pool keeps no quality vector once a step returns, so
	// reset starts the arena over for the next request; carving grows it to
	// the largest request served, at most maxBatchItems vectors.
	arena []float64
}

// reset points the decoder at the next request's body and reclaims the
// quality vectors carved for the previous request.
func (d *decoder) reset(buf []byte) {
	d.buf = buf
	d.pos = 0
	d.arena = d.arena[:0]
}

func (d *decoder) errAt(format string, args ...any) error {
	args = append([]any{d.pos}, args...)
	return fmt.Errorf("invalid JSON at offset %d: "+format, args...)
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// literal consumes the given keyword (true/false/null) sans first byte.
func (d *decoder) literal(rest string) error {
	if len(d.buf)-d.pos < len(rest) || string(d.buf[d.pos:d.pos+len(rest)]) != rest {
		return d.errAt("bad literal")
	}
	d.pos += len(rest)
	return nil
}

// number scans one JSON number token (strict grammar: no leading zeros, no
// bare or trailing dot, no leading plus) and returns its raw text.
func (d *decoder) number() ([]byte, error) {
	start := d.pos
	if d.pos < len(d.buf) && d.buf[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.buf) && d.buf[d.pos] == '0':
		d.pos++
	case d.pos < len(d.buf) && d.buf[d.pos] >= '1' && d.buf[d.pos] <= '9':
		for d.pos < len(d.buf) && d.buf[d.pos] >= '0' && d.buf[d.pos] <= '9' {
			d.pos++
		}
	default:
		return nil, d.errAt("bad number")
	}
	if d.pos < len(d.buf) && d.buf[d.pos] == '.' {
		d.pos++
		if d.pos >= len(d.buf) || d.buf[d.pos] < '0' || d.buf[d.pos] > '9' {
			return nil, d.errAt("bad number fraction")
		}
		for d.pos < len(d.buf) && d.buf[d.pos] >= '0' && d.buf[d.pos] <= '9' {
			d.pos++
		}
	}
	if d.pos < len(d.buf) && (d.buf[d.pos] == 'e' || d.buf[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.buf) && (d.buf[d.pos] == '+' || d.buf[d.pos] == '-') {
			d.pos++
		}
		if d.pos >= len(d.buf) || d.buf[d.pos] < '0' || d.buf[d.pos] > '9' {
			return nil, d.errAt("bad number exponent")
		}
		for d.pos < len(d.buf) && d.buf[d.pos] >= '0' && d.buf[d.pos] <= '9' {
			d.pos++
		}
	}
	return d.buf[start:d.pos], nil
}

func (d *decoder) float() (float64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.errAt("number %q out of range", tok)
	}
	return f, nil
}

func (d *decoder) int() (int, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, d.errAt("number %q is not an integer", tok)
	}
	return int(n), nil
}

// stringBytes scans one JSON string and returns its decoded contents. When
// the raw segment has no escapes and is valid UTF-8 the return aliases the
// body buffer (zero copy — valid until the buffer is recycled); otherwise
// the contents are decoded into the scratch buffer with stdlib semantics
// (escape sequences, surrogate pairs, U+FFFD for invalid input).
func (d *decoder) stringBytes() ([]byte, error) {
	if d.pos >= len(d.buf) || d.buf[d.pos] != '"' {
		return nil, d.errAt("expected string")
	}
	d.pos++
	start := d.pos
	for d.pos < len(d.buf) {
		switch b := d.buf[d.pos]; {
		case b == '"':
			seg := d.buf[start:d.pos]
			d.pos++
			if utf8.Valid(seg) {
				return seg, nil
			}
			return d.replaceInvalid(seg), nil
		case b == '\\':
			return d.stringSlow(start)
		case b < 0x20:
			return nil, d.errAt("control character in string")
		default:
			d.pos++
		}
	}
	return nil, d.errAt("unterminated string")
}

// replaceInvalid copies seg into scratch replacing invalid UTF-8 with
// U+FFFD, as the stdlib string decoder does.
func (d *decoder) replaceInvalid(seg []byte) []byte {
	d.scratch = d.scratch[:0]
	for i := 0; i < len(seg); {
		r, size := utf8.DecodeRune(seg[i:])
		if r == utf8.RuneError && size == 1 {
			d.scratch = utf8.AppendRune(d.scratch, utf8.RuneError)
			i++
			continue
		}
		d.scratch = append(d.scratch, seg[i:i+size]...)
		i += size
	}
	return d.scratch
}

// stringSlow finishes scanning a string that contains escapes, decoding into
// scratch. start is the offset of the first content byte.
func (d *decoder) stringSlow(start int) ([]byte, error) {
	d.scratch = append(d.scratch[:0], d.buf[start:d.pos]...)
	for d.pos < len(d.buf) {
		b := d.buf[d.pos]
		switch {
		case b == '"':
			d.pos++
			if !utf8.Valid(d.scratch) {
				seg := append([]byte(nil), d.scratch...)
				return d.replaceInvalid(seg), nil
			}
			return d.scratch, nil
		case b == '\\':
			d.pos++
			if d.pos >= len(d.buf) {
				return nil, d.errAt("unterminated escape")
			}
			esc := d.buf[d.pos]
			d.pos++
			switch esc {
			case '"', '\\', '/':
				d.scratch = append(d.scratch, esc)
			case 'b':
				d.scratch = append(d.scratch, '\b')
			case 'f':
				d.scratch = append(d.scratch, '\f')
			case 'n':
				d.scratch = append(d.scratch, '\n')
			case 'r':
				d.scratch = append(d.scratch, '\r')
			case 't':
				d.scratch = append(d.scratch, '\t')
			case 'u':
				r, err := d.hex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					// A high surrogate must be followed by \u + low
					// surrogate; anything else decodes to U+FFFD, as in
					// the stdlib.
					if d.pos+1 < len(d.buf) && d.buf[d.pos] == '\\' && d.buf[d.pos+1] == 'u' {
						save := d.pos
						d.pos += 2
						r2, err := d.hex4()
						if err != nil {
							return nil, err
						}
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							d.scratch = utf8.AppendRune(d.scratch, dec)
							continue
						}
						d.pos = save
					}
					r = utf8.RuneError
				}
				d.scratch = utf8.AppendRune(d.scratch, r)
			default:
				return nil, d.errAt("bad escape %q", esc)
			}
		case b < 0x20:
			return nil, d.errAt("control character in string")
		default:
			d.scratch = append(d.scratch, b)
			d.pos++
		}
	}
	return nil, d.errAt("unterminated string")
}

func (d *decoder) hex4() (rune, error) {
	if d.pos+4 > len(d.buf) {
		return 0, d.errAt("short unicode escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := d.buf[d.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, d.errAt("bad unicode escape")
		}
	}
	d.pos += 4
	return r, nil
}

// skipValue consumes one JSON value of any shape — how unknown fields are
// tolerated without materialising them.
func (d *decoder) skipValue() error {
	d.skipSpace()
	if d.pos >= len(d.buf) {
		return d.errAt("unexpected end of input")
	}
	switch b := d.buf[d.pos]; {
	case b == '"':
		_, err := d.stringBytes()
		return err
	case b == '{':
		d.pos++
		return d.skipContainer('}')
	case b == '[':
		d.pos++
		return d.skipContainer(']')
	case b == 't':
		d.pos++
		return d.literal("rue")
	case b == 'f':
		d.pos++
		return d.literal("alse")
	case b == 'n':
		d.pos++
		return d.literal("ull")
	case b == '-' || (b >= '0' && b <= '9'):
		_, err := d.number()
		return err
	default:
		return d.errAt("unexpected character %q", b)
	}
}

func (d *decoder) skipContainer(closer byte) error {
	isObject := closer == '}'
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == closer {
		d.pos++
		return nil
	}
	for {
		if isObject {
			d.skipSpace()
			if _, err := d.stringBytes(); err != nil {
				return err
			}
			d.skipSpace()
			if d.pos >= len(d.buf) || d.buf[d.pos] != ':' {
				return d.errAt("expected ':'")
			}
			d.pos++
		}
		if err := d.skipValue(); err != nil {
			return err
		}
		d.skipSpace()
		if d.pos >= len(d.buf) {
			return d.errAt("unterminated container")
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case closer:
			d.pos++
			return nil
		default:
			return d.errAt("expected ',' or %q", closer)
		}
	}
}

// end verifies only whitespace remains — json.Unmarshal semantics for the
// top-level value.
func (d *decoder) end() error {
	d.skipSpace()
	if d.pos != len(d.buf) {
		return d.errAt("trailing data after top-level value")
	}
	return nil
}

// qfVector carves the next zeroed quality vector out of the arena. A full
// arena is replaced by one twice its size, up to maxBatchItems vectors; the
// vectors already carved keep the old backing until the request ends.
func (d *decoder) qfVector() []float64 {
	width := len(qualityIndex) + 1
	n := len(d.arena)
	if n+width > cap(d.arena) {
		d.arena = make([]float64, 0, min(max(2*cap(d.arena), width), maxBatchItems*width))
		n = 0
	}
	d.arena = d.arena[:n+width]
	qf := d.arena[n : n+width : n+width]
	clear(qf)
	return qf
}

// bytesToString returns a zero-copy string view of b; the view is only valid
// while the backing buffer lives, which the handlers guarantee by holding
// the pooled body buffer until the response is written.
func bytesToString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// maybeNull consumes a null literal if one is next (after whitespace) and
// reports whether it did — json.Unmarshal treats null as a no-op for every
// field type, so every value position must tolerate it.
func (d *decoder) maybeNull() (bool, error) {
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == 'n' {
		d.pos++
		return true, d.literal("ull")
	}
	return false, nil
}

// decodeStepItem parses one step object into out. Syntax errors fail the
// whole decode; semantic quality errors land in out.itemErr with parsing
// continuing, so one bad item cannot fail a batch. A null in place of the
// object yields the zero item, as the stdlib decoder would.
//
//tauw:hotpath
func (d *decoder) decodeStepItem(out *wireStep) error {
	*out = wireStep{qf: d.qfVector()}
	pixelSize := 0.0
	if isNull, err := d.maybeNull(); isNull || err != nil {
		if err == nil {
			out.itemErr, out.qf = checkQuality(out.qf), nil
		}
		return err
	}
	if d.pos >= len(d.buf) || d.buf[d.pos] != '{' {
		return d.errAt("expected step object")
	}
	d.pos++
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == '}' {
		d.pos++
	} else {
		for {
			d.skipSpace()
			key, err := d.stringBytes()
			if err != nil {
				return err
			}
			// Copy the key decision before scanning the value: the scratch
			// the key may live in is reused by nested strings.
			field := stepField(key)
			d.skipSpace()
			if d.pos >= len(d.buf) || d.buf[d.pos] != ':' {
				return d.errAt("expected ':'")
			}
			d.pos++
			isNull := false
			if field != 0 && field != 3 {
				// Field 3 (quality) handles null itself; for the scalar
				// fields null is a no-op, as in the stdlib.
				if isNull, err = d.maybeNull(); err != nil {
					return err
				}
			}
			switch {
			case isNull:
			case field == 1:
				d.skipSpace()
				s, err := d.stringBytes()
				if err != nil {
					return err
				}
				if sameSlice(s, d.scratch) {
					// Escaped string: scratch is transient, copy out.
					out.seriesID = string(s)
				} else {
					out.seriesID = bytesToString(s)
				}
			case field == 2:
				d.skipSpace()
				out.outcome, err = d.int()
				if err != nil {
					return err
				}
			case field == 3:
				if err := d.decodeQuality(out); err != nil {
					return err
				}
			case field == 4:
				d.skipSpace()
				pixelSize, err = d.float()
				if err != nil {
					return err
				}
			default:
				if err := d.skipValue(); err != nil {
					return err
				}
			}
			d.skipSpace()
			if d.pos >= len(d.buf) {
				return d.errAt("unterminated object")
			}
			switch d.buf[d.pos] {
			case ',':
				d.pos++
			case '}':
				d.pos++
			default:
				return d.errAt("expected ',' or '}'")
			}
			if d.buf[d.pos-1] == '}' {
				break
			}
		}
	}
	// Semantic validation runs on the final values only, so a duplicate
	// key that overwrites a bad value heals the item exactly as it would
	// have through the stdlib map path.
	out.qf[len(out.qf)-1] = pixelSize
	if out.itemErr == nil {
		out.itemErr = checkQuality(out.qf)
	}
	if out.itemErr != nil {
		out.qf = nil
	}
	return nil
}

// checkQuality is the semantic check every decoded quality vector passes,
// whichever transport carried it: deficit channels in [0,1] and a positive
// pixel size, both negated so NaN (which satisfies no comparison) fails.
func checkQuality(qf []float64) error {
	n := len(qf) - 1
	for i, v := range qf[:n] {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("quality factor %q = %g outside [0,1]", qualityNames[i], v)
		}
	}
	if !(qf[n] > 0) {
		return fmt.Errorf("pixel_size must be positive, got %g", qf[n])
	}
	return nil
}

// sameSlice reports whether a aliases b's backing array start — how
// decodeStepItem distinguishes a zero-copy view from scratch contents.
func sameSlice(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// stepField maps a step-object key to its field number (0 = unknown),
// with json.Unmarshal's matching rules: exact match first, then
// case-insensitive fold.
func stepField(key []byte) int {
	switch string(key) {
	case "series_id":
		return 1
	case "outcome":
		return 2
	case "quality":
		return 3
	case "pixel_size":
		return 4
	}
	switch {
	case foldEq(key, "series_id"):
		return 1
	case foldEq(key, "outcome"):
		return 2
	case foldEq(key, "quality"):
		return 3
	case foldEq(key, "pixel_size"):
		return 4
	}
	return 0
}

// foldEq reports whether key case-insensitively equals the (all-lowercase
// ASCII) field name under encoding/json's folding rules: ASCII case folding
// plus the two Unicode specials the stdlib folds into ASCII, U+017F (ſ -> s)
// and U+212A (K -> k).
func foldEq(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); {
		if j >= len(name) {
			return false
		}
		var folded byte
		if c := key[i]; c < utf8.RuneSelf {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			folded = c
			i++
		} else {
			r, size := utf8.DecodeRune(key[i:])
			switch r {
			case 'ſ':
				folded = 's'
			case 'K':
				folded = 'k'
			default:
				return false
			}
			i += size
		}
		if folded != name[j] {
			return false
		}
		j++
	}
	return j == len(name)
}

// decodeQuality parses the quality object directly into the item's factor
// vector: names resolve through qualityIndex, values land in their slots.
// Unknown names are a semantic item error (recorded, parse continues);
// null is accepted as the empty map, as the stdlib decoder would.
func (d *decoder) decodeQuality(out *wireStep) error {
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == 'n' {
		d.pos++
		return d.literal("ull")
	}
	if d.pos >= len(d.buf) || d.buf[d.pos] != '{' {
		return d.errAt("expected quality object")
	}
	d.pos++
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == '}' {
		d.pos++
		return nil
	}
	for {
		d.skipSpace()
		key, err := d.stringBytes()
		if err != nil {
			return err
		}
		slot, known := qualityIndex[string(key)]
		if !known && out.itemErr == nil {
			out.itemErr = fmt.Errorf("unknown quality factor %q", string(key))
		}
		d.skipSpace()
		if d.pos >= len(d.buf) || d.buf[d.pos] != ':' {
			return d.errAt("expected ':'")
		}
		d.pos++
		// A null value stores the zero value under the key, exactly as the
		// stdlib does for map[string]float64.
		v := 0.0
		isNull, err := d.maybeNull()
		if err != nil {
			return err
		}
		if !isNull {
			d.skipSpace()
			if v, err = d.float(); err != nil {
				return err
			}
		}
		if known {
			out.qf[slot] = v
		}
		d.skipSpace()
		if d.pos >= len(d.buf) {
			return d.errAt("unterminated quality object")
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.errAt("expected ',' or '}'")
		}
	}
}

// decodeStepRequest parses a complete POST /v1/step body (a top-level null
// yields the zero request, as in the stdlib).
func (d *decoder) decodeStepRequest(out *wireStep) error {
	if err := d.decodeStepItem(out); err != nil {
		return err
	}
	return d.end()
}

// errBatchTooLarge aborts a batch decode the moment the steps array
// exceeds maxBatchItems: the cap must bind during the parse, not after it,
// or a legal 16 MiB body of millions of tiny items would be fully
// materialised (and its slice capacity retained by the scratch pool) just
// to be rejected.
var errBatchTooLarge = fmt.Errorf("batch exceeds limit %d", maxBatchItems)

// decodeBatchRequest parses a complete POST /v1/steps body into the reused
// items slice; unknown top-level fields are skipped, "steps": null is the
// empty batch, and an array beyond maxBatchItems fails with
// errBatchTooLarge.
func (d *decoder) decodeBatchRequest(items []wireStep) ([]wireStep, error) {
	items = items[:0]
	// A top-level null decodes to the zero request (no steps), as in the
	// stdlib.
	if isNull, err := d.maybeNull(); isNull || err != nil {
		if err != nil {
			return items, err
		}
		return items, d.end()
	}
	if d.pos >= len(d.buf) || d.buf[d.pos] != '{' {
		return items, d.errAt("expected request object")
	}
	d.pos++
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == '}' {
		d.pos++
		return items, d.end()
	}
	for {
		d.skipSpace()
		key, err := d.stringBytes()
		if err != nil {
			return items, err
		}
		isSteps := string(key) == "steps" || foldEq(key, "steps")
		d.skipSpace()
		if d.pos >= len(d.buf) || d.buf[d.pos] != ':' {
			return items, d.errAt("expected ':'")
		}
		d.pos++
		if isSteps {
			if items, err = d.decodeStepsArray(items); err != nil {
				return items, err
			}
		} else if err := d.skipValue(); err != nil {
			return items, err
		}
		d.skipSpace()
		if d.pos >= len(d.buf) {
			return items, d.errAt("unterminated object")
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return items, d.end()
		default:
			return items, d.errAt("expected ',' or '}'")
		}
	}
}

func (d *decoder) decodeStepsArray(items []wireStep) ([]wireStep, error) {
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == 'n' {
		d.pos++
		return items[:0], d.literal("ull")
	}
	if d.pos >= len(d.buf) || d.buf[d.pos] != '[' {
		return items, d.errAt("expected steps array")
	}
	d.pos++
	// A duplicate "steps" key replaces the array, as stdlib replaces the
	// slice value.
	items = items[:0]
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == ']' {
		d.pos++
		return items, nil
	}
	for {
		if len(items) >= maxBatchItems {
			return items, errBatchTooLarge
		}
		var w wireStep
		if err := d.decodeStepItem(&w); err != nil {
			return items, err
		}
		items = append(items, w)
		d.skipSpace()
		if d.pos >= len(d.buf) {
			return items, d.errAt("unterminated array")
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			return items, nil
		default:
			return items, d.errAt("expected ',' or ']'")
		}
	}
}

// ------------------------------------------------------------ scratch pool --

// serveScratch bundles every reusable buffer one hot exchange needs: the
// body bytes (the wire connection's frame buffer), the decoder with its
// quality arena, the decoded items, the pool batch inputs and results, and
// the response buffer. One sync.Pool checkout per HTTP request, or per wire
// connection.
type serveScratch struct {
	x       exchange
	body    []byte
	dec     decoder
	steps   []wireStep
	items   []core.SeriesStepItem
	back    []int32
	results []core.BatchResult
	resp    batchStepResponse
	// stepBodies backs the per-item Step pointers of resp.Results, sized
	// before the first pointer is taken so growth can never invalidate one.
	stepBodies []stepResponse
	out        []byte
}

var servePool = sync.Pool{New: func() any {
	return &serveScratch{body: make([]byte, 0, 4096), out: make([]byte, 0, 4096)}
}}

func getScratch() *serveScratch { return servePool.Get().(*serveScratch) }

func (s *serveScratch) release() {
	// Drop references the pool must not pin: series-id views into the body
	// buffer die with the length reset. The decoder keeps its quality arena
	// for the next checkout; no step kept a vector carved from it.
	s.x = exchange{}
	for i := range s.steps {
		s.steps[i] = wireStep{}
	}
	s.steps = s.steps[:0]
	for i := range s.items {
		s.items[i] = core.SeriesStepItem{}
	}
	s.items = s.items[:0]
	s.back = s.back[:0]
	for i := range s.results {
		s.results[i] = core.BatchResult{}
	}
	s.results = s.results[:0]
	for i := range s.resp.Results {
		s.resp.Results[i] = batchItemResponse{}
	}
	s.resp.Results = s.resp.Results[:0]
	for i := range s.stepBodies {
		s.stepBodies[i] = stepResponse{}
	}
	s.stepBodies = s.stepBodies[:0]
	s.body = s.body[:0]
	s.out = s.out[:0]
	s.dec.reset(nil)
	servePool.Put(s)
}

// readBody reads r in full into dst's storage (grown as needed), the pooled
// replacement for io.ReadAll on the hot endpoints.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

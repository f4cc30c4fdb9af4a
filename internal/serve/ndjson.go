package serve

import (
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"entropyip/internal/ip6"
)

// The NDJSON stream of POST /v1/models/{name}/generate used to go through
// encoding/json once per line — an Encoder allocation-and-reflection round
// trip per candidate, dominating the serving cost of the compiled sampler.
// The stream's line shapes are fixed ({"addr":"..."}, {"prefix":"..."},
// {"error":"..."}), so ndjsonWriter builds each line in its own reusable
// byte buffer with append-style formatting. The only subtle part is string
// escaping, which appendJSONString keeps byte-identical to encoding/json
// (HTML escaping included) so clients see exactly the bytes the old
// encoder produced.

// ndjsonWriter is the NDJSON counterpart of wire.Writer: it formats one
// stream's lines into an owned buffer and hands the sink one complete
// chunk per perChunk lines, so the streams of a batch interleave whole
// lines through a shared sink. In batch mode every line opens with
// {"stream":i, and End writes the {"stream":i,"done":true} line; a
// single stream's lines are untagged and End writes nothing — the body
// simply ends.
type ndjsonWriter struct {
	sink     io.Writer
	open     []byte // `{`, or `{"stream":i,` in batch mode
	batch    bool
	traceID  string
	perChunk int
	lines    int
	buf      []byte
}

// ndjsonWriterPool reuses per-stream NDJSON encoders; Reset keeps each
// writer's buffers, so steady state allocates nothing.
var ndjsonWriterPool = sync.Pool{
	New: func() interface{} { return new(ndjsonWriter) },
}

// Reset points the writer at a new stream. traceID rides on the stream's
// error line, if it ends with one.
func (w *ndjsonWriter) Reset(sink io.Writer, stream int, batch bool, traceID string, perChunk int) {
	w.sink, w.batch, w.traceID, w.perChunk, w.lines = sink, batch, traceID, perChunk, 0
	w.open = append(w.open[:0], '{')
	if batch {
		w.open = append(w.open, `"stream":`...)
		w.open = strconv.AppendInt(w.open, int64(stream), 10)
		w.open = append(w.open, ',')
	}
	// Size the buffer for a full chunk up front, as wire.Writer does, so
	// formatting never grows it mid-stream.
	if need := perChunk * maxCandidateLine; cap(w.buf) < need {
		w.buf = make([]byte, 0, need)
	}
	w.buf = w.buf[:0]
}

// maxCandidateLine is the longest candidate line:
// {"stream":255,"addr":"<39-character address>"} and a newline.
const maxCandidateLine = 64

// AddAddr appends one address line, handing a full chunk to the sink.
func (w *ndjsonWriter) AddAddr(a ip6.Addr) error {
	w.buf = append(w.buf, w.open...)
	w.buf = append(w.buf, `"addr":"`...)
	w.buf = a.AppendString(w.buf)
	return w.endLine()
}

// AddPrefix appends one prefix line, handing a full chunk to the sink.
func (w *ndjsonWriter) AddPrefix(p ip6.Prefix) error {
	w.buf = append(w.buf, w.open...)
	w.buf = append(w.buf, `"prefix":"`...)
	w.buf = p.AppendString(w.buf)
	return w.endLine()
}

func (w *ndjsonWriter) endLine() error {
	w.buf = append(w.buf, '"', '}', '\n')
	w.lines++
	if w.lines < w.perChunk {
		return nil
	}
	return w.flush()
}

// flush hands the buffered lines, if any, to the sink as one chunk.
func (w *ndjsonWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.sink.Write(w.buf)
	w.buf, w.lines = w.buf[:0], 0
	return err
}

// Error ends the stream with an error line carrying msg and the trace ID.
func (w *ndjsonWriter) Error(msg string) error {
	w.buf = appendErrorLine(append(w.buf, w.open...), msg, w.traceID)
	return w.flush()
}

// End flushes pending lines and, in batch mode, writes the done line.
func (w *ndjsonWriter) End() error {
	if w.batch {
		w.buf = append(w.buf, w.open...)
		w.buf = append(w.buf, `"done":true}`+"\n"...)
	}
	return w.flush()
}

// putNDJSONWriter returns a writer to the pool. Writers grown by a huge
// one-off line (a long error message) are dropped instead of pinning
// their buffer in the pool forever.
func putNDJSONWriter(w *ndjsonWriter) {
	if cap(w.buf) <= 1<<20 {
		w.sink = nil
		ndjsonWriterPool.Put(w)
	}
}

// jsonSafe marks the bytes encoding/json emits verbatim inside a string
// with its default HTML escaping on: printable ASCII minus '"', '\\' and
// the HTML-sensitive '<', '>', '&'.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		switch c {
		case '"', '\\', '<', '>', '&':
		default:
			safe[c] = true
		}
	}
	return
}()

const hexLower = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal (quotes included),
// escaping byte-identically to encoding/json with its default HTML
// escaping: \" \\ \n \r \t, \u00XX for other control and HTML-sensitive
// characters, \u2028/\u2029 for the JS line separators, and the U+FFFD
// replacement for invalid UTF-8. TestAppendJSONStringMatchesEncodingJSON
// pins the equivalence.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexLower[b>>4], hexLower[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			// encoding/json's HTML-escaping encoder writes the escape
			// sequence, not the literal replacement character.
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexLower[c&0xf])
			i += size
			start = i
		default:
			i += size
		}
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendErrorLine completes the error line that ends a failed or
// drained stream; dst already holds the line's opening, `{` or
// `{"stream":i,`. A single stream's line is byte-identical to
// json.Encoder.Encode(GenerateItem{Error: msg, TraceID: traceID}) —
// including omitempty collapsing an all-empty line to "{}"; a batch line
// always names its error. The trace ID rides along so a client holding
// only the truncated stream can pull the matching flight-recorder trace
// and server logs.
func appendErrorLine(dst []byte, msg, traceID string) []byte {
	if msg != "" || dst[len(dst)-1] == ',' {
		dst = append(dst, `"error":`...)
		dst = appendJSONString(dst, msg)
		if traceID != "" {
			dst = append(dst, ',')
		}
	}
	if traceID != "" {
		dst = append(dst, `"trace_id":`...)
		dst = appendJSONString(dst, traceID)
	}
	return append(dst, '}', '\n')
}

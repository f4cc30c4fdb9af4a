package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"entropyip/internal/ip6"
	"entropyip/internal/wire"
)

// doHeaders issues a request with extra headers (Accept, Content-Type)
// and an optional raw body.
func doHeaders(t *testing.T, s *Server, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// jsonBody marshals a request body for doHeaders.
func jsonBody(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNegotiateGenerateEncoding(t *testing.T) {
	cases := []struct {
		accept string
		enc    encoding
		reject bool
	}{
		{"", encNDJSON, false},
		{"*/*", encNDJSON, false},
		{"application/x-ndjson", encNDJSON, false},
		{"application/json", encNDJSON, false},
		{"application/*", encNDJSON, false},
		{wire.ContentType, encBinary, false},
		{"Application/X-Entropyip-Addrs", encBinary, false},
		{"application/x-ndjson, " + wire.ContentType, encBinary, false},
		{wire.ContentType + ";q=0.5, application/x-ndjson", encBinary, false},
		{"text/html, */*", encNDJSON, false},
		{"text/html", 0, true},
		{"application/xml;q=1.0", 0, true},
	}
	for _, tc := range cases {
		r := httptest.NewRequest("POST", "/v1/models/web/generate", nil)
		if tc.accept != "" {
			r.Header.Set("Accept", tc.accept)
		}
		enc, err := negotiateGenerateEncoding(r)
		if tc.reject {
			if err == nil {
				t.Errorf("Accept %q: expected rejection, got %v", tc.accept, enc)
			}
			continue
		}
		if err != nil || enc != tc.enc {
			t.Errorf("Accept %q: enc = %v, err = %v; want %v", tc.accept, enc, err, tc.enc)
		}
	}
}

func TestGenerateNotAcceptable(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	w := doHeaders(t, s, "POST", "/v1/models/web/generate",
		jsonBody(t, GenerateRequest{Count: 5}), map[string]string{"Accept": "text/csv"})
	if w.Code != http.StatusNotAcceptable {
		t.Fatalf("status = %d, want 406 (%s)", w.Code, w.Body.String())
	}
	var er errorResponse
	decode(t, w, &er)
	if er.Error.Code != CodeNotAcceptable {
		t.Errorf("code = %q, want %q", er.Error.Code, CodeNotAcceptable)
	}
}

// ndjsonAddrs parses a single-stream NDJSON generate body into its
// address strings, failing on any error trailer.
func ndjsonAddrs(t *testing.T, body *bytes.Buffer, prefixes bool) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(body.Bytes()))
	for sc.Scan() {
		var item GenerateItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if item.Error != "" {
			t.Fatalf("error trailer: %s", item.Error)
		}
		if prefixes {
			out = append(out, item.Prefix)
		} else {
			out = append(out, item.Addr)
		}
	}
	return out
}

// binaryAddrs decodes a binary generate body, returning per-stream
// address/prefix strings and per-stream seeds (Seed frames; stream 0's
// header seed when absent). Error frames fail the test.
func binaryAddrs(t *testing.T, body *bytes.Buffer) (wire.Header, map[int][]string, map[int]int64, map[int]bool) {
	t.Helper()
	rd, err := wire.NewReader(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatalf("reading binary header: %v", err)
	}
	hdr := rd.Header()
	byStream := map[int][]string{}
	seeds := map[int]int64{}
	ended := map[int]bool{}
	for {
		f, err := rd.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("decoding frame: %v", err)
		}
		switch f.Kind {
		case wire.KindAddrs:
			for i := 0; i < f.Count; i++ {
				byStream[f.Stream] = append(byStream[f.Stream], f.Addr(i).String())
			}
		case wire.KindPrefixes:
			for i := 0; i < f.Count; i++ {
				byStream[f.Stream] = append(byStream[f.Stream], f.Prefix(i).String())
			}
		case wire.KindSeed:
			seeds[f.Stream] = f.Seed()
		case wire.KindEnd:
			ended[f.Stream] = true
		case wire.KindError:
			t.Fatalf("stream %d error frame: %s", f.Stream, f.Message())
		}
	}
	return hdr, byStream, seeds, ended
}

// TestGenerateBinaryMatchesNDJSON is the cross-encoding equivalence
// gate of PR 7: the same model, seed and options must yield the
// identical candidate sequence through NDJSON text and binary framing,
// at Workers 1 and 4 (ordered generation is deterministic across worker
// counts, so all four responses agree).
func TestGenerateBinaryMatchesNDJSON(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	for _, prefixes := range []bool{false, true} {
		var want []string
		for _, workers := range []int{1, 4} {
			req := GenerateRequest{Count: 500, Seed: seedPtr(42), Workers: workers, Prefixes: prefixes}
			wText := do(t, s, "POST", "/v1/models/web/generate", req)
			if wText.Code != http.StatusOK {
				t.Fatalf("ndjson status = %d: %s", wText.Code, wText.Body.String())
			}
			text := ndjsonAddrs(t, wText.Body, prefixes)

			wBin := doHeaders(t, s, "POST", "/v1/models/web/generate",
				jsonBody(t, req), map[string]string{"Accept": wire.ContentType})
			if wBin.Code != http.StatusOK {
				t.Fatalf("binary status = %d: %s", wBin.Code, wBin.Body.String())
			}
			if ct := wBin.Header().Get("Content-Type"); ct != wire.ContentType {
				t.Fatalf("binary Content-Type = %q", ct)
			}
			hdr, byStream, _, ended := binaryAddrs(t, wBin.Body)
			if hdr.Prefixes() != prefixes || hdr.Batch() || hdr.Streams != 1 || hdr.Seed != 42 {
				t.Fatalf("binary header = %+v (prefixes=%v)", hdr, prefixes)
			}
			if !ended[0] {
				t.Fatal("missing End frame")
			}
			bin := byStream[0]

			if len(text) == 0 || len(text) != len(bin) {
				t.Fatalf("prefixes=%v workers=%d: %d text vs %d binary candidates",
					prefixes, workers, len(text), len(bin))
			}
			for i := range text {
				if text[i] != bin[i] {
					t.Fatalf("prefixes=%v workers=%d: candidate %d differs: %q (text) vs %q (binary)",
						prefixes, workers, i, text[i], bin[i])
				}
			}
			if want == nil {
				want = text
			} else if fmt.Sprint(want) != fmt.Sprint(text) {
				t.Fatalf("prefixes=%v: sequence differs across worker counts", prefixes)
			}
		}
	}
}

// TestGenerateBinaryHeaders pins the response metadata headers on the
// binary encoding: X-Seed echo, X-Encoding, X-Model-Version.
func TestGenerateBinaryHeaders(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	w := doHeaders(t, s, "POST", "/v1/models/web/generate",
		jsonBody(t, GenerateRequest{Count: 3, Seed: seedPtr(7)}),
		map[string]string{"Accept": wire.ContentType})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Seed"); got != "7" {
		t.Errorf("X-Seed = %q, want 7", got)
	}
	if got := w.Header().Get("X-Encoding"); got != "binary" {
		t.Errorf("X-Encoding = %q, want binary", got)
	}
	if got := w.Header().Get("X-Model-Version"); got != "1" {
		t.Errorf("X-Model-Version = %q, want 1", got)
	}
}

// TestGenerateBinaryEarlyErrorEnvelope checks a request that fails
// before any frame is flushed (unknown evidence segment) still answers
// with the JSON error envelope, not a broken binary body.
func TestGenerateBinaryEarlyErrorEnvelope(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	w := doHeaders(t, s, "POST", "/v1/models/web/generate",
		jsonBody(t, GenerateRequest{Count: 3, Seed: seedPtr(1), Evidence: map[string]string{"NOPE": "X1"}}),
		map[string]string{"Accept": wire.ContentType})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", w.Code, w.Body.String())
	}
	var er errorResponse
	decode(t, w, &er)
	if er.Error.Code != CodeInvalidRequest || er.Error.Message == "" {
		t.Errorf("envelope = %+v", er.Error)
	}
}

// ndjsonStreams parses an NDJSON generate body into per-stream
// candidates and the set of streams that closed with a done line. Batch
// lines must carry their stream index; single-stream lines belong to
// stream 0. Error lines fail the test.
func ndjsonStreams(t *testing.T, body *bytes.Buffer, batch, prefixes bool) (map[int][]string, map[int]bool) {
	t.Helper()
	byStream := map[int][]string{}
	done := map[int]bool{}
	sc := bufio.NewScanner(bytes.NewReader(body.Bytes()))
	for sc.Scan() {
		var item GenerateItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		idx := 0
		if batch {
			if item.Stream == nil {
				t.Fatalf("batch line missing stream index: %q", sc.Text())
			}
			idx = *item.Stream
		}
		switch {
		case item.Error != "":
			t.Fatalf("stream %d error: %s", idx, item.Error)
		case item.Done:
			done[idx] = true
		case prefixes:
			byStream[idx] = append(byStream[idx], item.Prefix)
		default:
			byStream[idx] = append(byStream[idx], item.Addr)
		}
	}
	return byStream, done
}

// TestGenerateBatchBinary runs checkGenerateBatch over the binary
// encoding.
func TestGenerateBatchBinary(t *testing.T) { checkGenerateBatch(t, true) }

// TestGenerateBatchNDJSON runs checkGenerateBatch over the
// {"stream":i,...} NDJSON line protocol.
func TestGenerateBatchNDJSON(t *testing.T) { checkGenerateBatch(t, false) }

// checkGenerateBatch drives a 10-stream batch request — more streams
// than maxConcurrentStreams, so the stream gate queues — in one encoding
// for both candidate kinds. Each demultiplexed stream must equal the
// single-stream response with the same seed in the same encoding, and
// must close with its End frame (binary) or done line (NDJSON); binary
// Seed frames and the X-Seed and X-Encoding headers must agree with the
// request.
func checkGenerateBatch(t *testing.T, binary bool) {
	t.Helper()
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	const nStreams, count = 10, 40
	var specs []GenerateStreamSpec
	var seedStrs []string
	for i := 0; i < nStreams; i++ {
		seed := int64(101 * (i + 1))
		specs = append(specs, GenerateStreamSpec{Count: count, Seed: seedPtr(seed)})
		seedStrs = append(seedStrs, fmt.Sprint(seed))
	}
	wantEnc := "ndjson"
	if binary {
		wantEnc = "binary"
	}
	for _, prefixes := range []bool{false, true} {
		t.Run(fmt.Sprintf("prefixes=%v", prefixes), func(t *testing.T) {
			hdrs := map[string]string{}
			if binary {
				hdrs["Accept"] = wire.ContentType
			}
			// decode returns a response's per-stream candidates and
			// which streams ended cleanly.
			decode := func(w *httptest.ResponseRecorder, batch bool) (map[int][]string, map[int]bool) {
				t.Helper()
				if w.Code != http.StatusOK {
					t.Fatalf("status = %d: %s", w.Code, w.Body.String())
				}
				if !binary {
					return ndjsonStreams(t, w.Body, batch, prefixes)
				}
				hdr, byStream, seeds, ended := binaryAddrs(t, w.Body)
				if hdr.Batch() != batch || hdr.Prefixes() != prefixes {
					t.Fatalf("header = %+v, want batch=%v prefixes=%v", hdr, batch, prefixes)
				}
				if batch {
					if hdr.Streams != nStreams || hdr.Seed != *specs[0].Seed {
						t.Fatalf("header = %+v", hdr)
					}
					for i, sp := range specs {
						if seeds[i] != *sp.Seed {
							t.Errorf("stream %d seed frame = %d, want %d", i, seeds[i], *sp.Seed)
						}
					}
				}
				return byStream, ended
			}
			w := doHeaders(t, s, "POST", "/v1/models/web/generate",
				jsonBody(t, GenerateRequest{Streams: specs, Prefixes: prefixes}), hdrs)
			if got, want := w.Header().Get("X-Seed"), strings.Join(seedStrs, ","); got != want {
				t.Errorf("X-Seed = %q, want %q", got, want)
			}
			if got := w.Header().Get("X-Encoding"); got != wantEnc {
				t.Errorf("X-Encoding = %q, want %q", got, wantEnc)
			}
			byStream, ended := decode(w, true)
			for i, sp := range specs {
				if !ended[i] {
					t.Errorf("stream %d did not end with its End frame or done line", i)
				}
				single := doHeaders(t, s, "POST", "/v1/models/web/generate",
					jsonBody(t, GenerateRequest{Count: count, Seed: sp.Seed, Prefixes: prefixes}), hdrs)
				ref, _ := decode(single, false)
				if len(ref[0]) == 0 || fmt.Sprint(byStream[i]) != fmt.Sprint(ref[0]) {
					t.Errorf("stream %d differs from single-stream generation with seed %d", i, *sp.Seed)
				}
			}
		})
	}
}

// panicOnceFlusher is a ResponseWriter whose first Flush panics. Batch
// streams flush from their own goroutines, so the panic lands on one of
// them, outside the handler middleware's recover.
type panicOnceFlusher struct {
	*httptest.ResponseRecorder
	fired atomic.Bool
}

func (w *panicOnceFlusher) Flush() {
	if w.fired.CompareAndSwap(false, true) {
		panic("flush fault")
	}
	w.ResponseRecorder.Flush()
}

// TestBatchStreamPanicIsInBand checks that a panic on one batch stream's
// goroutine ends that stream alone with an in-band Error frame and is
// counted as a handler panic, while the other streams run to their End
// frames and the server keeps serving.
func TestBatchStreamPanicIsInBand(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	const nStreams, count = 4, 40
	var specs []GenerateStreamSpec
	for i := 0; i < nStreams; i++ {
		specs = append(specs, GenerateStreamSpec{Count: count, Seed: seedPtr(int64(i + 1))})
	}
	req := httptest.NewRequest("POST", "/v1/models/web/generate",
		bytes.NewReader(jsonBody(t, GenerateRequest{Streams: specs})))
	req.Header.Set("Accept", wire.ContentType)
	w := &panicOnceFlusher{ResponseRecorder: httptest.NewRecorder()}
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}

	rd, err := wire.NewReader(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	failed := map[int]string{}
	ended := map[int]bool{}
	addrs := map[int]int{}
	for {
		f, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("decoding frame: %v", err)
		}
		switch f.Kind {
		case wire.KindAddrs:
			addrs[f.Stream] += f.Count
		case wire.KindEnd:
			ended[f.Stream] = true
		case wire.KindError:
			failed[f.Stream] = f.Message()
		}
	}
	if len(failed) != 1 {
		t.Fatalf("streams with an Error frame = %v, want exactly one", failed)
	}
	for i := 0; i < nStreams; i++ {
		msg, bad := failed[i]
		switch {
		case bad && (msg != streamPanicMessage || ended[i]):
			t.Errorf("panicked stream %d: error %q, End frame %v; want %q and no End", i, msg, ended[i], streamPanicMessage)
		case !bad && (!ended[i] || addrs[i] != count):
			t.Errorf("stream %d: %d addresses, End frame %v; want %d and End", i, addrs[i], ended[i], count)
		}
	}
	if got := s.metrics.Snapshot().Panics; got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
	if w := do(t, s, "GET", "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz after stream panic: status = %d", w.Code)
	}
}

// TestGeneratorPanicAnswers500 checks a panic in the generation
// producers: a single stream that fails before its first byte gets a
// 500 envelope, each batch stream ends with the in-band error, every
// panic is counted, and the server keeps serving.
func TestGeneratorPanicAnswers500(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	m := testModel(t, 1)
	if _, err := reg.Put("web", m); err != nil {
		t.Fatal(err)
	}
	// The registry serves the cached *core.Model. A root CPT without rows
	// compiles into a sampler whose every draw indexes out of range.
	m.Net.CPTs[0].Rows = nil
	// Count >= 1024 with two workers runs the producer goroutines.
	w := do(t, s, "POST", "/v1/models/web/generate",
		GenerateRequest{Count: 2000, Seed: seedPtr(1), Workers: 2})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("single stream: status = %d: %s", w.Code, w.Body.String())
	}
	var env errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Message != streamPanicMessage {
		t.Errorf("single stream: body %q (%v), want the %q envelope", w.Body.String(), err, streamPanicMessage)
	}

	specs := []GenerateStreamSpec{{Count: 2000, Seed: seedPtr(2)}, {Count: 2000, Seed: seedPtr(3)}}
	req := httptest.NewRequest("POST", "/v1/models/web/generate",
		bytes.NewReader(jsonBody(t, GenerateRequest{Streams: specs, Workers: 2})))
	req.Header.Set("Accept", wire.ContentType)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status = %d: %s", rec.Code, rec.Body.String())
	}
	rd, err := wire.NewReader(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	failed := map[int]string{}
	for {
		f, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("decoding frame: %v", err)
		}
		if f.Kind == wire.KindError {
			failed[f.Stream] = f.Message()
		}
	}
	if len(failed) != len(specs) || failed[0] != streamPanicMessage || failed[1] != streamPanicMessage {
		t.Errorf("batch Error frames = %v, want %q on both streams", failed, streamPanicMessage)
	}
	if got := s.metrics.Snapshot().Panics; got != 3 {
		t.Errorf("Panics = %d, want 3", got)
	}
	if w := do(t, s, "GET", "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz after generator panic: status = %d", w.Code)
	}
}

// TestGenerateBatchValidation pins the batch-request validation errors.
func TestGenerateBatchValidation(t *testing.T) {
	s, reg := newTestServer(t, Options{MaxGenerateCount: 100})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	tooMany := make([]GenerateStreamSpec, MaxGenerateStreams+1)
	for i := range tooMany {
		tooMany[i] = GenerateStreamSpec{Count: 1}
	}
	cases := []struct {
		name string
		req  GenerateRequest
		frag string
	}{
		{"mixed top-level and streams",
			GenerateRequest{Count: 5, Streams: []GenerateStreamSpec{{Count: 5}}},
			"mutually exclusive"},
		{"zero stream count",
			GenerateRequest{Streams: []GenerateStreamSpec{{Count: 0}}},
			"streams[0].count"},
		{"total over limit",
			GenerateRequest{Streams: []GenerateStreamSpec{{Count: 60}, {Count: 60}}},
			"total count"},
		{"too many streams",
			GenerateRequest{Streams: tooMany},
			"streams exceed limit"},
	}
	for _, tc := range cases {
		w := do(t, s, "POST", "/v1/models/web/generate", tc.req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, w.Code)
			continue
		}
		var er errorResponse
		decode(t, w, &er)
		if !strings.Contains(er.Error.Message, tc.frag) {
			t.Errorf("%s: message %q missing %q", tc.name, er.Error.Message, tc.frag)
		}
	}
}

// buildObserveBody frames addrs as a binary /observe body.
func buildObserveBody(t *testing.T, addrs []ip6.Addr) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(wire.AppendHeader(nil, wire.Header{Streams: 1}))
	ww := wire.NewWriter(&buf, 0, false, 0)
	for _, a := range addrs {
		if err := ww.AddAddr(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := ww.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObserveBinary posts a framed binary body and checks it lands in
// the model's window exactly like the text path.
func TestObserveBinary(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	addrs := testAddrs(5000, 3)
	w := doHeaders(t, s, "POST", "/v1/models/web/observe",
		buildObserveBody(t, addrs), map[string]string{"Content-Type": wire.ContentType})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Encoding"); got != "binary" {
		t.Errorf("X-Encoding = %q", got)
	}
	var resp ObserveResponse
	decode(t, w, &resp)
	if resp.Accepted != len(addrs) {
		t.Errorf("accepted = %d, want %d", resp.Accepted, len(addrs))
	}
	if resp.Invalid != 0 {
		t.Errorf("invalid = %d on a binary body", resp.Invalid)
	}
}

// TestObserveBinaryRejects pins the 400s of the binary observe path:
// text mislabeled as binary, prefix streams, and error frames.
func TestObserveBinaryRejects(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	prefixHdr := wire.AppendHeader(nil, wire.Header{Flags: wire.FlagPrefixes, Streams: 1})
	var errBody bytes.Buffer
	errBody.Write(wire.AppendHeader(nil, wire.Header{Streams: 1}))
	if err := wire.NewWriter(&errBody, 0, false, 0).Error("boom"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
		frag string
	}{
		{"ndjson mislabeled", []byte("{\"addr\":\"2001:db8::1\"}\n"), "bad magic"},
		{"prefix stream", prefixHdr, "prefix streams"},
		{"error frame", errBody.Bytes(), "unexpected frame kind"},
		{"truncated frame", buildObserveBody(t, testAddrs(10, 1))[:20], "malformed frame"},
	}
	for _, tc := range cases {
		w := doHeaders(t, s, "POST", "/v1/models/web/observe",
			tc.body, map[string]string{"Content-Type": wire.ContentType})
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
			continue
		}
		var er errorResponse
		decode(t, w, &er)
		if !strings.Contains(er.Error.Message, tc.frag) {
			t.Errorf("%s: message %q missing %q", tc.name, er.Error.Message, tc.frag)
		}
	}
}

// TestObserveBinaryTooLarge checks the body cap maps to 413 on the
// binary path too.
func TestObserveBinaryTooLarge(t *testing.T) {
	s, reg := newTestServer(t, Options{MaxBodyBytes: 256})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	w := doHeaders(t, s, "POST", "/v1/models/web/observe",
		buildObserveBody(t, testAddrs(4096, 1)), map[string]string{"Content-Type": wire.ContentType})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", w.Code, w.Body.String())
	}
	var er errorResponse
	decode(t, w, &er)
	if er.Error.Code != CodePayloadTooLarge {
		t.Errorf("code = %q, want %q", er.Error.Code, CodePayloadTooLarge)
	}
}

// TestEncodingCounters checks the per-encoding request counters appear
// in the exposition with the route/encoding labels.
func TestEncodingCounters(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if w := do(t, s, "POST", "/v1/models/web/generate", GenerateRequest{Count: 2, Seed: seedPtr(1)}); w.Code != 200 {
		t.Fatalf("generate ndjson: %d", w.Code)
	}
	if w := doHeaders(t, s, "POST", "/v1/models/web/generate",
		jsonBody(t, GenerateRequest{Count: 2, Seed: seedPtr(1)}),
		map[string]string{"Accept": wire.ContentType}); w.Code != 200 {
		t.Fatalf("generate binary: %d", w.Code)
	}
	if w := doHeaders(t, s, "POST", "/v1/models/web/observe",
		buildObserveBody(t, testAddrs(4, 1)), map[string]string{"Content-Type": wire.ContentType}); w.Code != 200 {
		t.Fatalf("observe binary: %d", w.Code)
	}
	body := scrape(t, s)
	for _, want := range []string{
		`eip_encoding_requests_total{route="generate",encoding="ndjson"} 1`,
		`eip_encoding_requests_total{route="generate",encoding="binary"} 1`,
		`eip_encoding_requests_total{route="observe",encoding="binary"} 1`,
		`eip_encoding_requests_total{route="observe",encoding="ndjson"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

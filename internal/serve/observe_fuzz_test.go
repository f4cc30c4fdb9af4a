package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"entropyip/internal/ip6"
	"entropyip/internal/wire"
)

// FuzzObserveBody sends arbitrary observe bodies, as NDJSON or as the
// binary encoding, through Server.ServeHTTP. The body is untrusted
// input: the answer must be a 200 or a 4xx error envelope, never a 5xx
// or a panic.
func FuzzObserveBody(f *testing.F) {
	f.Add([]byte("2001:db8::1\n"), false)
	f.Add([]byte(`"2001:db8::2"`+"\n"), false)
	f.Add([]byte(`{"addr":"2001:db8::3"}`+"\n"), false)
	f.Add([]byte("\n# comment\n   \n2001:db8::4 # trailing\n"), false)
	f.Add([]byte("not an address\n{\"addr\":7}\n\"\\u00zz\"\n"), false)

	var capture bytes.Buffer
	capture.Write(wire.AppendHeader(nil, wire.Header{Streams: 1, Seed: 7}))
	ww := wire.NewWriter(&capture, 0, false, 3)
	for _, a := range testAddrs(10, 1) {
		_ = ww.AddAddr(a)
	}
	_ = ww.End()
	f.Add(capture.Bytes(), true)
	f.Add(capture.Bytes()[:capture.Len()-3], true)

	var prefixes bytes.Buffer
	prefixes.Write(wire.AppendHeader(nil, wire.Header{Flags: wire.FlagPrefixes, Streams: 1}))
	pw := wire.NewWriter(&prefixes, 0, true, 2)
	for _, a := range testAddrs(4, 2) {
		_ = pw.AddPrefix(ip6.PrefixFrom(a, 64))
	}
	_ = pw.End()
	f.Add(prefixes.Bytes(), true)

	s, reg := newTestServer(f, Options{MaxBodyBytes: 1 << 16})
	if _, err := reg.Put("web", testModel(f, 1)); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, binary bool) {
		req := httptest.NewRequest(http.MethodPost, "/v1/models/web/observe", bytes.NewReader(body))
		if binary {
			req.Header.Set("Content-Type", wire.ContentType)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		switch {
		case w.Code == http.StatusOK:
			var out ObserveResponse
			if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 with an undecodable body %q: %v", w.Body.String(), err)
			}
		case w.Code >= 400 && w.Code < 500:
			var env errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
				t.Fatalf("status %d without an error envelope: %q", w.Code, w.Body.String())
			}
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	})
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"entropyip/internal/core"
	"entropyip/internal/ip6"
)

// escapeCorpus exercises every branch of encoding/json's string escaper:
// plain ASCII, the named escapes, generic control characters, the HTML
// set, multi-byte UTF-8, the JS line separators, and invalid UTF-8.
var escapeCorpus = []string{
	"",
	"plain ascii",
	"2001:db8::1", "::ffff:192.0.2.1/64",
	`quote " and backslash \`,
	"newline\n tab\t carriage\r",
	"control \x00\x01\x1f\x7f",
	"html <script>&amp;</script>",
	"unicode é 漢字 🎉",
	"line sep \u2028 and \u2029 end",
	"invalid \xff\xfe utf8",
	"truncated \xe2\x82 rune",
	"mixed <\n \xffé>",
}

// TestAppendJSONStringMatchesEncodingJSON pins the byte-identity contract
// of the hand-rolled escaper against the old encoding/json path, so
// replacing the per-line Encoder cannot change any stream byte.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range escapeCorpus {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %q, encoding/json = %q", s, got, want)
		}
		// Appending after existing content must not disturb it.
		pre := appendJSONString([]byte("xy"), s)
		if !bytes.Equal(pre, append([]byte("xy"), want...)) {
			t.Errorf("appendJSONString onto prefix = %q, want xy+%q", pre, want)
		}
	}
}

// TestGenerateNDJSONLinesMatchEncodingJSON pins each single-stream line
// shape the ndjsonWriter emits against the exact bytes the old
// json.Encoder produced for GenerateItem, and checks that every batch
// line shape is valid JSON tagged with its stream.
func TestGenerateNDJSONLinesMatchEncodingJSON(t *testing.T) {
	oldLine := func(item GenerateItem) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(item); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var got bytes.Buffer
	var nw ndjsonWriter
	check := func(what string, write func() error, item GenerateItem) {
		t.Helper()
		got.Reset()
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if want := oldLine(item); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s line = %q, old encoder = %q", what, got.Bytes(), want)
		}
	}
	nw.Reset(&got, 0, false, "", 1)
	for _, a := range testAddrs(200, 7) {
		check("addr", func() error { return nw.AddAddr(a) }, GenerateItem{Addr: a.String()})
		p := ip6.Prefix64(a)
		check("prefix", func() error { return nw.AddPrefix(p) }, GenerateItem{Prefix: p.String()})
	}
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, msg := range escapeCorpus {
		for _, traceID := range []string{"", tid} {
			nw.Reset(&got, 0, false, traceID, 1)
			check("error", func() error { return nw.Error(msg) }, GenerateItem{Error: msg, TraceID: traceID})
		}
	}
	got.Reset()
	if err := nw.End(); err != nil || got.Len() != 0 {
		t.Fatalf("single-stream End wrote %q (err %v), want nothing", got.Bytes(), err)
	}

	// Batch lines: every shape, the empty error message included, decodes
	// as JSON carrying the stream index.
	got.Reset()
	nw.Reset(&got, 3, true, tid, 2)
	a := testAddrs(1, 8)[0]
	for _, write := range []func() error{
		func() error { return nw.AddAddr(a) },
		func() error { return nw.AddPrefix(ip6.Prefix64(a)) },
		func() error { return nw.Error("") },
		func() error { return nw.End() },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	lines := bytes.Split(bytes.TrimSuffix(got.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("batch writer emitted %d lines, want 4: %q", len(lines), got.Bytes())
	}
	for _, line := range lines {
		var item GenerateItem
		if err := json.Unmarshal(line, &item); err != nil {
			t.Fatalf("batch line %q: %v", line, err)
		}
		if item.Stream == nil || *item.Stream != 3 {
			t.Fatalf("batch line %q lacks stream 3", line)
		}
	}
}

// TestGenerateStreamByteIdentity replays fixed-seed generate requests
// through the live handler and checks the body equals the stream the old
// per-line json.Encoder implementation produced for the same draws.
func TestGenerateStreamByteIdentity(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	m := testModel(t, 3)
	if _, err := reg.Put("id", m); err != nil {
		t.Fatal(err)
	}
	for _, prefixes := range []bool{false, true} {
		w := do(t, s, "POST", "/v1/models/id/generate", GenerateRequest{
			Count: 500, Seed: seedPtr(11), Prefixes: prefixes,
		})
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d body %s", w.Code, w.Body.String())
		}

		// The old implementation: same generation options, but each line
		// through encoding/json.
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		opts := core.GenerateOptions{Count: 500, Seed: 11}
		var err error
		if prefixes {
			err = m.GeneratePrefixesStream(opts, func(p ip6.Prefix) bool {
				if e := enc.Encode(GenerateItem{Prefix: p.String()}); e != nil {
					t.Fatal(e)
				}
				return true
			})
		} else {
			err = m.GenerateStream(opts, func(a ip6.Addr) bool {
				if e := enc.Encode(GenerateItem{Addr: a.String()}); e != nil {
					t.Fatal(e)
				}
				return true
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			got, exp := w.Body.String(), want.String()
			for i := 0; i < len(got) && i < len(exp); i++ {
				if got[i] != exp[i] {
					t.Fatalf("prefixes=%v: stream diverges at byte %d: got %q, old path %q",
						prefixes, i, truncAt(got, i), truncAt(exp, i))
				}
			}
			t.Fatalf("prefixes=%v: stream length %d != old path %d", prefixes, len(got), len(exp))
		}
	}
}

// truncAt shows a short window of s around byte i for failure messages.
func truncAt(s string, i int) string {
	lo, hi := i-20, i+20
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

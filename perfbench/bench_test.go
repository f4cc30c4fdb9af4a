package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"entropyip/internal/wire"
)

// tinySizes shrinks every workload to a smoke run.
func tinySizes() sizes {
	return sizes{
		setupRepeats:    2,
		scanCount:       3000,
		trainN:          300,
		scanDatasets:    []string{"S5", "R1"},
		targetedStreams: 2,
		targetedCount:   100,
		targetedSpecs:   2,
		refreshTrainN:   3000,
		observeBatch:    512,
		observePerCycle: 2,
		replayCap:       2000,
	}
}

func runTiny(t *testing.T, o options) (*result, string) {
	t.Helper()
	o.root = t.TempDir()
	var out bytes.Buffer
	res, err := run(context.Background(), o, tinySizes(), &out)
	if err != nil {
		t.Fatalf("run %s (trace=%v): %v\n%s", o.workload, o.trace, err, out.String())
	}
	return res, out.String()
}

// TestSmokeWorkloads runs each workload at a tiny size, untraced and
// traced, and checks that every named metric prints with its unit and the
// result line carries the metrics BENCHMARK.json declares.
func TestSmokeWorkloads(t *testing.T) {
	for _, wl := range []string{"scan", "targeted", "refresh"} {
		for _, traced := range []bool{false, true} {
			res, out := runTiny(t, options{workload: wl, seed: 3, trace: traced})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			for _, nm := range namedEndToEnd[wl] {
				re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(nm[0]) + ` +\S+ ` + regexp.QuoteMeta(nm[1]) + `( |$)`)
				if !re.MatchString(out) {
					t.Errorf("%s: metric %s with unit %s not printed\n%s", wl, nm[0], nm[1], out)
				}
			}
			want := gatedEndToEnd
			if traced {
				want = perLayerNames
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result has %d metrics, want %d", wl, traced, len(res.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit == "" {
					t.Errorf("%s trace=%v: result line lacks %s", wl, traced, name)
				}
			}
			for _, rec := range []string{"record commit=", "record cpu=", "gomaxprocs=", "seed=3", "trace=" + map[bool]string{false: "false", true: "true"}[traced]} {
				if !strings.Contains(out, rec) {
					t.Errorf("%s: run record lacks %q", wl, rec)
				}
			}
		}
	}
}

// TestSameSeedSameQuality pins the deterministic scan metrics.
func TestSameSeedSameQuality(t *testing.T) {
	grab := func(out, name string) string {
		m := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(name) + ` +(\S+)`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no %s in\n%s", name, out)
		}
		return m[1]
	}
	_, a := runTiny(t, options{workload: "scan", seed: 5})
	_, b := runTiny(t, options{workload: "scan", seed: 5})
	for _, name := range []string{"hit_rate", "new_64s", "yield_frac"} {
		if grab(a, name) != grab(b, name) {
			t.Errorf("%s differs between runs of one seed: %s vs %s", name, grab(a, name), grab(b, name))
		}
	}
}

// flipTransport flips one byte inside the first address frame of every
// binary generate response.
type flipTransport struct{ next http.RoundTripper }

func (f flipTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := f.next.RoundTrip(r)
	if err != nil || resp.Header.Get("Content-Type") != wire.ContentType {
		return resp, err
	}
	resp.Body = &flipBody{ReadCloser: resp.Body, at: 1000}
	return resp, nil
}

type flipBody struct {
	io.ReadCloser
	at, off int
}

func (b *flipBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if i := b.at - b.off; i >= 0 && i < n {
		p[i] ^= 0x01
	}
	b.off += n
	return n, err
}

// TestFlippedByteFailsCheck corrupts one byte of each binary generate
// response; the output check must catch it and fail the run.
func TestFlippedByteFailsCheck(t *testing.T) {
	for _, wl := range []string{"scan", "targeted"} {
		res, out := runTiny(t, options{workload: wl, seed: 1, wrap: func(rt http.RoundTripper) http.RoundTripper {
			return flipTransport{next: rt}
		}})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a flipped byte went unnoticed: correct=%v failed=%d\n%s", wl, res.Correct, res.Failed, out)
		}
		if !strings.Contains(out, "failure ") {
			t.Errorf("%s: no failure printed\n%s", wl, out)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v, ok := tailPercentile(xs); !ok || p != 99 || v != 990 {
		t.Errorf("1000 samples: got p%d=%v ok=%v, want p99=990", p, v, ok)
	}
	if p, _, ok := tailPercentile(xs[:200]); !ok || p != 95 {
		t.Errorf("200 samples: got p%d ok=%v, want p95", p, ok)
	}
	if _, _, ok := tailPercentile(xs[:15]); ok {
		t.Errorf("15 samples: want no tail percentile")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, m.Name)
	}
	if !slices.Equal(e2e, gatedEndToEnd) {
		t.Errorf("end_to_end %v, command prints %v", e2e, gatedEndToEnd)
	}
	if !slices.Equal(layers, perLayerNames) {
		t.Errorf("per_layer %v, command prints %v", layers, perLayerNames)
	}
	units := map[string]string{}
	for _, lm := range layerMetrics {
		units[lm.metric] = lm.unitName
	}
	for _, m := range doc.PerLayer {
		if u, ok := units[m.Name]; ok && u != m.Unit {
			t.Errorf("per_layer %s: unit %s, command prints %s", m.Name, m.Unit, u)
		}
	}
}

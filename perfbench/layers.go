package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"entropyip/internal/admission"
	"entropyip/internal/core"
	"entropyip/internal/drift"
	"entropyip/internal/ingest"
	"entropyip/internal/ip6"
	"entropyip/internal/registry"
	"entropyip/internal/serve"
	"entropyip/internal/stats"
	"entropyip/internal/wire"
	"entropyip/pkg/client"
)

// perLayerNames are the per-layer metrics every traced run reports
// (BENCHMARK.json per_layer). Each is measured on the workload's own
// models and inputs; BENCHMARK.json's workload notes name the end-to-end
// metric each should move.
var perLayerNames = []string{
	"core.generate_ns_per_cand.w1", "core.generate_ns_per_cand.wN", "core.ttfc_ms", "core.build_ms.1k",
	"core.stage.entropy_ms", "core.stage.segment_ms", "core.stage.mine_ms",
	"core.stage.compile_ms", "core.stage.encode_ms", "core.stage.learn_ms",
	"bayes.draw_ns_per_cand", "bayes.condsampler_compile_us", "bayes.cond_draw_ns_per_cand",
	"mining.decode_ns_per_cand", "mining.encode_ns_per_addr",
	"ip6.dedup_ns_per_cand", "ip6.format_ns_per_cand", "ip6.parse_ns_per_addr",
	"wire.encode_ns_per_cand", "wire.decode_ns_per_cand",
	"serve.generate_ns_per_cand.binary", "serve.generate_ns_per_cand.ndjson",
	"serve.targeted_req_us", "serve.browse_us", "serve.observe_ns_per_addr", "serve.put_train_ms",
	"client.decode_ns_per_cand.binary", "client.decode_ns_per_cand.ndjson",
	"registry.get_us", "registry.put_ms", "admission.gate_ns",
	"ingest.add_ns_per_addr", "drift.score_ms", "drift.evals",
	"metrics.registry_hits", "metrics.registry_misses", "metrics.registry_hit_ratio",
	"metrics.admission_admitted", "metrics.admission_shed", "metrics.gc_pause_s", "metrics.http_errors",
	"ledger.unexplained_frac", "trace.overhead_frac",
}

// layerMetrics maps span names to per-layer metrics: ns, µs or ms per
// unit of work.
var layerMetrics = []struct {
	metric, span string
	unit         time.Duration
	unitName     string
}{
	{"core.generate_ns_per_cand.w1", "core.generate.w1", time.Nanosecond, "ns"},
	{"core.generate_ns_per_cand.wN", "core.generate.wN", time.Nanosecond, "ns"},
	{"core.build_ms.1k", "core.build.1k", time.Millisecond, "ms"},
	{"core.stage.entropy_ms", "core.stage.entropy", time.Millisecond, "ms"},
	{"core.stage.segment_ms", "core.stage.segment", time.Millisecond, "ms"},
	{"core.stage.mine_ms", "core.stage.mine", time.Millisecond, "ms"},
	{"core.stage.compile_ms", "core.stage.compile", time.Millisecond, "ms"},
	{"core.stage.encode_ms", "core.stage.encode", time.Millisecond, "ms"},
	{"core.stage.learn_ms", "core.stage.learn", time.Millisecond, "ms"},
	{"bayes.draw_ns_per_cand", "bayes.draw", time.Nanosecond, "ns"},
	{"bayes.condsampler_compile_us", "bayes.condsampler_compile", time.Microsecond, "us"},
	{"bayes.cond_draw_ns_per_cand", "bayes.cond_draw", time.Nanosecond, "ns"},
	{"mining.decode_ns_per_cand", "mining.decode", time.Nanosecond, "ns"},
	{"mining.encode_ns_per_addr", "mining.encode", time.Nanosecond, "ns"},
	{"ip6.dedup_ns_per_cand", "ip6.dedup", time.Nanosecond, "ns"},
	{"ip6.format_ns_per_cand", "ip6.format", time.Nanosecond, "ns"},
	{"ip6.parse_ns_per_addr", "ip6.parse", time.Nanosecond, "ns"},
	{"wire.encode_ns_per_cand", "wire.encode", time.Nanosecond, "ns"},
	{"wire.decode_ns_per_cand", "wire.decode", time.Nanosecond, "ns"},
	{"serve.generate_ns_per_cand.binary", "serve.generate.binary", time.Nanosecond, "ns"},
	{"serve.generate_ns_per_cand.ndjson", "serve.generate.ndjson", time.Nanosecond, "ns"},
	{"serve.targeted_req_us", "serve.targeted_req", time.Microsecond, "us"},
	{"serve.browse_us", "serve.browse", time.Microsecond, "us"},
	{"serve.observe_ns_per_addr", "serve.observe", time.Nanosecond, "ns"},
	{"serve.put_train_ms", "serve.put_train", time.Millisecond, "ms"},
	{"client.decode_ns_per_cand.binary", "client.decode.binary", time.Nanosecond, "ns"},
	{"client.decode_ns_per_cand.ndjson", "client.decode.ndjson", time.Nanosecond, "ns"},
	{"registry.get_us", "registry.get", time.Microsecond, "us"},
	{"registry.put_ms", "registry.put", time.Millisecond, "ms"},
	{"admission.gate_ns", "admission.gate", time.Nanosecond, "ns"},
	{"ingest.add_ns_per_addr", "ingest.add", time.Nanosecond, "ns"},
	{"drift.score_ms", "drift.score", time.Millisecond, "ms"},
}

// genSpec is one generate stream a workload requested.
type genSpec struct {
	seed  int64
	count int
	ev    core.Evidence
}

// layerData is one model of a workload with the inputs the workload used
// on it.
type layerData struct {
	model   string
	version int
	m       *core.Model
	// gens are the workload's streams; evs are evidence sets for the
	// conditional-sampler probes.
	gens  []genSpec
	evs   []core.Evidence
	train []ip6.Addr
	obs   [][]ip6.Addr
	// tenant is the X-Tenant of in-process requests ("" for none).
	tenant string
	// stagesFromPath is set when the workload's replay already timed the
	// build stages, so the 1k build probe does not add its own.
	stagesFromPath bool
}

// genSubstreams is core's fixed substream count: attempt k of a run
// draws from substream k mod 64, seeded stats.Split(seed, k mod 64). The
// replay is checked against GenerateStream, so a change there shows as a
// mismatch, not as a silently different measurement.
const genSubstreams = 64

// replayGenerate reproduces Model.GenerateStream's candidate sequence by
// calling each layer's public function, timing each call: the BN draw,
// the segment decode and the dedup set.
func replayGenerate(tr *tracer, parent int, m *core.Model, g genSpec) ([]ip6.Addr, error) {
	enc := m.Encoder()
	drawName := "bayes.draw"
	var sample func(*rand.Rand, []int) []int
	if len(g.ev) == 0 {
		sample = m.Net.NewSampler().SampleInto
	} else {
		codes, err := evidenceCodes(m, g.ev)
		if err != nil {
			return nil, err
		}
		ev := map[int]int{}
		for i, c := range codes {
			if c >= 0 {
				ev[i] = c
			}
		}
		t0 := tr.now()
		cs, err := m.Net.NewCondSampler(ev)
		if err != nil {
			return nil, err
		}
		tr.end(tr.span(parent, "bayes.condsampler_compile"), t0, 1)
		sample = cs.SampleInto
		drawName = "bayes.cond_draw"
	}
	gen := tr.span(parent, "core.generate")
	draw, decode, dedup := tr.span(gen, drawName), tr.span(gen, "mining.decode"), tr.span(gen, "ip6.dedup")

	start := tr.now()
	rngs := make([]*rand.Rand, genSubstreams)
	bufs := make([][]int, genSubstreams)
	for i := range rngs {
		rngs[i] = stats.Split(g.seed, int64(i))
		bufs[i] = make([]int, m.Net.NumVars())
	}
	seen := ip6.NewSet(g.count)
	out := make([]ip6.Addr, 0, g.count)
	// Every sampleEvery-th attempt is timed and the sums are scaled up:
	// reading the clock around every call would cost as much as the
	// calls themselves.
	var sums [3]time.Duration
	attempts, timed := 0, 0
	for ; len(out) < g.count && attempts < g.count*20; attempts++ {
		s := attempts % genSubstreams
		clock := tr.on && attempts%sampleEvery == 0
		var t0, t1, t2 time.Time
		if clock {
			t0 = time.Now()
		}
		vec := sample(rngs[s], bufs[s])
		if clock {
			t1 = time.Now()
		}
		a, err := enc.Decode(vec, rngs[s])
		if err != nil {
			return nil, err
		}
		if clock {
			t2 = time.Now()
		}
		fresh := seen.Add(a)
		if clock {
			sums[0] += t1.Sub(t0) - tr.clockCost
			sums[1] += t2.Sub(t1) - tr.clockCost
			sums[2] += time.Since(t2) - tr.clockCost
			timed++
		}
		if fresh {
			out = append(out, a)
		}
	}
	if timed > 0 {
		scale := float64(attempts) / float64(timed)
		for i, id := range []int{draw, decode, dedup} {
			tr.addN(id, time.Duration(float64(sums[i])*scale), attempts)
		}
	}
	tr.end(gen, start, len(out))
	return out, nil
}

// sampleEvery is how often the generation replay times an attempt.
const sampleEvery = 16

// replayWireEncode frames streams the way the binary generate path does.
func replayWireEncode(tr *tracer, parent int, streams [][]ip6.Addr) []byte {
	var body bytes.Buffer
	h := wire.Header{Streams: len(streams)}
	if len(streams) > 1 {
		h.Flags = wire.FlagBatch
	}
	body.Write(wire.AppendHeader(nil, h))
	id := tr.span(parent, "wire.encode")
	for i, cands := range streams {
		t0 := tr.now()
		// The sink is a bytes.Buffer, whose writes cannot fail.
		w := wire.NewWriter(&body, i, false, 0)
		for _, a := range cands {
			_ = w.AddAddr(a)
		}
		_ = w.End()
		tr.end(id, t0, len(cands))
	}
	return body.Bytes()
}

// replayFormat writes the NDJSON generate body with ip6's append-style
// formatting.
func replayFormat(tr *tracer, parent int, cands []ip6.Addr) []byte {
	body := make([]byte, 0, len(cands)*48)
	t0 := tr.now()
	for _, a := range cands {
		body = append(body, `{"addr":"`...)
		body = a.AppendString(body)
		body = append(body, '"', '}', '\n')
	}
	tr.end(tr.span(parent, "ip6.format"), t0, len(cands))
	return body
}

// replayTransport answers every request with one recorded response body.
type replayTransport struct {
	body        []byte
	contentType string
}

func (t replayTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h := http.Header{}
	h.Set("Content-Type", t.contentType)
	return &http.Response{
		StatusCode: http.StatusOK, Header: h, Request: r,
		Body: io.NopCloser(bytes.NewReader(t.body)),
	}, nil
}

// replayClientDecode runs client.Generate over a recorded response body.
func replayClientDecode(tr *tracer, parent int, body []byte, binary bool) (int64, error) {
	ct, name := "application/x-ndjson", "client.decode.ndjson"
	if binary {
		ct, name = wire.ContentType, "client.decode.binary"
	}
	cl := client.New("http://replay", &http.Client{Transport: replayTransport{body, ct}})
	var failed string
	t0 := tr.now()
	res, err := cl.Generate(context.Background(), "replay", client.GenerateOptions{Count: 1, Binary: binary}, func(ev client.Event) bool {
		if ev.Kind == client.KindStreamError {
			failed = ev.Err
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if failed != "" {
		return 0, fmt.Errorf("in-band error %q", failed)
	}
	tr.end(tr.span(parent, name), t0, int(res.Candidates))
	return res.Candidates, nil
}

// replayWireDecode reads a recorded binary body with wire.Reader.
func replayWireDecode(tr *tracer, parent int, body []byte) (int, error) {
	t0 := tr.now()
	rd, err := wire.NewReader(bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		f, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		if f.Kind == wire.KindAddrs {
			n += f.Count
		}
	}
	tr.end(tr.span(parent, "wire.decode"), t0, n)
	return n, nil
}

// sinkWriter is an http.ResponseWriter that keeps the body in memory, for
// calling Server.ServeHTTP with no socket.
type sinkWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}
func (w *sinkWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}
func (w *sinkWriter) Flush() {}

// serveInProcess calls the daemon's handler directly and times it.
func serveInProcess(tr *tracer, id int, srv *serve.Server, method, path, tenant string, hdr http.Header, body []byte, n int) error {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header[k] = v
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	w := &sinkWriter{h: http.Header{}}
	t0 := tr.now()
	srv.ServeHTTP(w, req)
	tr.end(id, t0, n)
	if w.status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, w.status, bytes.TrimSpace(w.body.Bytes()))
	}
	return nil
}

// capped limits a stream to the replay's candidate budget.
func capped(g genSpec, limit int) genSpec {
	if g.count > limit {
		g.count = limit
	}
	return g
}

// probeLayers times every layer on one model of the workload, outside the
// path the ledger sums (root "probe"). Path replays already recorded some
// of the same span names; per-layer metrics aggregate over both.
func probeLayers(ctx context.Context, b *bench, tr *tracer, d *layerData) error {
	root := tr.span(-1, "probe")
	limit := b.sz.replayCap / 4
	srv := b.srv.srv

	// core: in-process generation at one and all workers, first yield.
	for _, g := range d.gens {
		g = capped(g, limit)
		for _, w := range []struct {
			name    string
			workers int
		}{{"core.generate.w1", 1}, {"core.generate.wN", runtime.GOMAXPROCS(0)}} {
			var first time.Time
			n := 0
			t0 := time.Now()
			err := d.m.GenerateStream(core.GenerateOptions{Count: g.count, Seed: g.seed, Evidence: g.ev, Workers: w.workers}, func(ip6.Addr) bool {
				if n == 0 {
					first = time.Now()
				}
				n++
				return true
			})
			if err != nil {
				return err
			}
			tr.addN(tr.span(root, w.name), time.Since(t0), n)
			if w.workers > 1 {
				tr.addN(tr.span(root, "core.ttfc"), first.Sub(t0), 1)
			}
		}
	}

	// core: the 1k build, with its stages unless the path timed them.
	trainN := len(d.train)
	if trainN > 1000 {
		trainN = 1000
	}
	build := tr.span(root, "core.build.1k")
	opts := core.Options{}
	if !d.stagesFromPath {
		opts.OnStage = func(stage string, dur time.Duration) {
			tr.addN(tr.span(build, "core.stage."+stage), dur, 1)
		}
	}
	t0 := time.Now()
	if _, err := core.Build(d.train[:trainN], opts); err != nil {
		return err
	}
	tr.addN(build, time.Since(t0), 1)

	// bayes, mining, ip6, wire, client: replay the workload's streams and
	// conditional streams over its evidence sets, then encode and decode.
	var streams [][]ip6.Addr
	gens := append([]genSpec(nil), d.gens...)
	for i, ev := range d.evs {
		gens = append(gens, genSpec{seed: int64(i + 1), count: 1000, ev: ev})
	}
	hasUncond := false
	for _, g := range gens {
		hasUncond = hasUncond || len(g.ev) == 0
	}
	if !hasUncond {
		gens = append(gens, genSpec{seed: 1, count: limit})
	}
	for _, g := range gens {
		cands, err := replayGenerate(tr, root, d.m, capped(g, limit))
		if err != nil {
			return err
		}
		streams = append(streams, cands)
	}
	for _, cands := range streams {
		body := replayWireEncode(tr, root, [][]ip6.Addr{cands})
		if _, err := replayWireDecode(tr, root, body); err != nil {
			return err
		}
		if _, err := replayClientDecode(tr, root, body, true); err != nil {
			return err
		}
		if _, err := replayClientDecode(tr, root, replayFormat(tr, root, cands), false); err != nil {
			return err
		}
	}

	// mining encode, ip6 parse: the observations and the training text.
	enc := d.m.Encoder().Compiled()
	vec := make([]int, enc.NumSegments())
	encID := tr.span(root, "mining.encode")
	for _, batch := range append(append([][]ip6.Addr(nil), d.obs...), d.train) {
		t0 := time.Now()
		for _, a := range batch {
			enc.EncodeInto(vec, a)
		}
		tr.addN(encID, time.Since(t0), len(batch))
	}
	text := make([]string, trainN)
	for i, a := range d.train[:trainN] {
		text[i] = string(a.AppendString(nil))
	}
	if err := timeParse(tr, root, text); err != nil {
		return err
	}

	// serve: the handlers without a socket.
	for _, g := range d.gens {
		g = capped(g, limit)
		req, err := json.Marshal(serve.GenerateRequest{Version: d.version, Count: g.count, Seed: &g.seed, Evidence: g.ev})
		if err != nil {
			return err
		}
		path := "/v1/models/" + d.model + "/generate"
		bin := http.Header{"Accept": {wire.ContentType}}
		if err := serveInProcess(tr, tr.span(root, "serve.generate.binary"), srv, "POST", path, d.tenant, bin, req, g.count); err != nil {
			return err
		}
		if err := serveInProcess(tr, tr.span(root, "serve.generate.ndjson"), srv, "POST", path, d.tenant, nil, req, g.count); err != nil {
			return err
		}
	}
	var specs []serve.GenerateStreamSpec
	for i, ev := range d.evs {
		seed := int64(i + 1)
		specs = append(specs, serve.GenerateStreamSpec{Count: 1000, Seed: &seed, Evidence: ev})
	}
	if len(specs) > 0 {
		req, err := json.Marshal(serve.GenerateRequest{Version: d.version, Streams: specs})
		if err != nil {
			return err
		}
		if err := serveInProcess(tr, tr.span(root, "serve.targeted_req"), srv, "POST", "/v1/models/"+d.model+"/generate", d.tenant,
			http.Header{"Accept": {wire.ContentType}}, req, 1); err != nil {
			return err
		}
	}
	for _, ev := range d.evs {
		req, err := json.Marshal(serve.BrowseRequest{Version: d.version, Evidence: ev})
		if err != nil {
			return err
		}
		if err := serveInProcess(tr, tr.span(root, "serve.browse"), srv, "POST", "/v1/models/"+d.model+"/browse", d.tenant, nil, req, 1); err != nil {
			return err
		}
	}
	for _, batch := range d.obs {
		body := replayWireEncode(offTracer(), -1, [][]ip6.Addr{batch})
		if err := serveInProcess(tr, tr.span(root, "serve.observe"), srv, "POST", "/v1/models/"+d.model+"/observe", d.tenant,
			http.Header{"Content-Type": {wire.ContentType}}, body, len(batch)); err != nil {
			return err
		}
	}
	body, err := putTrainBody(d.train)
	if err != nil {
		return err
	}
	if err := serveInProcess(tr, tr.span(root, "serve.put_train"), srv, "PUT", "/v1/models/"+d.model+"-probe", d.tenant,
		http.Header{"Content-Type": {"application/json"}}, body, 1); err != nil {
		return err
	}

	// registry, admission, ingest, drift.
	for i := 0; i < 1000; i++ {
		if err := timeRegistryGet(tr, root, b.srv.reg, d.model, d.version); err != nil {
			return err
		}
	}
	scratch, err := registry.Open(filepath.Join(b.dir, "probe-registry"), 0)
	if err != nil {
		return err
	}
	if err := timeRegistryPut(tr, root, scratch, d.model, d.m); err != nil {
		return err
	}
	ctrl := admission.New(admissionConfig())
	for i := 0; i < 1000; i++ {
		if err := timeAdmission(ctx, tr, root, ctrl, "probe", 8000); err != nil {
			return err
		}
	}
	buf := ingest.New(ingest.Config{})
	for _, batch := range d.obs {
		if err := timeObserve(tr, root, buf, d.m, batch); err != nil {
			return err
		}
	}
	return nil
}

func timeParse(tr *tracer, parent int, text []string) error {
	t0 := tr.now()
	for _, s := range text {
		if _, err := ip6.ParseAddr(s); err != nil {
			return err
		}
	}
	tr.end(tr.span(parent, "ip6.parse"), t0, len(text))
	return nil
}

func timeRegistryGet(tr *tracer, parent int, reg *registry.Registry, model string, version int) error {
	t0 := tr.now()
	_, _, err := reg.GetVersion(model, version)
	tr.end(tr.span(parent, "registry.get"), t0, 1)
	return err
}

func timeRegistryPut(tr *tracer, parent int, reg *registry.Registry, model string, m *core.Model) error {
	t0 := tr.now()
	_, err := reg.Put(model, m)
	tr.end(tr.span(parent, "registry.put"), t0, 1)
	return err
}

// timeAdmission runs the generate gates in the order the handler does:
// charge the budget, take a slot, release it.
func timeAdmission(ctx context.Context, tr *tracer, parent int, ctrl *admission.Controller, tenant string, candidates int) error {
	t0 := tr.now()
	if d := ctrl.ChargeGenerate(tenant, candidates); !d.OK {
		return fmt.Errorf("admission charge shed: %s", d.Reason)
	}
	release, d := ctrl.AcquireSlot(ctx, tenant)
	if !d.OK {
		return fmt.Errorf("admission slot shed: %s", d.Reason)
	}
	release()
	tr.end(tr.span(parent, "admission.gate"), t0, 1)
	return nil
}

// timeObserve ingests one batch and scores the window, as one observe
// request does at the default evaluation cadence.
func timeObserve(tr *tracer, parent int, buf *ingest.Buffer, m *core.Model, batch []ip6.Addr) error {
	t0 := tr.now()
	if n := buf.AddBatch(batch); n != len(batch) {
		return fmt.Errorf("ingest accepted %d of %d", n, len(batch))
	}
	t1 := tr.end(tr.span(parent, "ingest.add"), t0, len(batch))
	window := buf.Snapshot()
	t2 := tr.end(tr.span(parent, "ingest.snapshot"), t1, 1)
	_, err := drift.Score(m, window)
	tr.end(tr.span(parent, "drift.score"), t2, 1)
	return err
}

// derivedEvidence fixes the top two segments to the codes of seed-chosen
// training addresses, for workloads that send no evidence themselves.
func derivedEvidence(m *core.Model, train []ip6.Addr, seed int64, n int) ([]core.Evidence, error) {
	rng := stats.Split(seed, 400)
	out := make([]core.Evidence, n)
	for i := range out {
		ev, err := topEvidence(m, train[rng.Intn(len(train))], 2)
		if err != nil {
			return nil, err
		}
		out[i] = ev
	}
	return out, nil
}

// setLayerMetrics turns the spans into the per-layer metrics and sets the
// ledger: the share of the untraced end-to-end time per unit of work that
// the path's layer self times do not explain.
func (b *bench) setLayerMetrics(tr *tracer, explainedPerUnit, e2ePerUnit, untracedWall, tracedWall time.Duration) {
	tr.selfTimes()
	for _, lm := range layerMetrics {
		v, ok := tr.perUnit(lm.span, lm.unit)
		if !ok {
			b.mismatch("traced run recorded no %s span", lm.span)
		}
		b.set(lm.metric, v, lm.unitName)
	}
	ttfc, _ := tr.perUnit("core.ttfc", time.Millisecond)
	b.set("core.ttfc_ms", ttfc, "ms")
	b.setNote("ledger.unexplained_frac", 1-explainedPerUnit.Seconds()/e2ePerUnit.Seconds(), "fraction",
		fmt.Sprintf("layers explain %v of %v per unit", explainedPerUnit, e2ePerUnit))
	b.set("trace.overhead_frac", tracedWall.Seconds()/untracedWall.Seconds()-1, "fraction")
}

// replayTwice runs a path replay with the tracer off, on, and off again,
// and returns the untraced wall time (the mean of the two off runs, which
// cancels most warm-up) and the traced one.
func replayTwice(tr *tracer, replay func(*tracer) error) (untraced, traced time.Duration, err error) {
	timed := func(t *tracer) (time.Duration, error) {
		t0 := time.Now()
		err := replay(t)
		return time.Since(t0), err
	}
	off1, err := timed(offTracer())
	if err != nil {
		return 0, 0, err
	}
	if traced, err = timed(tr); err != nil {
		return 0, 0, err
	}
	off2, err := timed(offTracer())
	if err != nil {
		return 0, 0, err
	}
	return (off1 + off2) / 2, traced, nil
}

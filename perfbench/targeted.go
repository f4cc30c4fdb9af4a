package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"entropyip/internal/admission"
	"entropyip/internal/core"
	"entropyip/internal/ip6"
	"entropyip/internal/serve"
	"entropyip/internal/stats"
	"entropyip/internal/synth"
	"entropyip/pkg/client"
)

// targetedWorkload is the conditional-probability browser and
// evidence-constrained generation (Figs. 7/10): two tenants send many
// short requests, so per-request cost dominates — admission, registry
// lookup, JSON decode, one conditional sampler per evidence set and batch
// stream gating.
type targetedWorkload struct {
	model   string
	version int
	m       *core.Model
	train   []ip6.Addr
	specs   []targetedSpec

	mu   sync.Mutex
	reqs []targetedReq
	wall time.Duration
}

// targetedSpec is one request shape: a binary batch of streams whose
// evidence each fixes the top 2-3 segments to a training address's codes.
type targetedSpec struct {
	streams []client.StreamSpec
	// refs are the in-process GenerateStream outputs of each stream.
	refs [][]ip6.Addr
}

type targetedReq struct {
	browse bool
	dur    time.Duration
	ttfc   time.Duration
	failed bool
}

// Admission is on with limits above the offered load, so every gate is in
// the path but none sheds.
func (w *targetedWorkload) serverOptions() serve.Options {
	return serve.Options{Admission: admissionConfig()}
}

func admissionConfig() admission.Config {
	return admission.Config{RequestRate: 1e6, GenBudget: 1e10, TenantSlots: 8}
}

func (w *targetedWorkload) prepare(ctx context.Context, b *bench) error {
	pop, err := synth.Generate("AS", 0, b.o.seed)
	if err != nil {
		return err
	}
	w.model = "targeted-as"
	w.train = stats.SampleN(stats.Split(b.o.seed, 200), pop, b.sz.trainN)
	body, err := putTrainBody(w.train)
	if err != nil {
		return err
	}
	w.version, err = putTrain(ctx, b.srv.hc, b.srv.url, w.model, body)
	b.op(err)
	if err != nil {
		return err
	}
	if w.m, _, err = b.srv.reg.GetVersion(w.model, w.version); err != nil {
		return err
	}
	rng := stats.Split(b.o.seed, 201)
	w.specs = make([]targetedSpec, b.sz.targetedSpecs)
	for i := range w.specs {
		sp := &w.specs[i]
		for j := 0; j < b.sz.targetedStreams; j++ {
			a := w.train[rng.Intn(len(w.train))]
			ev, err := topEvidence(w.m, a, 2+rng.Intn(2))
			if err != nil {
				return err
			}
			seed := rng.Int63()
			ref, err := reference(w.m, b.sz.targetedCount, seed, ev)
			if err != nil {
				return err
			}
			sp.streams = append(sp.streams, client.StreamSpec{Count: b.sz.targetedCount, Seed: &seed, Evidence: ev})
			sp.refs = append(sp.refs, ref)
		}
	}
	return nil
}

func (w *targetedWorkload) measure(ctx context.Context, b *bench, deadline time.Time) error {
	w.reqs = w.reqs[:0]
	tenants := []string{"tenant-a", "tenant-b"}
	var wg sync.WaitGroup
	start := time.Now()
	for c, tenant := range tenants {
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			for i := 0; ; i++ {
				sp := &w.specs[(i*len(tenants)+c)%len(w.specs)]
				var r targetedReq
				if i%4 == 3 {
					r = w.browse(ctx, b, sp)
				} else {
					r = w.generate(ctx, b, cl, sp)
				}
				w.mu.Lock()
				w.reqs = append(w.reqs, r)
				w.mu.Unlock()
				if time.Now().After(deadline) {
					return
				}
			}
		}(c, b.srv.client(tenant))
	}
	wg.Wait()
	w.wall = time.Since(start)
	return nil
}

// generate sends one batch request and compares every stream, candidate
// by candidate, with the in-process reference.
func (w *targetedWorkload) generate(ctx context.Context, b *bench, cl *client.Client, sp *targetedSpec) targetedReq {
	var r targetedReq
	var first time.Time
	pos := make([]int, len(sp.refs))
	ended := 0
	var badErr error
	start := time.Now()
	_, err := cl.Generate(ctx, w.model, client.GenerateOptions{
		Streams: sp.streams, Version: w.version, Binary: true,
	}, func(ev client.Event) bool {
		if ev.Stream < 0 || ev.Stream >= len(sp.refs) {
			badErr = fmt.Errorf("event for unknown stream %d", ev.Stream)
			return false
		}
		switch ev.Kind {
		case client.KindCandidate:
			if first.IsZero() {
				first = time.Now()
			}
			ref, k := sp.refs[ev.Stream], pos[ev.Stream]
			if k >= len(ref) || ref[k] != ev.Addr {
				badErr = fmt.Errorf("stream %d candidate %d differs from in-process GenerateStream", ev.Stream, k)
				return false
			}
			pos[ev.Stream]++
		case client.KindStreamEnd:
			ended++
		case client.KindStreamError:
			badErr = fmt.Errorf("stream %d: in-band error %q", ev.Stream, ev.Err)
			return false
		}
		return true
	})
	r.dur = time.Since(start)
	r.ttfc = first.Sub(start)
	if err == nil {
		err = badErr
	}
	if err == nil {
		for i, ref := range sp.refs {
			if pos[i] != len(ref) {
				err = fmt.Errorf("stream %d delivered %d candidates, in-process GenerateStream %d", i, pos[i], len(ref))
				break
			}
		}
	}
	if err == nil && ended != len(sp.refs) {
		err = fmt.Errorf("%d of %d streams ended", ended, len(sp.refs))
	}
	if err != nil {
		err = fmt.Errorf("targeted generate: %w", err)
	}
	b.op(err)
	r.failed = err != nil
	return r
}

// browse queries the posterior under the spec's first evidence set and
// checks that every constrained segment is pinned to its code.
func (w *targetedWorkload) browse(ctx context.Context, b *bench, sp *targetedSpec) targetedReq {
	ev := sp.streams[0].Evidence
	start := time.Now()
	resp, err := browse(ctx, b.srv.hc, b.srv.url, w.model, w.version, ev)
	r := targetedReq{browse: true, dur: time.Since(start)}
	if err == nil {
		err = checkBrowse(resp, ev)
	}
	b.op(err)
	r.failed = err != nil
	return r
}

func checkBrowse(resp *serve.BrowseResponse, ev core.Evidence) error {
	for _, d := range resp.Distributions {
		code, ok := ev[d.Label]
		if !ok {
			continue
		}
		for _, e := range d.Entries {
			if (e.Code == code) != (e.Prob > 0.999999) {
				return fmt.Errorf("browse: segment %s code %s has posterior %v under evidence %s=%s", d.Label, e.Code, e.Prob, d.Label, code)
			}
		}
	}
	return nil
}

func (w *targetedWorkload) verify(ctx context.Context, b *bench) error {
	enc := w.m.Encoder().Compiled()
	requested, delivered := 0, 0
	for si, sp := range w.specs {
		for j, ref := range sp.refs {
			requested += sp.streams[j].Count
			delivered += len(ref)
			if a, dup := firstDuplicate(ref); dup {
				b.mismatch("targeted spec %d stream %d: duplicate candidate %v", si, j, a)
			}
			want, err := evidenceCodes(w.m, sp.streams[j].Evidence)
			if err != nil {
				return err
			}
			if a, ok := checkEvidence(enc, want, ref); !ok {
				b.mismatch("targeted spec %d stream %d: candidate %v does not re-encode to its evidence", si, j, a)
			}
		}
	}
	var all, ttfc []float64
	done := 0
	for _, r := range w.reqs {
		if r.failed {
			continue
		}
		done++
		all = append(all, r.dur.Seconds()*1000)
		if !r.browse {
			ttfc = append(ttfc, r.ttfc.Seconds()*1000)
		}
	}
	b.setNote("ttfc_ms_p50", median(ttfc), "ms", fmt.Sprintf("n=%d", len(ttfc)))
	b.setNote("req_ms_p50", median(all), "ms", fmt.Sprintf("n=%d", len(all)))
	if p, v, ok := tailPercentile(all); ok {
		b.setNote("req_ms_p99", v, "ms", fmt.Sprintf("p%d, n=%d", p, len(all)))
	} else {
		b.setNote("req_ms_p99", maxOf(all), "ms", fmt.Sprintf("max: too few samples for a tail percentile, n=%d", len(all)))
	}
	rate := float64(done) / w.wall.Seconds()
	b.set("req_per_s", rate, "req/s")
	b.set("yield_frac", float64(delivered)/float64(requested), "fraction")
	b.set("throughput_per_s", rate, "1/s")
	b.set("latency_ms_p50", median(all), "ms")
	return nil
}

// layers replays each request shape through the layers a request crosses
// — admission gates, registry lookup, one conditional sampler per stream,
// draw, decode, dedup, batch wire encode and client decode — and each
// browse through the handler, then probes the rest.
func (w *targetedWorkload) layers(ctx context.Context, b *bench, tr *tracer) error {
	ctrl := admission.New(admissionConfig())
	replay := func(t *tracer) error {
		gen, br := t.span(-1, "path.generate"), t.span(-1, "path.browse")
		for _, sp := range w.specs {
			total := 0
			for _, st := range sp.streams {
				total += st.Count
			}
			if err := timeAdmission(ctx, t, gen, ctrl, "tenant-a", total); err != nil {
				return err
			}
			if err := timeRegistryGet(t, gen, b.srv.reg, w.model, w.version); err != nil {
				return err
			}
			streams := make([][]ip6.Addr, len(sp.streams))
			for j, st := range sp.streams {
				cands, err := replayGenerate(t, gen, w.m, genSpec{seed: *st.Seed, count: st.Count, ev: st.Evidence})
				if err != nil {
					return err
				}
				if hashAddrs(cands) != hashAddrs(sp.refs[j]) {
					return fmt.Errorf("the layer replay of a targeted stream differs from GenerateStream")
				}
				streams[j] = cands
			}
			if _, err := replayClientDecode(t, gen, replayWireEncode(t, gen, streams), true); err != nil {
				return err
			}
			req, err := json.Marshal(serve.BrowseRequest{Version: w.version, Evidence: sp.streams[0].Evidence})
			if err != nil {
				return err
			}
			if err := serveInProcess(t, t.span(br, "serve.browse"), b.srv.srv, "POST", "/v1/models/"+w.model+"/browse", "tenant-a", nil, req, 1); err != nil {
				return err
			}
		}
		return nil
	}
	untraced, traced, err := replayTwice(tr, replay)
	if err != nil {
		return err
	}

	sp := w.specs[0]
	d := &layerData{model: w.model, version: w.version, m: w.m, train: w.train, tenant: "tenant-a"}
	for j, st := range sp.streams {
		d.gens = append(d.gens, genSpec{seed: *st.Seed, count: st.Count, ev: st.Evidence})
		d.evs = append(d.evs, st.Evidence)
		d.obs = append(d.obs, sp.refs[j])
	}
	if err := probeLayers(ctx, b, tr, d); err != nil {
		return err
	}

	var e2e time.Duration
	nGen, nAll := 0, 0
	for _, r := range w.reqs {
		e2e += r.dur
		nAll++
		if !r.browse {
			nGen++
		}
	}
	specs := time.Duration(len(w.specs))
	genSelf := tr.layerSelf(tr.span(-1, "path.generate")) / specs
	browseSelf := tr.layerSelf(tr.span(-1, "path.browse")) / specs
	explained := (genSelf*time.Duration(nGen) + browseSelf*time.Duration(nAll-nGen)) / time.Duration(nAll)
	b.setLayerMetrics(tr, explained, e2e/time.Duration(nAll), untraced, traced)
	return nil
}

package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"entropyip/internal/ip6"
	"entropyip/internal/scan"
	"entropyip/internal/serve"
	"entropyip/internal/stats"
	"entropyip/internal/synth"
	"entropyip/pkg/client"
)

// scanWorkload is the paper's §5.5 experiment: per dataset, train on a
// seeded 1K sample, then one client pulls the candidates in the binary
// encoding and again in NDJSON. Generation dominates: BN draw, decode,
// dedup, encode, socket and client decode.
type scanWorkload struct {
	sets  []*scanSet
	pulls []scanPull
}

type scanSet struct {
	dataset  string
	model    string
	version  int
	seed     int64
	train    []ip6.Addr
	universe *scan.Universe
	// checked is set once the first binary pull's hits are counted.
	checked   bool
	delivered int
	hits      int
	new64s    int
}

type scanPull struct {
	set    int
	binary bool
	n      int
	dur    time.Duration
	ttfc   time.Duration
	hash   [32]byte
	failed bool
}

// The daemon runs with its defaults: admission off, generate workers =
// GOMAXPROCS.
func (w *scanWorkload) serverOptions() serve.Options { return serve.Options{} }

func (w *scanWorkload) prepare(ctx context.Context, b *bench) error {
	w.sets = w.sets[:0]
	for i, name := range b.sz.scanDatasets {
		pop, err := synth.Generate(name, 0, b.o.seed)
		if err != nil {
			return err
		}
		s := &scanSet{
			dataset:  name,
			model:    "scan-" + strings.ToLower(name),
			seed:     b.o.seed*1000 + int64(i),
			train:    stats.SampleN(stats.Split(b.o.seed, int64(100+i)), pop, b.sz.trainN),
			universe: scan.NewUniverse(pop, scan.UniverseConfig{Seed: b.o.seed}),
		}
		body, err := putTrainBody(s.train)
		if err != nil {
			return err
		}
		s.version, err = putTrain(ctx, b.srv.hc, b.srv.url, s.model, body)
		b.op(err)
		if err != nil {
			return err
		}
		w.sets = append(w.sets, s)
	}
	return nil
}

// measure cycles through the datasets, pulling each in both encodings,
// until the deadline has passed and every dataset was pulled at least
// once. verify weighs every dataset equally, so a partial last round does
// not shift the mix.
func (w *scanWorkload) measure(ctx context.Context, b *bench, deadline time.Time) error {
	cl := b.srv.client("")
	buf := make([]ip6.Addr, 0, b.sz.scanCount)
	w.pulls = w.pulls[:0]
	for k := 0; k < len(w.sets) || time.Now().Before(deadline); k++ {
		i := k % len(w.sets)
		for _, binary := range []bool{true, false} {
			p, cands := w.pull(ctx, b, cl, buf, i, binary)
			buf = cands[:0]
			if !p.failed && binary && !w.sets[i].checked {
				w.countHits(b, w.sets[i], cands)
			}
			w.pulls = append(w.pulls, p)
		}
	}
	return nil
}

// pull fetches one dataset's candidates and times it; the hash and checks
// run after the clock stops.
func (w *scanWorkload) pull(ctx context.Context, b *bench, cl *client.Client, buf []ip6.Addr, set int, binary bool) (scanPull, []ip6.Addr) {
	s := w.sets[set]
	p := scanPull{set: set, binary: binary}
	var first time.Time
	var streamErr string
	start := time.Now()
	res, err := cl.Generate(ctx, s.model, client.GenerateOptions{
		Count: b.sz.scanCount, Seed: &s.seed, Version: s.version, Binary: binary,
	}, func(ev client.Event) bool {
		switch ev.Kind {
		case client.KindCandidate:
			if len(buf) == 0 {
				first = time.Now()
			}
			buf = append(buf, ev.Addr)
		case client.KindStreamError:
			streamErr = ev.Err
		}
		return true
	})
	p.dur = time.Since(start)
	p.ttfc = first.Sub(start)
	p.n = len(buf)
	switch {
	case err != nil:
		err = fmt.Errorf("pull %s binary=%v: %w", s.dataset, binary, err)
	case streamErr != "":
		err = fmt.Errorf("pull %s binary=%v: in-band error %q", s.dataset, binary, streamErr)
	case len(buf) == 0:
		err = fmt.Errorf("pull %s binary=%v: no candidates", s.dataset, binary)
	case res.ModelVersion != s.version:
		err = fmt.Errorf("pull %s: served version %d, want %d", s.dataset, res.ModelVersion, s.version)
	}
	b.op(err)
	p.failed = err != nil
	p.hash = hashAddrs(buf)
	return p, buf
}

// countHits probes the delivered candidates against the dataset's
// universe, as in Table 4: a hit is an active address that was not in the
// training sample, and a new /64 is a hit's /64 absent from training.
func (w *scanWorkload) countHits(b *bench, s *scanSet, cands []ip6.Addr) {
	s.checked = true
	if a, dup := firstDuplicate(cands); dup {
		b.mismatch("scan %s: duplicate candidate %v", s.dataset, a)
	}
	prober := &scan.MemProber{Universe: s.universe, Seed: b.o.seed}
	trainSet := ip6.NewSet(len(s.train))
	trainSet.AddAll(s.train)
	trainPrefixes := scan.TrainingPrefixSet(s.train)
	new64 := ip6.NewPrefixSet(0)
	s.delivered = len(cands)
	s.hits = 0
	for _, a := range cands {
		out, err := prober.Probe(context.Background(), a)
		if err != nil || !out.InTestSet || trainSet.Contains(a) {
			continue
		}
		s.hits++
		if p := ip6.Prefix64(a); !trainPrefixes.Contains(p) {
			new64.Add(p)
		}
	}
	s.new64s = new64.Len()
}

func (w *scanWorkload) verify(ctx context.Context, b *bench) error {
	refs := make([][32]byte, len(w.sets))
	counts := make([]int, len(w.sets))
	for i, s := range w.sets {
		m, _, err := b.srv.reg.GetVersion(s.model, s.version)
		if err != nil {
			return err
		}
		ref, err := reference(m, b.sz.scanCount, s.seed, nil)
		if err != nil {
			return err
		}
		refs[i], counts[i] = hashAddrs(ref), len(ref)
	}
	// Per dataset and encoding: mean candidates, mean pull time, and the
	// median time to first candidate.
	type acc struct {
		n    int
		dur  time.Duration
		ttfc []float64
		runs int
	}
	accs := make([][2]acc, len(w.sets))
	for _, p := range w.pulls {
		if p.failed {
			continue
		}
		s := w.sets[p.set]
		if p.hash != refs[p.set] || p.n != counts[p.set] {
			b.mismatch("scan %s binary=%v: stream (%d candidates) differs from in-process GenerateStream (%d)",
				s.dataset, p.binary, p.n, counts[p.set])
		}
		a := &accs[p.set][boolIndex(p.binary)]
		a.n += p.n
		a.dur += p.dur
		a.runs++
		a.ttfc = append(a.ttfc, p.ttfc.Seconds()*1000)
	}
	var rateN, rateT [2]float64
	var ttfc []float64
	for _, pair := range accs {
		for e, a := range pair {
			if a.runs == 0 {
				continue
			}
			rateN[e] += float64(a.n) / float64(a.runs)
			rateT[e] += a.dur.Seconds() / float64(a.runs)
			ttfc = append(ttfc, median(a.ttfc))
		}
	}
	var delivered, hits, new64s int
	for _, s := range w.sets {
		delivered += s.delivered
		hits += s.hits
		new64s += s.new64s
	}
	requested := len(w.sets) * b.sz.scanCount
	b.setNote("gen_binary_cand_per_s", rateN[1]/rateT[1], "cand/s", fmt.Sprintf("%d binary pulls", len(w.pulls)/2))
	b.set("gen_ndjson_cand_per_s", rateN[0]/rateT[0], "cand/s")
	b.setNote("ttfc_ms_p50", median(ttfc), "ms", "median over datasets and encodings of each one's median")
	b.set("hit_rate", float64(hits)/float64(delivered), "fraction")
	b.set("new_64s", float64(new64s), "count")
	b.set("yield_frac", float64(delivered)/float64(requested), "fraction")
	b.set("throughput_per_s", rateN[1]/rateT[1], "1/s")
	b.set("latency_ms_p50", median(ttfc), "ms")
	return nil
}

// layers replays every pull (capped) through the layers a candidate
// crosses — BN draw, decode, dedup, then wire encode and client decode, or
// NDJSON format and client decode — and probes the rest.
func (w *scanWorkload) layers(ctx context.Context, b *bench, tr *tracer) error {
	datas := make([]*layerData, len(w.sets))
	for i, s := range w.sets {
		m, _, err := b.srv.reg.GetVersion(s.model, s.version)
		if err != nil {
			return err
		}
		evs, err := derivedEvidence(m, s.train, s.seed, b.sz.targetedStreams)
		if err != nil {
			return err
		}
		datas[i] = &layerData{
			model: s.model, version: s.version, m: m, train: s.train, evs: evs,
			gens: []genSpec{{seed: s.seed, count: b.sz.scanCount}},
		}
	}
	replayed := make([][]ip6.Addr, len(w.sets))
	units := 0
	replay := func(t *tracer) error {
		path := t.span(-1, "path")
		units = 0
		for i, d := range datas {
			for _, binary := range []bool{true, false} {
				cands, err := replayGenerate(t, path, d.m, capped(d.gens[0], b.sz.replayCap))
				if err != nil {
					return err
				}
				body := replayFormat(t, path, cands)
				if binary {
					body = replayWireEncode(t, path, [][]ip6.Addr{cands})
				}
				n, err := replayClientDecode(t, path, body, binary)
				if err != nil {
					return err
				}
				if int(n) != len(cands) {
					return fmt.Errorf("client decoded %d of %d replayed candidates", n, len(cands))
				}
				units += len(cands)
				replayed[i] = cands
			}
		}
		return nil
	}
	untraced, traced, err := replayTwice(tr, replay)
	if err != nil {
		return err
	}
	for i, d := range datas {
		ref, err := reference(d.m, len(replayed[i]), d.gens[0].seed, nil)
		if err != nil {
			return err
		}
		if hashAddrs(ref) != hashAddrs(replayed[i]) {
			b.mismatch("scan %s: the layer replay differs from GenerateStream", w.sets[i].dataset)
		}
		d.obs = [][]ip6.Addr{replayed[i][:min(len(replayed[i]), b.sz.observeBatch)]}
		d.gens[0] = capped(d.gens[0], b.sz.replayCap)
		if err := probeLayers(ctx, b, tr, d); err != nil {
			return err
		}
	}
	var e2e time.Duration
	var n int
	for _, p := range w.pulls {
		e2e += p.dur
		n += p.n
	}
	explained := tr.layerSelf(tr.span(-1, "path")) / time.Duration(units)
	b.setLayerMetrics(tr, explained, e2e/time.Duration(n), untraced, traced)
	return nil
}

func boolIndex(v bool) int {
	if v {
		return 1
	}
	return 0
}

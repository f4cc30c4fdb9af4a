package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"entropyip/internal/core"
	"entropyip/internal/ingest"
	"entropyip/internal/ip6"
	"entropyip/internal/registry"
	"entropyip/internal/serve"
	"entropyip/internal/stats"
	"entropyip/internal/synth"
)

// refreshWorkload is the write side: one client alternates a server-side
// train on 100k C1 addresses with observe batches drawn from C3, a
// drifting population. Writes replace reads, wire.Reader replaces Writer,
// mining encodes instead of decoding and ip6 parses instead of formatting;
// every training stage runs.
type refreshWorkload struct {
	model     string
	train     []ip6.Addr
	trainBody []byte
	batches   [][]ip6.Addr
	version   int

	trains      []time.Duration
	observed    int
	observeWall time.Duration
}

// AutoRefresh stays off and drift is scored at the default cadence, so the
// run is deterministic.
func (w *refreshWorkload) serverOptions() serve.Options { return serve.Options{} }

func (w *refreshWorkload) prepare(ctx context.Context, b *bench) error {
	var err error
	w.model = "refresh-c1"
	if w.train, err = synth.Generate("C1", b.sz.refreshTrainN, b.o.seed); err != nil {
		return err
	}
	if w.trainBody, err = putTrainBody(w.train); err != nil {
		return err
	}
	drifting, err := synth.Generate("C3", 0, b.o.seed)
	if err != nil {
		return err
	}
	w.batches = make([][]ip6.Addr, b.sz.observePerCycle)
	for i := range w.batches {
		w.batches[i] = stats.SampleN(stats.Split(b.o.seed, int64(300+i)), drifting, b.sz.observeBatch)
	}
	w.version, err = putTrain(ctx, b.srv.hc, b.srv.url, w.model, w.trainBody)
	b.op(err)
	return err
}

func (w *refreshWorkload) measure(ctx context.Context, b *bench, deadline time.Time) error {
	cl := b.srv.client("")
	w.trains, w.observed, w.observeWall = w.trains[:0], 0, 0
	for {
		start := time.Now()
		v, err := putTrain(ctx, b.srv.hc, b.srv.url, w.model, w.trainBody)
		if err == nil {
			w.trains = append(w.trains, time.Since(start))
			w.version = v
		}
		b.op(err)
		for _, batch := range w.batches {
			start := time.Now()
			res, err := cl.Observe(ctx, w.model, batch)
			w.observeWall += time.Since(start)
			switch {
			case err != nil:
				err = fmt.Errorf("observe: %w", err)
			case res.Accepted != len(batch) || res.Invalid != 0:
				err = fmt.Errorf("observe accepted %d and rejected %d of %d", res.Accepted, res.Invalid, len(batch))
			default:
				w.observed += res.Accepted
			}
			b.op(err)
		}
		if time.Now().After(deadline) {
			return nil
		}
	}
}

func (w *refreshWorkload) verify(ctx context.Context, b *bench) error {
	// Server-side training must store exactly the model an in-process
	// Build of the same addresses serializes to.
	m, err := core.Build(w.train, core.Options{})
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := m.Save(&want); err != nil {
		return err
	}
	rc, _, err := b.srv.reg.OpenRaw(w.model, w.version)
	if err != nil {
		return err
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want.Bytes())) {
		b.mismatch("refresh: stored model v%d differs from an in-process Build of the same addresses", w.version)
	}
	ts := make([]float64, len(w.trains))
	for i, d := range w.trains {
		ts[i] = d.Seconds()
	}
	rate := float64(w.observed) / w.observeWall.Seconds()
	b.setNote("train_s_p50", median(ts), "s", fmt.Sprintf("n=%d", len(ts)))
	b.set("observe_addr_per_s", rate, "addr/s")
	b.set("throughput_per_s", rate, "1/s")
	b.set("latency_ms_p50", median(ts)*1000, "ms")
	return nil
}

// layers replays one cycle through the layers it crosses — address parse,
// the build stages, registry put, then per observe batch the client's
// wire encode, the server's wire decode, ingest and drift scoring — and
// probes the rest.
func (w *refreshWorkload) layers(ctx context.Context, b *bench, tr *tracer) error {
	text := make([]string, len(w.train))
	for i, a := range w.train {
		text[i] = string(a.AppendString(nil))
	}
	reg, err := registry.Open(filepath.Join(b.dir, "replay-registry"), 0)
	if err != nil {
		return err
	}
	replay := func(t *tracer) error {
		path := t.span(-1, "path")
		if err := timeParse(t, path, text); err != nil {
			return err
		}
		build := t.span(path, "core.build")
		t0 := time.Now()
		m, err := core.Build(w.train, core.Options{OnStage: func(stage string, d time.Duration) {
			t.addN(t.span(build, "core.stage."+stage), d, 1)
		}})
		if err != nil {
			return err
		}
		t.addN(build, time.Since(t0), 1)
		if err := timeRegistryPut(t, path, reg, w.model, m); err != nil {
			return err
		}
		buf := ingest.New(ingest.Config{})
		for _, batch := range w.batches {
			body := replayWireEncode(t, path, [][]ip6.Addr{batch})
			if _, err := replayWireDecode(t, path, body); err != nil {
				return err
			}
			if err := timeObserve(t, path, buf, m, batch); err != nil {
				return err
			}
		}
		return nil
	}
	untraced, traced, err := replayTwice(tr, replay)
	if err != nil {
		return err
	}

	m, _, err := b.srv.reg.GetVersion(w.model, w.version)
	if err != nil {
		return err
	}
	evs, err := derivedEvidence(m, w.train, b.o.seed, b.sz.targetedStreams)
	if err != nil {
		return err
	}
	d := &layerData{
		model: w.model, version: w.version, m: m, train: w.train, evs: evs, obs: w.batches,
		gens: []genSpec{{seed: b.o.seed, count: b.sz.replayCap / 4}}, stagesFromPath: true,
	}
	if err := probeLayers(ctx, b, tr, d); err != nil {
		return err
	}

	var e2e time.Duration
	for _, d := range w.trains {
		e2e += d
	}
	e2e += w.observeWall
	cycles := time.Duration(len(w.trains))
	b.setLayerMetrics(tr, tr.layerSelf(tr.span(-1, "path")), e2e/cycles, untraced, traced)
	return nil
}

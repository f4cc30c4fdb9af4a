package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape reads the daemon's own /metrics and sums every sample of each
// family over its labels.
func (s *server) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", s.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad sample line %q", line)
		}
		out[strings.TrimSpace(name)] += v
	}
	return out, sc.Err()
}

// metricDeltas reports the layer-boundary counts the workload moved, from
// the scrapes taken before and after the timed window.
func (b *bench) metricDeltas(before, after map[string]float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	hits, misses := d("eip_registry_cache_hits_total"), d("eip_registry_cache_misses_total")
	b.set("metrics.registry_hits", hits, "count")
	b.set("metrics.registry_misses", misses, "count")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	b.set("metrics.registry_hit_ratio", ratio, "fraction")
	b.set("metrics.admission_admitted", d("eip_admission_admitted_total"), "count")
	b.set("metrics.admission_shed", d("eip_admission_shed_total"), "count")
	b.set("drift.evals", d("eip_drift_evaluations_total"), "count")
	b.set("metrics.gc_pause_s", d("eip_go_gc_pause_seconds_total"), "s")
	b.set("metrics.http_errors", d("eip_http_errors_total"), "count")
}

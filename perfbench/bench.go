package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"entropyip/internal/registry"
	"entropyip/internal/serve"
	"entropyip/pkg/client"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	// wrap, when set, wraps the clients' transport (tests corrupt
	// responses with it).
	wrap func(http.RoundTripper) http.RoundTripper
}

// sizes fixes how much work each workload does. defaultSizes is the
// benchmark; the package's own tests shrink it to a smoke run.
type sizes struct {
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats int
	// scan: candidates per pull (the paper's 1M) and the training sample.
	scanCount int
	trainN    int
	// scanDatasets are the §5.5 datasets, one per address class.
	scanDatasets []string
	// targeted: streams per batch request and candidates per stream.
	targetedStreams int
	targetedCount   int
	// targetedSpecs is how many distinct request shapes the clients
	// cycle through (each checked against an in-process reference).
	targetedSpecs int
	// refresh: the server-side training set and observe batches.
	refreshTrainN   int
	observeBatch    int
	observePerCycle int
	// replayCap bounds the candidates per stream the traced replay runs.
	replayCap int
}

func defaultSizes() sizes {
	return sizes{
		setupRepeats:    5,
		scanCount:       1_000_000,
		trainN:          1000,
		scanDatasets:    []string{"S1", "S5", "R1", "C1", "C3", "AS"},
		targetedStreams: 8,
		targetedCount:   1000,
		targetedSpecs:   16,
		refreshTrainN:   100_000,
		observeBatch:    4096,
		observePerCycle: 16,
		replayCap:       100_000,
	}
}

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// gatedEndToEnd are the end-to-end metrics every workload reports in the
// result line (BENCHMARK.json end_to_end). throughput_per_s and
// latency_ms_p50 carry each workload's headline metric; the rest of the
// named metrics are printed above the result line.
var gatedEndToEnd = []string{"setup_s", "throughput_per_s", "latency_ms_p50", "rss_peak_mb"}

// namedEndToEnd lists, per workload, the end-to-end metrics the run prints
// above the result line, with their units.
var namedEndToEnd = map[string][][2]string{
	"scan": {
		{"setup_s", "s"}, {"gen_binary_cand_per_s", "cand/s"}, {"gen_ndjson_cand_per_s", "cand/s"},
		{"ttfc_ms_p50", "ms"}, {"hit_rate", "fraction"}, {"new_64s", "count"}, {"yield_frac", "fraction"},
		{"failed_frac", "fraction"}, {"rss_peak_mb", "MiB"},
	},
	"targeted": {
		{"setup_s", "s"}, {"ttfc_ms_p50", "ms"}, {"req_ms_p50", "ms"}, {"req_ms_p99", "ms"},
		{"req_per_s", "req/s"}, {"yield_frac", "fraction"}, {"failed_frac", "fraction"}, {"rss_peak_mb", "MiB"},
	},
	"refresh": {
		{"setup_s", "s"}, {"train_s_p50", "s"}, {"observe_addr_per_s", "addr/s"},
		{"failed_frac", "fraction"}, {"rss_peak_mb", "MiB"},
	},
}

// bench is the state of one run.
type bench struct {
	o   options
	sz  sizes
	out io.Writer
	dir string // scratch directory, removed at the end of the run
	srv *server

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string

	// named holds every metric the run measured, in print order.
	named []namedMetric
}

type namedMetric struct {
	name string
	metric
	note string
}

// set records a metric; a later set of the same name replaces it.
func (b *bench) set(name string, v float64, unit string) { b.setNote(name, v, unit, "") }

func (b *bench) setNote(name string, v float64, unit, note string) {
	for i := range b.named {
		if b.named[i].name == name {
			b.named[i] = namedMetric{name, metric{v, unit}, note}
			return
		}
	}
	b.named = append(b.named, namedMetric{name, metric{v, unit}, note})
}

func (b *bench) get(name string) (metric, bool) {
	for _, m := range b.named {
		if m.name == name {
			return m.metric, true
		}
	}
	return metric{}, false
}

// op counts one attempted operation and, when err is non-nil, a failure.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// mismatch records a failed output check of an operation already counted.
func (b *bench) mismatch(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark scenario.
type workload interface {
	// serverOptions configures the in-process daemon.
	serverOptions() serve.Options
	// prepare builds the inputs from the seed and uploads them to b.srv.
	// It is the timed set-up and may run several times.
	prepare(ctx context.Context, b *bench) error
	// measure runs the closed loop until the deadline has passed (always
	// at least one full round of the workload's operations).
	measure(ctx context.Context, b *bench, deadline time.Time) error
	// verify checks the recorded outputs, outside the timed window, and
	// sets the end-to-end metrics.
	verify(ctx context.Context, b *bench) error
	// layers replays the workload through each module's public functions
	// and sets the per-layer metrics.
	layers(ctx context.Context, b *bench, tr *tracer) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "scan":
		return &scanWorkload{}, nil
	case "targeted":
		return &targetedWorkload{}, nil
	case "refresh":
		return &refreshWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want scan, targeted or refresh)", name)
}

// run executes one workload and returns its result line.
func run(ctx context.Context, o options, sz sizes, out io.Writer) (*result, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 0 {
		return nil, fmt.Errorf("--seconds must not be negative")
	}
	base := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{o: o, sz: sz, out: out, dir: dir}
	defer func() {
		if b.srv != nil {
			b.srv.close()
		}
	}()
	b.printRecord()

	// Set-up: a fresh daemon and the workload's inputs, several times.
	repeats := sz.setupRepeats
	if o.trace || repeats < 1 {
		repeats = 1
	}
	setups := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if b.srv != nil {
			b.srv.close()
			b.srv = nil
		}
		start := time.Now()
		srv, err := startServer(filepath.Join(dir, fmt.Sprintf("registry-%d", i)), w.serverOptions(), o.wrap)
		if err != nil {
			return nil, err
		}
		b.srv = srv
		if err := w.prepare(ctx, b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	b.set("setup_s", median(setups), "s")

	before, err := b.srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if err := w.measure(ctx, b, time.Now().Add(time.Duration(o.seconds)*time.Second)); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	after, err := b.srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if err := w.verify(ctx, b); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	b.metricDeltas(before, after)
	if o.workload == "targeted" {
		if shed, _ := b.get("metrics.admission_shed"); shed.Value != 0 {
			b.mismatch("admission shed %v requests on targeted; limits are set above the offered load", shed.Value)
		}
	}
	b.set("rss_peak_mb", peakRSSMiB(), "MiB")

	if o.trace {
		tr := newTracer()
		if err := w.layers(ctx, b, tr); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		if err := tr.write(filepath.Join(base, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))); err != nil {
			return nil, err
		}
	}
	return b.finish()
}

func (b *bench) setFailedFrac() {
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	b.set("failed_frac", frac, "fraction")
}

// finish prints every measured metric and builds the result line.
func (b *bench) finish() (*result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setFailedFrac()
	for _, m := range b.named {
		if m.note != "" {
			fmt.Fprintf(b.out, "metric %-40s %.6g %s (%s)\n", m.name, m.Value, m.Unit, m.note)
		} else {
			fmt.Fprintf(b.out, "metric %-40s %.6g %s\n", m.name, m.Value, m.Unit)
		}
	}
	for _, f := range b.failures {
		fmt.Fprintf(b.out, "failure %s\n", f)
	}
	res := &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("the workload attempted no operation")
	}
	for _, nm := range namedEndToEnd[b.o.workload] {
		if m, ok := b.get(nm[0]); !ok || m.Unit != nm[1] {
			return nil, fmt.Errorf("metric %s was not measured in %s", nm[0], nm[1])
		}
	}
	names := gatedEndToEnd
	if b.o.trace {
		names = perLayerNames
	}
	for _, name := range names {
		m, ok := b.get(name)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = m
	}
	return res, nil
}

// printRecord prints the run record: what produced the numbers below it.
func (b *bench) printRecord() {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", b.o.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(b.out, "record commit=%s\n", commit)
	fmt.Fprintf(b.out, "record cpu=%q\n", cpuModel())
	fmt.Fprintf(b.out, "record nproc=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(b.out, "record workload=%s seed=%d seconds=%d trace=%v\n", b.o.workload, b.o.seed, b.o.seconds, b.o.trace)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// server is the in-process daemon: serve.New over a registry, served by
// net/http on a loopback listener.
type server struct {
	reg  *registry.Registry
	srv  *serve.Server
	hs   *http.Server
	done chan error
	url  string
	// hc is shared by every client: at most nproc connections.
	hc *http.Client
}

func startServer(dir string, opts serve.Options, wrap func(http.RoundTripper) http.RoundTripper) (*server, error) {
	reg, err := registry.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		reg:  reg,
		srv:  serve.New(reg, opts),
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
	}
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.hs.Serve(ln) }()
	n := runtime.NumCPU()
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}
	if wrap != nil {
		rt = wrap(rt)
	}
	s.hc = &http.Client{Transport: rt}
	return s, nil
}

// client returns a pkg/client Client whose requests carry the tenant
// header (empty: none).
func (s *server) client(tenant string) *client.Client {
	hc := s.hc
	if tenant != "" {
		hc = &http.Client{Transport: tenantTransport{tenant: tenant, next: s.hc.Transport}}
	}
	return client.New(s.url, hc)
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.done
	s.hc.CloseIdleConnections()
}

// tenantTransport sets X-Tenant on every request, so two clients act as
// two admission tenants over one connection pool.
type tenantTransport struct {
	tenant string
	next   http.RoundTripper
}

func (t tenantTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set("X-Tenant", t.tenant)
	return t.next.RoundTrip(r)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile up to 99 that has
// at least ten samples beyond it, with its value; ok is false when not even
// the median has.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p := 99; p >= 50; p-- {
		idx := int(math.Ceil(float64(p)/100*float64(n))) - 1
		if idx >= 0 && n-1-idx >= 10 {
			return p, s[idx], true
		}
	}
	return 0, 0, false
}

func maxOf(xs []float64) float64 {
	m := math.NaN()
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

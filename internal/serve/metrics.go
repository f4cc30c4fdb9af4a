package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"entropyip/internal/obs"
)

// Metrics collects per-route request statistics on lock-free obs
// primitives. Each route's counters are registered once, when the route
// is installed, and the handler middleware holds a direct pointer — the
// request path does no map lookup and takes no lock, completing the
// zero-allocation serving plane's removal of per-request synchronization
// (the old implementation took a global mutex twice per request).
//
// The same counters feed two views: the Prometheus exposition on
// GET /metrics (through the obs.Registry the counters are registered in)
// and the /healthz JSON snapshot, whose shape predates the obs plane and
// stays backward compatible.
type Metrics struct {
	start    time.Time
	inFlight obs.Gauge
	panics   *obs.Counter

	reqSeconds, respBytes, reqsTotal, errsTotal string // family names, registered once

	o *obs.Registry

	// mu guards routes during registration only; the request path never
	// touches it.
	mu     sync.Mutex
	routes []*routeMetrics
}

// routeMetrics is one route's pre-registered counter set.
type routeMetrics struct {
	pattern  string
	requests *obs.Counter
	errors   *obs.Counter
	bytes    *obs.Counter
	latency  *obs.Histogram
	// nanos keeps the exact cumulative handler time the /healthz snapshot
	// reports; the histogram alone would quantize it.
	nanos atomic.Int64
}

// RouteSnapshot is the exported view of one route's counters.
type RouteSnapshot struct {
	// Requests is the number of completed requests.
	Requests int64 `json:"requests"`
	// Errors is the number of requests answered with a 4xx or 5xx status.
	Errors int64 `json:"errors"`
	// TotalMillis is the cumulative handler time in milliseconds.
	TotalMillis int64 `json:"total_millis"`
}

// MetricsSnapshot is a point-in-time view of all request metrics.
type MetricsSnapshot struct {
	// UptimeSeconds is the time since the server was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// InFlight is the number of requests currently being handled.
	InFlight int `json:"in_flight"`
	// Panics is the number of panics recovered in request handlers,
	// generate streams and background retrains.
	Panics int64 `json:"panics,omitempty"`
	// Routes maps "METHOD pattern" to that route's counters.
	Routes map[string]RouteSnapshot `json:"routes"`
}

func newMetrics(o *obs.Registry) *Metrics {
	m := &Metrics{
		start:      time.Now(),
		o:          o,
		reqsTotal:  "eip_http_requests_total",
		errsTotal:  "eip_http_errors_total",
		respBytes:  "eip_http_response_bytes_total",
		reqSeconds: "eip_http_request_seconds",
	}
	o.GaugeFunc("eip_http_in_flight", "Requests currently being handled.",
		func() float64 { return float64(m.inFlight.Value()) })
	m.panics = o.Counter("eip_http_panics_total", "Panics recovered in request handlers, generate streams and background retrains.")
	o.GaugeFunc("eip_uptime_seconds", "Seconds since the server was created.",
		func() float64 { return time.Since(m.start).Seconds() })
	return m
}

// route registers one route's counter set. Called once per route at
// server construction.
func (m *Metrics) route(pattern string) *routeMetrics {
	rm := &routeMetrics{
		pattern:  pattern,
		requests: m.o.Counter(m.reqsTotal, "Completed requests by route.", "route", pattern),
		errors:   m.o.Counter(m.errsTotal, "Requests answered with a 4xx or 5xx status.", "route", pattern),
		bytes:    m.o.Counter(m.respBytes, "Response body bytes written.", "route", pattern),
		latency:  m.o.Histogram(m.reqSeconds, "Request handling latency.", nil, "route", pattern),
	}
	m.mu.Lock()
	m.routes = append(m.routes, rm)
	m.mu.Unlock()
	return rm
}

func (m *Metrics) begin() { m.inFlight.Inc() }

func (m *Metrics) end(rm *routeMetrics, status int, dur time.Duration, bytes int64, traceID string) {
	m.inFlight.Dec()
	rm.requests.Inc()
	if status >= 400 {
		rm.errors.Inc()
	}
	// The trace ID becomes the bucket's exemplar in the OpenMetrics
	// exposition, linking a slow latency observation to its flight-recorder
	// trace; the text v0.0.4 exposition ignores it.
	rm.latency.ObserveExemplar(dur.Seconds(), traceID)
	rm.nanos.Add(int64(dur))
	if bytes > 0 {
		rm.bytes.Add(uint64(bytes))
	}
}

// panicked records one recovered handler panic.
func (m *Metrics) panicked() { m.panics.Inc() }

// Snapshot returns the current counters. Like the pre-obs implementation
// it includes only routes that have completed at least one request, so
// the /healthz JSON is unchanged for existing consumers.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	routes := m.routes
	m.mu.Unlock()
	out := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		InFlight:      int(m.inFlight.Value()),
		Panics:        int64(m.panics.Value()),
		Routes:        make(map[string]RouteSnapshot, len(routes)),
	}
	for _, rm := range routes {
		reqs := int64(rm.requests.Value())
		if reqs == 0 {
			continue
		}
		out.Routes[rm.pattern] = RouteSnapshot{
			Requests:    reqs,
			Errors:      int64(rm.errors.Value()),
			TotalMillis: rm.nanos.Load() / int64(time.Millisecond),
		}
	}
	return out
}

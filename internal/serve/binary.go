package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"entropyip/internal/admission"
	"entropyip/internal/core"
	"entropyip/internal/ip6"
	"entropyip/internal/obs/trace"
	"entropyip/internal/wire"
)

// This file holds the Accept/Content-Type negotiation between NDJSON and
// the framed binary encoding of internal/wire, the one generate serving
// loop both encodings and both request forms (single stream, batch)
// share, and the binary /observe decode path.

// encoding is a negotiated request/response encoding.
type encoding int

const (
	encNDJSON encoding = iota
	encBinary
)

// Row indexes into Server.encRequests (columns are the encoding values).
const (
	routeGenerate = 0
	routeObserve  = 1
)

func (e encoding) String() string {
	if e == encBinary {
		return "binary"
	}
	return "ndjson"
}

// contentType returns the media type the encoding is served under.
func (e encoding) contentType() string {
	if e == encBinary {
		return wire.ContentType
	}
	return "application/x-ndjson"
}

// negotiateGenerateEncoding picks the generate response encoding from
// the Accept header. The binary type wins whenever it appears; an absent
// or wildcard Accept keeps the NDJSON default; an Accept that admits
// neither encoding is a 406. Quality parameters are ignored — a client
// that sends q-values still gets the most capable encoding it listed.
func negotiateGenerateEncoding(r *http.Request) (encoding, error) {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return encNDJSON, nil
	}
	ndjsonOK := false
	for rest := accept; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = part[:i]
		}
		part = strings.TrimSpace(part)
		switch {
		case strings.EqualFold(part, wire.ContentType):
			return encBinary, nil
		case strings.EqualFold(part, "application/x-ndjson"),
			strings.EqualFold(part, "application/json"),
			strings.EqualFold(part, "application/*"),
			part == "*/*":
			ndjsonOK = true
		}
	}
	if ndjsonOK {
		return encNDJSON, nil
	}
	return 0, fmt.Errorf("Accept %q admits no supported encoding (application/x-ndjson, %s)", accept, wire.ContentType)
}

// isBinaryContentType reports whether a request body is declared as the
// binary wire encoding.
func isBinaryContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), wire.ContentType)
}

// MaxGenerateStreams caps the streams of one batch generate request at
// what the wire format's frame stream index can address.
const MaxGenerateStreams = wire.MaxStreams

// maxConcurrentStreams bounds how many of a batch request's streams
// generate at once; the rest start as earlier ones finish. Frames (or
// NDJSON lines) interleave only among running streams, so this also
// bounds the demultiplexing state a client holds at once.
const maxConcurrentStreams = 8

// resolvedStream is one generate stream after request validation, its
// seed derived when the request omitted one. Evidence stays in request
// form — the engine validates it against the model at generation time,
// per stream.
type resolvedStream struct {
	count       int
	seed        int64
	evidence    core.Evidence
	maxAttempts int
}

// resolveStreams validates a generate request into its stream list and
// reports whether the request was batch-form. Single requests use the
// legacy top-level fields; batch requests move count, seed, evidence and
// max_attempts_factor per stream and must leave the top-level ones
// unset.
func (s *Server) resolveStreams(req *GenerateRequest) ([]resolvedStream, bool, error) {
	maxCount := s.opts.maxGenerateCount()
	if len(req.Streams) == 0 {
		if req.Count <= 0 {
			return nil, false, fmt.Errorf("count must be positive")
		}
		if req.Count > maxCount {
			return nil, false, fmt.Errorf("count %d exceeds limit %d", req.Count, maxCount)
		}
		if req.MaxAttemptsFactor < 0 || req.MaxAttemptsFactor > MaxAttemptsFactorLimit {
			return nil, false, fmt.Errorf("max_attempts_factor must be in 0..%d", MaxAttemptsFactorLimit)
		}
		seed := randomSeed()
		if req.Seed != nil {
			seed = *req.Seed
		}
		return []resolvedStream{{
			count:       req.Count,
			seed:        seed,
			evidence:    core.Evidence(req.Evidence),
			maxAttempts: req.MaxAttemptsFactor,
		}}, false, nil
	}
	if req.Count != 0 || req.Seed != nil || len(req.Evidence) > 0 || req.MaxAttemptsFactor != 0 {
		return nil, true, fmt.Errorf("streams and top-level count/seed/evidence/max_attempts_factor are mutually exclusive")
	}
	if len(req.Streams) > MaxGenerateStreams {
		return nil, true, fmt.Errorf("%d streams exceed limit %d", len(req.Streams), MaxGenerateStreams)
	}
	out := make([]resolvedStream, len(req.Streams))
	total := 0
	for i, st := range req.Streams {
		if st.Count <= 0 {
			return nil, true, fmt.Errorf("streams[%d].count must be positive", i)
		}
		if st.MaxAttemptsFactor < 0 || st.MaxAttemptsFactor > MaxAttemptsFactorLimit {
			return nil, true, fmt.Errorf("streams[%d].max_attempts_factor must be in 0..%d", i, MaxAttemptsFactorLimit)
		}
		total += st.Count
		if total > maxCount {
			return nil, true, fmt.Errorf("total count across streams exceeds limit %d", maxCount)
		}
		seed := randomSeed()
		if st.Seed != nil {
			seed = *st.Seed
		}
		out[i] = resolvedStream{
			count:       st.Count,
			seed:        seed,
			evidence:    core.Evidence(st.Evidence),
			maxAttempts: st.MaxAttemptsFactor,
		}
	}
	return out, true, nil
}

// seedHeader renders the X-Seed value: the stream seeds, comma-joined in
// stream order (a single stream's header is just its seed, as before).
func seedHeader(streams []resolvedStream) string {
	if len(streams) == 1 {
		return strconv.FormatInt(streams[0].seed, 10)
	}
	var b strings.Builder
	for i, st := range streams {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(st.seed, 10))
	}
	return b.String()
}

// generateOptions builds the engine options for one resolved stream.
// Without Stop, a disconnected client would keep the generator spinning
// through duplicate draws until the attempt budget runs out.
func (s *Server) generateOptions(ctx context.Context, st resolvedStream, req *GenerateRequest) core.GenerateOptions {
	workers := req.Workers
	if workers == 0 {
		workers = s.opts.GenerateWorkers
	}
	return core.GenerateOptions{
		Count:             st.count,
		Seed:              st.seed,
		Evidence:          st.evidence,
		MaxAttemptsFactor: st.maxAttempts,
		Workers:           workers,
		Stop:              func() bool { return ctx.Err() != nil || s.isDraining() },
	}
}

// streamGate bounds how many of a batch request's streams generate at
// once. With admission slot gating on, every producer claims one of the
// TENANT's slots — per-tenant isolation, so a greedy batch queues behind
// its own tenant's work, not everyone's. Otherwise a per-request
// semaphore of maxConcurrentStreams preserves the PR 7 behavior.
type streamGate struct {
	adm    *admission.Controller
	tenant string
	sem    chan struct{}
}

func (s *Server) newStreamGate(ctx context.Context) *streamGate {
	if s.adm != nil && s.opts.Admission.TenantSlots > 0 {
		return &streamGate{adm: s.adm, tenant: tenantFrom(ctx)}
	}
	return &streamGate{sem: make(chan struct{}, maxConcurrentStreams)}
}

// acquire claims one generation slot, blocking until a slot frees or the
// context dies; ok=false means the stream must not run.
func (g *streamGate) acquire(ctx context.Context) (func(), bool) {
	if g.adm != nil {
		return g.adm.WaitSlot(ctx, g.tenant)
	}
	select {
	case g.sem <- struct{}{}:
		return func() { <-g.sem }, true
	case <-ctx.Done():
		return func() {}, false
	}
}

// lockedSink serializes writes from concurrent stream producers onto one
// buffered response writer and flushes each one to the client. Each
// Write call must be whole frames or whole NDJSON lines — wire.Writer
// and ndjsonWriter guarantee this, handing over one chunk per
// flushEvery candidates — so streams interleave without tearing. The
// first error (including client disconnect) sticks and fails every later
// write, stopping all producers.
type lockedSink struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	flusher http.Flusher
	ctx     context.Context
	writes  int64
	err     error
}

func (ls *lockedSink) Write(p []byte) (int, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.err != nil {
		return 0, ls.err
	}
	if ls.ctx.Err() != nil {
		ls.err = ls.ctx.Err()
		return 0, ls.err
	}
	n, err := ls.bw.Write(p)
	if err != nil {
		ls.err = err
		return n, err
	}
	ls.writes++
	if err := ls.bw.Flush(); err != nil {
		ls.err = err
		return n, err
	}
	if ls.flusher != nil {
		ls.flusher.Flush()
	}
	return n, nil
}

// wroteAny reports whether any frame/line reached the buffered writer —
// after which the 200 status may be on the wire and errors must go
// in-band.
func (ls *lockedSink) wroteAny() bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.writes > 0
}

// wireWriterPool reuses per-stream binary frame encoders; Reset keeps
// each Writer's frame buffer, so steady state allocates nothing.
var wireWriterPool = sync.Pool{
	New: func() interface{} { return new(wire.Writer) },
}

// wireReaderPool reuses binary body decoders (one fixed payload buffer
// each) across /observe requests.
var wireReaderPool = sync.Pool{
	New: func() interface{} { return new(wire.Reader) },
}

// streamWriter encodes one generate stream: *wire.Writer in the binary
// encoding, *ndjsonWriter in NDJSON. Both hand the sink whole frames or
// lines only, one chunk per flushEvery candidates.
type streamWriter interface {
	AddAddr(ip6.Addr) error
	AddPrefix(ip6.Prefix) error
	Error(msg string) error
	End() error
}

// generateStreams is the one generate serving loop, for both encodings
// and both request forms. It writes the binary stream header, then runs
// every stream: a single stream is a batch of one, run inline under the
// request's admission slot; the streams of a batch run concurrently,
// each claiming its own slot through the stream gate, and interleave
// their frames or lines on the shared sink. A single stream that fails
// before its sink received anything is answered with the JSON error
// envelope, a 500 when a generator panicked and a 400 otherwise; every
// other failure, and a drain that cuts a stream short, reports in-band
// through the stream's Error frame or error line.
func (s *Server) generateStreams(w http.ResponseWriter, r *http.Request, m *core.Model, enc encoding, req *GenerateRequest, streams []resolvedStream, batch bool, release func()) {
	ctx := r.Context()
	if batch {
		// The request-level admission slot goes back before fan-out: each
		// producer claims its own tenant slot through the stream gate, and
		// holding the request's would deadlock a one-slot tenant against
		// its own batch.
		release()
	} else {
		defer release()
	}
	flusher, _ := w.(http.Flusher)
	bw := bufio.NewWriterSize(w, 32<<10)
	sink := &lockedSink{bw: bw, flusher: flusher, ctx: ctx}
	root := requestSpan(ctx)
	traceID := traceIDString(ctx)
	every := s.opts.flushEvery()

	if enc == encBinary {
		var flags uint8
		if req.Prefixes {
			flags |= wire.FlagPrefixes
		}
		if batch {
			flags |= wire.FlagBatch
		}
		// The header goes into the bufio buffer but is not flushed: if a
		// single-stream request fails before its first frame, the buffer is
		// simply abandoned and a JSON error envelope written instead.
		var hb [wire.HeaderSize]byte
		if _, err := bw.Write(wire.AppendHeader(hb[:0], wire.Header{
			Flags:   flags,
			Streams: len(streams),
			Seed:    streams[0].seed,
		})); err != nil {
			return
		}
		// The request's trace ID rides right behind the header as a Trace
		// frame, so a client holding only the binary stream (possibly saved
		// to disk) can still pull the matching flight-recorder trace. It
		// shares the header's not-flushed-yet property.
		if tid := root.TraceID(); tid.IsValid() {
			var tb [wire.FrameHeaderSize + 16]byte
			if _, err := bw.Write(wire.AppendTraceFrame(tb[:0], 0, tid)); err != nil {
				return
			}
		}
	}

	var produced atomic.Int64
	var early error // a single stream's error before its sink received anything
	runStream := func(idx int, span *trace.Span) {
		defer span.Finish()
		st := streams[idx]
		span.SetInt("stream", int64(idx))
		span.SetInt("count", int64(st.count))
		span.SetInt("seed", st.seed)
		var sw streamWriter
		if enc == encBinary {
			ww := wireWriterPool.Get().(*wire.Writer)
			defer wireWriterPool.Put(ww)
			ww.Reset(sink, idx, req.Prefixes, every)
			sw = ww
		} else {
			nw := ndjsonWriterPool.Get().(*ndjsonWriter) //eip:pool-ok putNDJSONWriter puts it back unless its buffer grew oversized
			defer putNDJSONWriter(nw)
			nw.Reset(sink, idx, batch, traceID, every)
			sw = nw
		}
		if batch {
			// Deferred after the writer's pool release, so it runs first
			// and can still write this stream's Error.
			defer s.recoverStream(r, idx, span, sw)
			if ww, ok := sw.(*wire.Writer); ok && ww.Seed(st.seed) != nil {
				return
			}
		}
		opts := s.generateOptions(ctx, st, req)
		var n int64
		var werr, err error
		if req.Prefixes {
			err = m.GeneratePrefixesStream(opts, func(p ip6.Prefix) bool {
				n++
				werr = sw.AddPrefix(p)
				return werr == nil
			})
		} else {
			err = m.GenerateStream(opts, func(a ip6.Addr) bool {
				n++
				werr = sw.AddAddr(a)
				return werr == nil
			})
		}
		produced.Add(n)
		span.SetInt("produced", n)
		switch {
		case werr != nil || ctx.Err() != nil:
			// The sink is dead (client gone or write failure); nothing
			// more to say on the wire.
		case err != nil:
			span.SetError(err.Error())
			var pe *core.PanicError
			if errors.As(err, &pe) {
				s.logStreamPanic(r, idx, pe.Value, pe.Stack)
			}
			if !batch && !sink.wroteAny() {
				early = err
				return
			}
			msg := streamPanicMessage
			if pe == nil {
				s.logger.Error("generate failed mid-stream",
					"request_id", requestID(ctx),
					"trace_id", traceID,
					"model", r.PathValue("name"),
					"stream", idx,
					"encoding", enc.String(),
					"err", err)
				msg = err.Error()
			}
			_ = sw.Error(msg)
		case s.isDraining() && n < int64(st.count):
			// Drain cut this stream short: say so in-band, so the client
			// can tell the cut from exhausted model support.
			_ = sw.Error(drainMessage)
		default:
			_ = sw.End()
		}
	}

	if !batch {
		runStream(0, root.StartChild("generate.stream"))
		switch {
		case errors.Is(early, core.ErrGeneratorPanic):
			writeError(w, r, http.StatusInternalServerError, streamPanicMessage)
			return
		case early != nil:
			writeError(w, r, http.StatusBadRequest, "%v", early)
			return
		}
	} else {
		gate := s.newStreamGate(ctx)
		var wg sync.WaitGroup
		for i := range streams {
			// Children start before the goroutine handoff (span ownership
			// rule, DESIGN.md §9); their duration therefore includes the
			// slot queue wait, which is part of what the client paid.
			span := root.StartChild("generate.stream")
			wg.Add(1)
			go func(i int, span *trace.Span) {
				defer wg.Done()
				done, ok := gate.acquire(ctx)
				if !ok {
					span.Finish()
					return
				}
				defer done()
				runStream(i, span)
			}(i, span)
		}
		wg.Wait()
	}
	_ = bw.Flush()
	s.candidates.Add(uint64(produced.Load()))
}

// streamPanicMessage is the error a client sees for a generate stream
// that panicked, in-band or in a 500 envelope; the details go to the
// log, not to the client.
const streamPanicMessage = "internal server error"

// recoverStream is deferred by every stream of a batch generate. Those
// run on their own goroutines, beyond the handler middleware's recover,
// where a panic would kill the process. It recovers one, logs and counts
// it, and ends that stream alone with an in-band Error; the batch's
// other streams finish.
func (s *Server) recoverStream(r *http.Request, idx int, span *trace.Span, sw streamWriter) {
	p := recover()
	if p == nil {
		return
	}
	s.logStreamPanic(r, idx, p, debug.Stack())
	span.SetError(fmt.Sprint("panic: ", p))
	_ = sw.Error(streamPanicMessage)
}

// logStreamPanic logs a panic that ended a generate stream, recovered
// on the stream's goroutine or in a generation producer, with its stack,
// and counts it in eip_http_panics_total like a handler panic.
func (s *Server) logStreamPanic(r *http.Request, idx int, p any, stack []byte) {
	s.metrics.panicked()
	s.logger.Error("generate stream panic",
		"request_id", requestID(r.Context()),
		"trace_id", traceIDString(r.Context()),
		"model", r.PathValue("name"),
		"stream", idx,
		"panic", fmt.Sprint(p),
		"stack", string(stack))
}

// decodeObserveBinary is the binary observe decoder: it feeds the
// addresses of every Addrs frame to add until the body ends or add
// returns false. Malformed framing rejects the request: a binary body is
// machine-written, so unlike text lines a bad frame is a protocol error,
// not traffic noise to skip, and invalid stays 0.
func decodeObserveBinary(body io.Reader, add func(ip6.Addr) bool) (invalid int, err error) {
	rd := wireReaderPool.Get().(*wire.Reader)
	defer wireReaderPool.Put(rd)
	if err := rd.Reset(body); err != nil {
		return 0, &bodyError{msg: "invalid binary body", err: err}
	}
	if rd.Header().Prefixes() {
		return 0, &bodyError{msg: "observe ingests addresses; prefix streams are not accepted"}
	}
	for {
		f, err := rd.Next()
		switch {
		case err == io.EOF:
			return 0, nil
		case err != nil:
			return 0, &bodyError{msg: "invalid binary body", err: err}
		}
		switch f.Kind {
		case wire.KindAddrs:
			for i := 0; i < f.Count; i++ {
				if !add(f.Addr(i)) {
					return 0, nil
				}
			}
		case wire.KindEnd:
			// Stream complete; keep reading so multi-stream bodies (e.g. a
			// saved batch response piped back) drain every stream's End.
		case wire.KindSeed:
			// Seed frames are meaningful on generate responses only; a
			// replayed capture may carry them, and they are no-ops here.
		case wire.KindTrace:
			// Trace frames identify the generate response they came from;
			// a replayed capture carries one, and it is a no-op here.
		default:
			return 0, unexpectedFrame(f.Kind)
		}
	}
}

// unexpectedFrame is the error for a frame kind observe does not take.
func unexpectedFrame(kind uint8) error {
	return &bodyError{msg: fmt.Sprintf("unexpected frame kind 0x%02x in observe body", kind)}
}

// observeFlush pushes the accumulated batch into the model's window,
// folding the result into out. On registry errors it answers the
// request itself and returns false.
func (s *Server) observeFlush(ctx context.Context, w http.ResponseWriter, r *http.Request, name string, batch *[]ip6.Addr, out *ObserveResponse) bool {
	if len(*batch) == 0 {
		return true
	}
	res, err := s.refresher.Observe(ctx, name, *batch)
	*batch = (*batch)[:0]
	if err != nil {
		writeRegistryError(w, r, err)
		return false
	}
	out.Accepted += res.Accepted
	out.Evaluated = out.Evaluated || res.Evaluated
	s.observeAccepted.Add(uint64(res.Accepted))
	return true
}

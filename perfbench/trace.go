package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mediasmt/internal/dist"
	"mediasmt/internal/exp"
	"mediasmt/internal/sim"
)

// span is one timed call at a layer boundary. Parent links a span to
// the span that caused it; Req names the request (a config key, an
// HTTP path) so client and server spans of one request can be matched.
// Insts and Cycles carry a simulation's modelled work on "sim" spans.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Failed bool          `json:"failed,omitempty"`
	Insts  int64         `json:"insts,omitempty"`
	Cycles int64         `json:"cycles,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps a run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced operations share the code.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a span that has started and not yet finished.
type openSpan struct {
	rec *recorder
	s   span
}

// start opens a span now; finish records it.
func (r *recorder) start(name string, parent int64, req string) *openSpan {
	if r == nil {
		return nil
	}
	return &openSpan{rec: r, s: span{ID: r.next.Add(1), Parent: parent, Name: name, Req: req, Start: time.Since(r.t0)}}
}

// add records a span whose start and end were observed elsewhere.
func (r *recorder) add(name string, parent int64, req string, start, end time.Time, failed bool) {
	if r == nil {
		return
	}
	s := span{ID: r.next.Add(1), Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.t0), End: end.Sub(r.t0), Failed: failed}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) finish(failed bool) {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.rec.t0)
	o.s.Failed = failed
	o.rec.mu.Lock()
	o.rec.spans = append(o.rec.spans, o.s)
	o.rec.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write saves every span as one JSON array.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanKey carries the recorder and the current span down a context, so
// the layer below (an executor, the HTTP transport) can parent its
// spans without the program in between knowing about tracing.
type spanKey struct{}

type spanRef struct {
	rec *recorder
	id  int64
}

func withSpan(ctx context.Context, rec *recorder, id int64) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{rec, id})
}

func spanFrom(ctx context.Context) (*recorder, int64) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref.rec, ref.id
}

// tracedExec is the dist boundary: a span per Execute call around
// dist.Local or dist.Remote, parented on the span in the context. The
// span's id is published two ways: down the context (the HTTP
// transport reads it) and by config key (the simulator's run function
// gets no context).
type tracedExec struct {
	inner   dist.Executor
	name    string
	parents *parentsByKey // nil when nothing below needs them
}

func (t *tracedExec) Execute(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	rec, parent := spanFrom(ctx)
	if rec == nil {
		return t.inner.Execute(ctx, cfg)
	}
	key := cfg.Key()
	sp := rec.start(t.name, parent, key)
	t.parents.set(key, sp.id())
	r, err := t.inner.Execute(withSpan(ctx, rec, sp.id()), cfg)
	sp.finish(err != nil)
	return r, err
}

func (t *tracedExec) Workers() int { return t.inner.Workers() }

// parentsByKey maps a config key to the dist span executing it.
type parentsByKey struct {
	mu sync.Mutex
	m  map[string]int64
}

func (p *parentsByKey) set(key string, id int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.m == nil {
		p.m = make(map[string]int64)
	}
	p.m[key] = id
	p.mu.Unlock()
}

func (p *parentsByKey) get(key string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m[key]
}

// tracedRun is the sim boundary: a span per simulation around the run
// function handed to dist.NewLocalFunc, carrying its modelled work.
func tracedRun(rec *recorder, parents *parentsByKey, run func(sim.Config) (*sim.Result, error)) func(sim.Config) (*sim.Result, error) {
	return func(cfg sim.Config) (*sim.Result, error) {
		key := cfg.Key()
		sp := rec.start("sim", parents.get(key), key)
		r, err := run(cfg)
		if r != nil {
			sp.s.Insts, sp.s.Cycles = r.Core.Committed, r.Cycles
		}
		sp.finish(err != nil)
		return r, err
	}
}

// spanHeader carries the client span's id on a traced request; the
// server middleware parents its handler span on it.
const spanHeader = "X-Perfbench-Span"

// spanTransport sets spanHeader on requests whose context carries a
// span, which is how dist.Remote's requests get matched to handler
// spans without the client code knowing.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if rec, id := spanFrom(r.Context()); rec != nil {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// traceHandler is the serve boundary: a span per traced request around
// serve.Server.Handler(), named for its route. Requests without
// spanHeader pass straight through.
func traceHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		sp := rec.start(routeSpan(r), parent, r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		sp.finish(sw.status >= 400)
	})
}

// routeSpan names a server span after the API route it serves.
func routeSpan(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == dist.SimsPath:
		return "serve.sims"
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "serve.submit"
	case strings.HasSuffix(p, "/events"):
		return "serve.events"
	case strings.HasSuffix(p, "/results"):
		return "serve.results"
	}
	return "serve.other"
}

// statusWriter records the response status and keeps streaming
// working: the SSE handler needs http.Flusher.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// phases turns the engine's progress callbacks into spans under one
// campaign root: prefetch from submission until the last simulation
// settles, one render span per experiment (the seconds it reports),
// and flush from the last render until the engine call returns. With
// a nil recorder it records nothing and ctx is a plain background
// context.
type phases struct {
	rec      *recorder
	root     *openSpan
	prefetch *openSpan
	failed   bool
	last     time.Time
	ctx      context.Context
}

func startPhases(rec *recorder, req string) *phases {
	p := &phases{rec: rec}
	p.root = rec.start("campaign", 0, req)
	p.prefetch = rec.start("exp.prefetch", p.root.id(), req)
	p.ctx = withSpan(context.Background(), rec, p.prefetch.id())
	return p
}

func (p *phases) progress() exp.Progress {
	if p.rec == nil {
		return exp.Progress{}
	}
	return exp.Progress{
		Sim: func(done, total int, key string, err error) {
			p.failed = p.failed || err != nil
			if done == total {
				p.endPrefetch()
			}
		},
		Experiment: func(done, total int, res exp.ExperimentResult) {
			p.endPrefetch()
			now := time.Now()
			p.rec.add("exp.render", p.root.id(), res.ID, now.Add(-time.Duration(res.Seconds*float64(time.Second))), now, res.Status != exp.StatusOK)
			p.last = now
		},
	}
}

func (p *phases) endPrefetch() {
	if p.prefetch != nil {
		p.prefetch.finish(p.failed)
		p.prefetch = nil
		p.last = time.Now()
	}
}

// returned closes the engine call: whatever followed the last render.
func (p *phases) returned() {
	if p.rec == nil {
		return
	}
	p.endPrefetch()
	p.rec.add("exp.flush", p.root.id(), "", p.last, time.Now(), false)
}

func (p *phases) finish(failed bool) { p.root.finish(failed) }

// Package serve exposes the experiment engine as an HTTP service —
// the first step of the north star of serving experiment traffic from
// many users. Submissions run through one shared exp.Runner (so the
// worker-pool bound holds across jobs) reading through one shared
// internal/cache store (so a config any previous job — or any previous
// process — simulated is never simulated again) and the Runner's
// bounded memory tier over it (so a warm repeat reads memory, not
// disk). Each job keeps the engine's fault-isolation semantics:
// partial failures report the offending config keys instead of
// suppressing the surviving tables. The Runner persists and counts
// every simulation it resolves, for jobs and /v1/sims alike.
//
// # HTTP API v1
//
//	POST /v1/sims                worker endpoint: execute one encoded
//	                             sim.Config through the shared Runner and
//	                             return the sim.EncodeResult bytes; a
//	                             coordinator fingerprint mismatch is 409,
//	                             a config sim.Config.Validate refuses 400,
//	                             a failed simulation 422. internal/dist's
//	                             Remote POSTs here for a StealPool, which
//	                             is what turns any expsd into a worker an
//	                             expsd coordinator (registered workers) or
//	                             exps -remote (listed workers) can
//	                             dispatch to.
//	POST /v1/jobs                submit {"experiments":[...],"scale":...,
//	                             "seed":...,"workers":...,"max_cycles":...};
//	                             202 with the job view, Location header
//	GET  /v1/jobs                list retained jobs, newest first
//	                             (submission order reversed — stable across
//	                             calls); ?status=queued|running|ok|failed
//	                             filters, preserving that order
//	GET  /v1/jobs/{id}           job status, incl. per-config errors
//	GET  /v1/jobs/{id}/results   finished result set; ?format=json (default)
//	                             or ?format=csv through the exps emitters —
//	                             CSV byte-identical to exps -csv for the
//	                             same configs, JSON identical modulo the
//	                             worker-count and wall-clock fields
//	GET  /v1/jobs/{id}/events    SSE progress: status, sim, experiment and
//	                             done events; full history replays on
//	                             (re)connect
//	POST /v1/workers             register {"url":...} as a live worker;
//	                             idempotent, so it doubles as the heartbeat
//	                             workers repeat to stay registered
//	GET  /v1/workers             the live registered-worker set
//	DELETE /v1/workers           deregister {"url":...} (graceful shutdown)
//	GET  /v1/metrics             process metrics from Config.Metrics;
//	                             Prometheus text format by default,
//	                             ?format=json for the stable JSON snapshot
//	GET  /v1/healthz             liveness + engine metadata (StatusView)
//	GET  /v1/fingerprint         same StatusView (historical spelling)
//	GET  /healthz                legacy alias for /v1/healthz
//
// Every non-2xx response is the v1 error envelope
// {"error":{"code":...,"message":...}} (see ErrorEnvelope and the Err*
// code constants); the 409 fingerprint mismatch additionally carries
// the worker's fingerprint at the top level.
//
// The job store is bounded: once MaxJobs jobs are retained, the oldest
// settled jobs are evicted to make room, and if every retained job is
// still in flight the submission is refused with 503 — backpressure
// instead of unbounded memory.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"mediasmt/internal/cache"
	"mediasmt/internal/cliflags"
	"mediasmt/internal/dist"
	"mediasmt/internal/exp"
	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// Config configures a Server.
type Config struct {
	// Runner executes every job; required. Its worker pool bounds
	// simulations in flight across all jobs and its cache (which may be
	// nil) is the shared read-through store.
	Runner *exp.Runner
	// MaxJobs bounds how many jobs the store retains (running jobs
	// included); 0 means DefaultMaxJobs.
	MaxJobs int
	// Metrics, when non-nil, is served on GET /v1/metrics and receives
	// the server's own instruments (job admissions, journal and SSE
	// stream gauge). The caller registers the runner, which
	// owns the simulation and cache counters, and the executor on the
	// same registry so one scrape covers the whole process. Nil
	// disables both — the endpoint then serves an empty snapshot and
	// every instrument is a no-op.
	Metrics *metrics.Registry
	// Journal, when non-nil, makes the job queue durable: every
	// submission is journalled until it settles, and New re-admits the
	// unsettled records — with their original ids, options and
	// priorities — so a restarted daemon picks up where it was killed.
	// Combined with the runner's cache, a recovered job re-executes
	// only the configs the dead process had not finished.
	Journal *Journal
	// Members, when non-nil, enables worker self-registration: POST
	// /v1/workers adds (or heartbeats) a worker URL, DELETE removes it,
	// GET lists the live set. The caller wires the same registry into
	// its dist.StealPool/HealthChecker so registration drives dispatch.
	Members *dist.Members
}

// DefaultMaxJobs bounds the job store when Config.MaxJobs is zero.
const DefaultMaxJobs = 64

// serveMetrics is the server's own instrument set. The struct always
// exists; with a nil registry every instrument is nil and no-ops.
type serveMetrics struct {
	jobsSubmitted *metrics.Counter
	jobsRejected  *metrics.Counter
	jobsRecovered *metrics.Counter
	journalErrs   *metrics.Counter
	sseSubs       *metrics.Gauge
}

// Server is the HTTP front-end over one shared experiment Runner.
type Server struct {
	runner   *exp.Runner
	maxJobs  int
	registry *metrics.Registry
	journal  *Journal
	members  *dist.Members
	met      serveMetrics

	baseCtx   context.Context
	cancelAll context.CancelFunc

	// simsExecuted counts simulations the worker endpoint (/v1/sims)
	// actually executed — cache hits excluded — so a coordinator's CI
	// can prove the worker, not the coordinator, did the work.
	simsExecuted atomic.Int64

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, oldest first; eviction scans it
	seq   int64
}

// New builds a server over cfg.Runner.
func New(cfg Config) *Server {
	if cfg.Runner == nil {
		panic("serve: Config.Runner is required")
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		runner:    cfg.Runner,
		maxJobs:   cfg.MaxJobs,
		registry:  cfg.Metrics,
		journal:   cfg.Journal,
		members:   cfg.Members,
		baseCtx:   ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*job),
	}
	if reg := cfg.Metrics; reg != nil {
		s.met = serveMetrics{
			jobsSubmitted: reg.Counter("mediasmt_jobs_submitted_total", "jobs admitted into the store"),
			jobsRejected:  reg.Counter("mediasmt_jobs_rejected_total", "submissions refused because the store was full of in-flight jobs"),
			jobsRecovered: reg.Counter("mediasmt_jobs_recovered_total", "journalled jobs re-admitted after a restart"),
			journalErrs:   reg.Counter("mediasmt_journal_errors_total", "job journal writes or removals that failed (durability degraded, service continues)"),
			sseSubs:       reg.Gauge("mediasmt_sse_subscribers", "SSE subscribers currently connected"),
		}
	}
	s.recoverJobs()
	return s
}

// recoverJobs re-admits the journal's unsettled jobs — the cure for
// restart amnesia. Each record restarts under its original id,
// options and priority, so clients polling /v1/jobs/{id} across the
// restart see the job finish rather than vanish; the runner's
// read-through cache makes the re-run execute only what the dead
// process had not already finished, converging on byte-identical
// results. The sequence high-water mark is restored first so new
// submissions never reuse a recovered id.
func (s *Server) recoverJobs() {
	if s.journal == nil {
		return
	}
	recs, maxSeq, err := s.journal.Load()
	if err != nil {
		s.met.journalErrs.Inc()
		return
	}
	s.seq = maxSeq
	for _, rec := range recs {
		ids, err := resolveExperimentIDs(rec.Experiments)
		opts := exp.Options{Scale: rec.Scale, Seed: rec.Seed, Workers: rec.Workers, MaxCycles: rec.MaxCycles}
		j := newJob(rec.ID, ids, opts, rec.Priority)
		if !rec.Created.IsZero() {
			j.created = rec.Created
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		j.cancel = cancel
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.met.jobsRecovered.Inc()
		if err != nil {
			// The experiment set changed across the restart (journalled
			// under a different binary): settle the job explained instead
			// of admitting ids the engine would reject less legibly.
			go func() { defer cancel(); j.finish(nil, err); s.settleJournal(j.id) }()
			continue
		}
		go s.runJob(ctx, j)
	}
}

// settleJournal removes a settled job's journal record; failures are
// advisory (the worst case is one re-run after the next restart, and
// the cache makes that re-run cheap) but counted.
func (s *Server) settleJournal(id string) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Settle(id); err != nil {
		s.met.journalErrs.Inc()
	}
}

// Close cancels every in-flight job (their simulations not yet started
// fail with the context error) — the daemon calls it on shutdown.
func (s *Server) Close() { s.cancelAll() }

// Handler returns the service's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+dist.SimsPath, s.handleSimExecute)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
	mux.HandleFunc("GET /v1/workers", s.handleWorkerList)
	mux.HandleFunc("DELETE /v1/workers", s.handleWorkerDeregister)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleStatusView)
	mux.HandleFunc("GET /v1/fingerprint", s.handleStatusView)
	mux.HandleFunc("GET /healthz", s.handleStatusView) // legacy alias
	return mux
}

// writeJSON emits v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // header already out; a broken client is its own problem
}

// handleSimExecute is the worker side of the distributed executor: it
// validates one simulation config, runs it through the shared Runner
// — so the worker's capacity bound holds across coordinators and jobs,
// and the worker's cache serves repeats without executing —
// and answers with the sim.EncodeResult bytes a dist.Remote decodes.
// A coordinator on a different simulator version gets 409 (its results
// must never mix with ours; its StealPool runs the config locally
// instead); a simulation that runs and fails gets 422 with the error,
// which the coordinator surfaces as that config's failure without
// running it again anywhere.
func (s *Server) handleSimExecute(w http.ResponseWriter, r *http.Request) {
	if got := r.Header.Get(dist.FingerprintHeader); got != "" && got != cache.Fingerprint() {
		writeJSON(w, http.StatusConflict, ErrorEnvelope{
			Error: ErrorBody{
				Code:    ErrFingerprintMismatch,
				Message: fmt.Sprintf("fingerprint mismatch: coordinator %q, worker %q", got, cache.Fingerprint()),
			},
			Fingerprint: cache.Fingerprint(),
		})
		return
	}
	cfg, err := decodeSimRequest(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		var reqErr *requestError
		if errors.As(err, &reqErr) {
			writeError(w, http.StatusBadRequest, ErrBadRequest, "%s", reqErr.msg)
			return
		}
		writeError(w, http.StatusInternalServerError, ErrInternal, "decode: %v", err)
		return
	}
	// A per-request suite keeps worker memory bounded however many
	// distinct configs coordinators send over the process lifetime;
	// cross-request dedup is the Runner's job: its bounded memory tier
	// answers a repeat without touching disk (coordinators already
	// singleflight their own duplicates before POSTing).
	suite, err := s.runner.NewSuite(exp.Options{})
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrInternal, "suite: %v", err)
		return
	}
	// A forwarded simulation terminates here: if this daemon has
	// workers of its own, its StealPool must execute locally rather
	// than forward again, or two daemons registered as each other's
	// workers would bounce one config between them forever.
	ctx := r.Context()
	if r.Header.Get(dist.ForwardedHeader) != "" {
		ctx = dist.NoForward(ctx)
	}
	// A fresh result is persisted and counted before this returns.
	res, runErr := suite.RunConfigContext(ctx, cfg)
	s.simsExecuted.Add(suite.Simulations())
	if runErr != nil {
		writeError(w, http.StatusUnprocessableEntity, ErrSimFailed, "%v", runErr)
		return
	}
	data, err := sim.EncodeResult(res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrInternal, "encode result: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleSubmit validates the submission, admits it into the bounded
// store and starts it on the shared runner.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ids, opts, prio, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		var reqErr *requestError
		if errors.As(err, &reqErr) {
			writeError(w, http.StatusBadRequest, ErrBadRequest, "%s", reqErr.msg)
			return
		}
		writeError(w, http.StatusInternalServerError, ErrInternal, "decode: %v", err)
		return
	}

	s.mu.Lock()
	if !s.evictLocked() {
		s.mu.Unlock()
		s.met.jobsRejected.Inc()
		writeError(w, http.StatusServiceUnavailable, ErrStoreFull,
			"job store full: %d jobs retained and all still in flight; retry later", s.maxJobs)
		return
	}
	s.seq++
	seq := s.seq
	j := newJob(fmt.Sprintf("job-%d", seq), ids, opts, prio)
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.met.jobsSubmitted.Inc()

	// Journal before starting: once the 202 is out, a crash must not
	// forget the job. A failed append degrades durability for this job
	// only — the submission still runs.
	if s.journal != nil {
		rec := JobRecord{
			ID: j.id, Seq: seq, Experiments: ids,
			Scale: opts.Scale, Seed: opts.Seed, Workers: opts.Workers, MaxCycles: opts.MaxCycles,
			Priority: prio, Created: j.created, Fingerprint: cache.Fingerprint(),
		}
		if err := s.journal.Append(rec); err != nil {
			s.met.journalErrs.Inc()
		}
	}

	go s.runJob(ctx, j)

	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.view())
}

// evictLocked makes room for one more job, dropping the oldest settled
// jobs first. It reports false when the store is full of jobs still in
// flight — running work is never cancelled to admit new work.
func (s *Server) evictLocked() bool {
	for len(s.jobs) >= s.maxJobs {
		evicted := false
		for i, id := range s.order {
			j := s.jobs[id]
			select {
			case <-j.finished:
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return false
		}
	}
	return true
}

// runJob executes one job on the shared runner, streaming progress
// into the job's event history.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer j.cancel()
	// The job's class rides the context into the executor: when the
	// runner sits on a dist.Priority, contended slots admit higher
	// classes first, FIFO within a class.
	ctx = dist.WithPriority(ctx, j.priority)
	j.setRunning()
	suite, err := s.runner.NewSuite(j.opts)
	if err != nil {
		// Unreachable through the decoder (it never sets Options.Cache),
		// but a misconfigured embedder still gets a settled, explained job.
		j.finish(nil, err)
		s.settleJournal(j.id)
		return
	}
	prog := exp.Progress{
		Sim: func(done, total int, key string, err error) {
			ev := map[string]any{"done": done, "total": total, "key": key}
			if err != nil {
				ev["error"] = err.Error()
			}
			j.publish("sim", ev)
		},
		Experiment: func(done, total int, res exp.ExperimentResult) {
			j.publish("experiment", map[string]any{
				"done": done, "total": total, "id": res.ID,
				"status": res.Status, "seconds": res.Seconds,
			})
		},
	}
	rs, err := suite.RunExperimentsContext(ctx, j.ids, prog)
	j.finish(rs, err)
	// Settled (every executed result is already in the cache): the
	// journal record has done its job and must go, or a restart would
	// re-admit finished work.
	s.settleJournal(j.id)
}

// lookup resolves the {id} path segment.
func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

// handleList serves the retained jobs newest first — the reverse of
// submission order, which is stable across calls (eviction removes
// entries but never reorders the survivors). ?status= narrows to one
// lifecycle state, preserving that ordering; an unknown status is a
// 400, not an empty list, so typos never masquerade as "no jobs".
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("status")
	switch filter {
	case "", JobQueued, JobRunning, JobOK, JobFailed:
	default:
		writeError(w, http.StatusBadRequest, ErrBadRequest,
			"unknown status %q (want %s, %s, %s or %s)", filter, JobQueued, JobRunning, JobOK, JobFailed)
		return
	}
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	views := make([]JobView, 0, len(jobs))
	for i := len(jobs) - 1; i >= 0; i-- { // newest first
		v := jobs[i].view()
		if filter != "" && v.Status != filter {
			continue
		}
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleResults serves the finished result set through the exact
// emitters exps uses: the CSV a client fetches is byte-identical to
// exps -csv for the same configs, and the JSON matches exps -json
// modulo its worker-count and wall-clock fields.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	status, rs := j.snapshot()
	if status == JobQueued || status == JobRunning {
		writeError(w, http.StatusConflict, ErrNotReady, "job %s is %s; results are not ready (watch /v1/jobs/%s/events)", j.id, status, j.id)
		return
	}
	if rs == nil {
		// Settled without a result set: the submission named only
		// unknown experiments — impossible past the decoder — or the
		// engine refused up front. The error explains it.
		writeError(w, http.StatusInternalServerError, ErrInternal, "job %s produced no result set: %s", j.id, j.view().Error)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = rs.WriteJSON(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_ = rs.WriteCSV(w)
	default:
		writeError(w, http.StatusBadRequest, ErrBadRequest, "unknown format %q (want json or csv)", format)
	}
}

// handleEvents streams the job's progress as server-sent events. It
// writes the job's history from its own position — all of it for a
// finished job, then returns — and waits on the job's wake channel for
// more until the job settles or the client disconnects. A slow client
// only falls behind: the history keeps every event for it.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, ErrInternal, "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	if j.follow(1) {
		s.met.sseSubs.Add(1)
		defer s.met.sseSubs.Add(-1)
		defer j.follow(-1)
	}
	for n := 0; ; {
		evs, wake := j.events(n)
		for _, ev := range evs {
			writeEvent(w, ev)
		}
		flusher.Flush()
		n += len(evs)
		if wake == nil {
			return // settled: the done event was the last one written
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent emits one SSE frame.
func writeEvent(w http.ResponseWriter, ev sseEvent) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
}

// handleMetrics serves Config.Metrics — Prometheus text exposition
// format by default, the stable JSON snapshot with ?format=json. A
// server built without a registry serves an empty snapshot rather
// than a 404, so scrapers need not know how the daemon was launched.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.registry.WritePrometheus(w)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		_ = s.registry.WriteJSON(w)
	default:
		writeError(w, http.StatusBadRequest, ErrBadRequest, "unknown format %q (want prometheus or json)", format)
	}
}

// WorkerRequest is the POST and DELETE /v1/workers body: one worker
// expsd base URL.
type WorkerRequest struct {
	URL string `json:"url"`
}

// WorkersView is the /v1/workers response: the live worker set,
// sorted, as dispatch sees it.
type WorkersView struct {
	Workers []string `json:"workers"`
	// Changed reports whether this request changed the set: false on a
	// heartbeat re-registration or a deregistration of an unknown URL.
	Changed bool `json:"changed,omitempty"`
}

// requireMembers gates the worker-registration routes on Config.Members.
func (s *Server) requireMembers(w http.ResponseWriter) bool {
	if s.members == nil {
		writeError(w, http.StatusNotFound, ErrNotFound,
			"worker registration is not enabled on this daemon")
		return false
	}
	return true
}

// decodeWorkerRequest parses and validates a registration body.
func decodeWorkerRequest(w http.ResponseWriter, r *http.Request) (string, bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var req WorkerRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, ErrBadRequest, "invalid JSON body: %v", err)
		return "", false
	}
	u, err := cliflags.WorkerURL("url", req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrBadRequest, "%v", err)
		return "", false
	}
	return u, true
}

// handleWorkerRegister adds a worker to the live set — or refreshes
// it, since registration doubles as the heartbeat workers repeat on
// -register-interval. Idempotent by design: re-registering after a
// health-check eviction brings a recovered worker back.
func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	if !s.requireMembers(w) {
		return
	}
	u, ok := decodeWorkerRequest(w, r)
	if !ok {
		return
	}
	changed := s.members.Add(u)
	writeJSON(w, http.StatusOK, WorkersView{Workers: s.members.Snapshot(), Changed: changed})
}

// handleWorkerDeregister removes a worker (graceful shutdown); an
// unknown URL is a no-op, not an error — the health checker may have
// evicted it first.
func (s *Server) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	if !s.requireMembers(w) {
		return
	}
	u, ok := decodeWorkerRequest(w, r)
	if !ok {
		return
	}
	changed := s.members.Remove(u)
	writeJSON(w, http.StatusOK, WorkersView{Workers: s.members.Snapshot(), Changed: changed})
}

func (s *Server) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	if !s.requireMembers(w) {
		return
	}
	writeJSON(w, http.StatusOK, WorkersView{Workers: s.members.Snapshot()})
}

// CacheStatsView is the status payload's process-lifetime cache
// bookkeeping (what exps' stderr summary prints per run): the
// Runner's CacheStats, equal to the mediasmt_cache_* counters.
type CacheStatsView struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Writes int64 `json:"writes"`
}

// StatusView is the shared payload of GET /v1/healthz, the legacy
// /healthz alias and GET /v1/fingerprint: liveness plus the engine
// metadata a client needs to know what it is talking to.
type StatusView struct {
	Status      string   `json:"status"` // always "ok" — a served response is a live server
	Fingerprint string   `json:"fingerprint"`
	Workers     int      `json:"workers"`
	Experiments []string `json:"experiments"`
	Cache       bool     `json:"cache"`
	CacheDir    string   `json:"cache_dir,omitempty"`
	// CacheStats is present only when Cache is true.
	CacheStats *CacheStatsView `json:"cache_stats,omitempty"`
	// SimsExecuted counts the worker endpoint's actual executions
	// (cache hits excluded): a coordinator smoke asserts this moves
	// on a cold run and stays put on a warm one.
	SimsExecuted int64 `json:"sims_executed"`
	// Jobs is how many jobs the bounded store currently retains.
	Jobs int `json:"jobs"`
	// Peers is the live registered-worker set (present only when
	// worker registration is enabled).
	Peers []string `json:"peers,omitempty"`
}

// statusView snapshots the server for the health/fingerprint routes.
func (s *Server) statusView() StatusView {
	s.mu.Lock()
	retained := len(s.jobs)
	s.mu.Unlock()
	v := StatusView{
		Status:       "ok",
		Fingerprint:  cache.Fingerprint(),
		Workers:      s.runner.Workers(),
		Experiments:  exp.IDs(),
		SimsExecuted: s.simsExecuted.Load(),
		Jobs:         retained,
	}
	if s.members != nil {
		v.Peers = s.members.Snapshot()
	}
	if st, ok := s.runner.CacheStats(); ok {
		v.Cache = true
		v.CacheDir = s.runner.Cache().Dir()
		v.CacheStats = &CacheStatsView{Hits: st.Hits, Misses: st.Misses, Writes: st.Writes}
	}
	return v
}

// handleStatusView answers the health and fingerprint routes with one
// shared StatusView payload.
func (s *Server) handleStatusView(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statusView())
}

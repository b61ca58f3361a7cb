package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"mediasmt/internal/cache"
	"mediasmt/internal/dist"
	"mediasmt/internal/exp"
	"mediasmt/internal/metrics"
	"mediasmt/internal/obs"
	"mediasmt/internal/serve"
	"mediasmt/internal/sim"
)

// warmSetups is how many times a warm run sets up its service (start,
// cold fill, warm-up); setup_s is their median.
const warmSetups = 3

// warmupOps is how many untimed warm operations end each set-up.
const warmupOps = 3

// service is a serve.Server wired the way cmd/expsd wires it — the
// executor stack Priority(StealPool(Members, Local)) with a health
// checker, the job journal next to the cache, one metrics registry —
// listening on loopback.
type service struct {
	url    string
	store  *cache.Cache
	reg    *metrics.Registry
	srv    *serve.Server
	steal  *dist.StealPool
	health *dist.HealthChecker
	http   *http.Server
	served chan error
}

// startService starts a service over an empty cache in dir. With a
// recorder, handler spans are recorded for requests that carry
// spanHeader.
func startService(dir string, rec *recorder) (*service, error) {
	store, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	journal, err := serve.OpenJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, err
	}
	reg := metrics.New()
	members := dist.NewMembers().Instrument(reg)
	local := dist.NewLocalFunc(runtime.GOMAXPROCS(0), obs.SimRunner(reg)).Instrument(reg)
	steal := dist.NewStealPool(members, local, dist.StealOptions{
		Remote:  dist.RemoteOptions{Metrics: reg},
		Metrics: reg,
	})
	prio := dist.NewPriority(steal).Instrument(reg)
	runner := exp.NewRunnerExecutor(prio, store).Instrument(reg)
	srv := serve.New(serve.Config{Runner: runner, Metrics: reg, Journal: journal, Members: members})
	handler := srv.Handler()
	if rec != nil {
		handler = traceHandler(rec, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		steal.Close()
		return nil, err
	}
	health := dist.NewHealthChecker(members, dist.HealthOptions{})
	health.Start()
	s := &service{url: "http://" + ln.Addr().String(), store: store, reg: reg, srv: srv, steal: steal,
		health: health, http: &http.Server{Handler: handler}, served: make(chan error, 1)}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the service in expsd's shutdown order and waits for the
// listener goroutine to return.
func (s *service) close() {
	s.health.Stop()
	s.srv.Close()
	s.steal.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a timeout here only leaves connections to the process exit
	<-s.served
}

// serviceCounts are the service counters that show a warm run
// simulated nothing: local pool executions and the engine's cache
// lookups.
type serviceCounts struct{ sims, hits, misses int64 }

func (s *service) counts() serviceCounts {
	var c serviceCounts
	for _, v := range s.reg.Snapshot().Counters {
		switch v.Name {
		case "mediasmt_pool_sims_total":
			c.sims = v.Value
		case "mediasmt_cache_hits_total":
			c.hits = v.Value
		case "mediasmt_cache_misses_total":
			c.misses = v.Value
		}
	}
	return c
}

// user is the warm-service caller: it submits the `all` job, follows
// its SSE stream until done, then fetches the CSV, over one long-lived
// HTTP client.
type user struct {
	base   string
	client *http.Client
	body   []byte
}

func newUser(base string, scale float64, seed uint64) (*user, error) {
	body, err := json.Marshal(serve.JobRequest{Experiments: []string{"all"}, Scale: &scale, Seed: &seed})
	if err != nil {
		return nil, err
	}
	return &user{base: base, client: &http.Client{}, body: body}, nil
}

// jobOutcome is what a user sees of one job.
type jobOutcome struct {
	view serve.JobView // the SSE done event
	csv  []byte
}

// job runs one job end to end. With a recorder, each HTTP call is a
// client span under root, and each experiment event becomes an
// exp.render span of the seconds it reports.
func (u *user) job(rec *recorder, root int64) (jobOutcome, error) {
	var out jobOutcome
	var sub serve.JobView
	err := u.call(rec, root, "client.submit", http.MethodPost, "/v1/jobs", u.body, http.StatusAccepted,
		func(r io.Reader) error { return json.NewDecoder(r).Decode(&sub) })
	if err != nil {
		return out, err
	}
	done := false
	err = u.call(rec, root, "client.events", http.MethodGet, "/v1/jobs/"+sub.ID+"/events", nil, http.StatusOK,
		func(r io.Reader) error {
			return readSSE(r, func(name string, data []byte) (bool, error) {
				switch name {
				case "experiment":
					var ev struct {
						ID      string  `json:"id"`
						Status  string  `json:"status"`
						Seconds float64 `json:"seconds"`
					}
					if err := json.Unmarshal(data, &ev); err != nil {
						return false, err
					}
					now := time.Now()
					rec.add("exp.render", root, ev.ID, now.Add(-time.Duration(ev.Seconds*float64(time.Second))), now, ev.Status != exp.StatusOK)
				case "done":
					done = true
					return true, json.Unmarshal(data, &out.view)
				}
				return false, nil
			})
		})
	if err == nil && !done {
		err = fmt.Errorf("event stream of %s ended without a done event", sub.ID)
	}
	if err != nil {
		return out, err
	}
	err = u.call(rec, root, "client.results", http.MethodGet, "/v1/jobs/"+sub.ID+"/results?format=csv", nil, http.StatusOK,
		func(r io.Reader) (err error) {
			out.csv, err = io.ReadAll(r)
			return err
		})
	return out, err
}

// call issues one request, as a span named name when rec is non-nil,
// and hands the body of a want-status answer to read.
func (u *user) call(rec *recorder, parent int64, name, method, path string, body []byte, want int, read func(io.Reader) error) error {
	sp := rec.start(name, parent, path)
	err := u.do(sp, method, path, body, want, read)
	sp.finish(err != nil)
	return err
}

func (u *user) do(sp *openSpan, method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, u.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if sp != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id(), 10))
	}
	resp, err := u.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, msg)
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	return err
}

// readSSE parses server-sent events, calling fn with each event's name
// and data until fn asks to stop or the stream ends.
func readSSE(r io.Reader, fn func(name string, data []byte) (stop bool, err error)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var name string
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if name == "" && data == nil {
				continue
			}
			stop, err := fn(name, data)
			if stop || err != nil {
				return err
			}
			name, data = "", nil
		case bytes.HasPrefix(line, []byte("event: ")):
			name = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append([]byte(nil), line[len("data: "):]...)
		}
	}
	return sc.Err()
}

// checkJob verifies one job against the set-up campaign: it settled ok
// from the cache alone, and its CSV is byte-identical.
func checkJob(o jobOutcome, configs int, wantSims int64, ref []byte) error {
	v := o.view
	var errs []error
	if v.Status != serve.JobOK || v.Failed != 0 || v.FailedSims != 0 {
		errs = append(errs, fmt.Errorf("job %s settled %s (%d experiments, %d simulations failed): %s",
			v.ID, v.Status, v.Failed, v.FailedSims, v.Error))
	}
	if v.Simulations != wantSims || v.CacheHits+v.CacheMisses != int64(configs) || v.CacheHits != int64(configs)-wantSims {
		errs = append(errs, fmt.Errorf("job %s simulated %d with %d cache hits / %d misses over %d configs; want %d simulations",
			v.ID, v.Simulations, v.CacheHits, v.CacheMisses, configs, wantSims))
	}
	if ref != nil {
		errs = append(errs, compareCSV(o.csv, ref))
	}
	return errors.Join(errs...)
}

// warmEnv is one warm set-up: a service whose cache holds the `all`
// campaign, the reference CSV every later campaign must reproduce byte
// for byte, and its two callers.
type warmEnv struct {
	svc   *service
	user  *user
	coord *coordinator
	cfgs  []sim.Config
	ref   []byte
}

// startWarm starts a service on an empty cache and fills it with one
// cold `all` job, whose CSV becomes the reference.
func startWarm(b *bench, i int) (*warmEnv, error) {
	opts := exp.Options{Scale: scale, Seed: deriveSeed(b.seed, 0), Workers: 1}
	exps := append([]exp.Experiment(nil), exp.Experiments...)
	cfgs := campaignConfigs(exps, opts)
	svc, err := startService(filepath.Join(b.dir, fmt.Sprintf("warm-%d", i)), b.rec)
	if err != nil {
		return nil, err
	}
	e := &warmEnv{svc: svc, cfgs: cfgs}
	e.user, err = newUser(svc.url, opts.Scale, opts.Seed)
	if err == nil {
		var fill jobOutcome
		if fill, err = e.user.job(nil, 0); err == nil {
			err = checkJob(fill, len(cfgs), int64(len(cfgs)), nil)
		}
		e.ref = fill.csv
	}
	if err == nil {
		e.coord, err = newCoordinator(svc.url, b.rec != nil, exps, opts, cfgs, e.ref)
	}
	if err != nil {
		svc.close()
		return nil, fmt.Errorf("cache fill: %w", err)
	}
	return e, nil
}

// setupWarm sets a service up warmSetups times — start, cold fill, then
// warmupOps untimed calls of warmup — and returns the last set-up with
// its cleanup.
func setupWarm(b *bench, warmup func(*warmEnv) error) (*warmEnv, func(), error) {
	var env *warmEnv
	n := 0
	cleanup, err := b.timeSetup(warmSetups, func() (func(), error) {
		n++
		e, err := startWarm(b, n)
		if err != nil {
			return nil, err
		}
		for i := 0; err == nil && i < warmupOps; i++ {
			err = warmup(e)
		}
		if err != nil {
			e.svc.close()
			return nil, err
		}
		env = e
		return e.svc.close, nil
	})
	return env, cleanup, err
}

// runWarmService times the user caller: `all` jobs over HTTP against a
// warm cache.
func runWarmService(b *bench) error {
	env, cleanup, err := setupWarm(b, func(e *warmEnv) error {
		o, err := e.user.job(nil, 0)
		if err == nil {
			err = checkJob(o, len(e.cfgs), 0, e.ref)
		}
		return err
	})
	if err != nil {
		return err
	}
	defer cleanup()

	pool := env.svc.counts().sims
	var latMs, overheadMs, events []float64
	var hits, lookups int64
	b.measure("job", func(rec *recorder) (time.Duration, error) {
		root := rec.start("campaign", 0, "job")
		t0 := time.Now()
		o, err := env.user.job(rec, root.id())
		d := time.Since(t0)
		root.finish(err != nil)
		if err == nil {
			err = checkJob(o, len(env.cfgs), 0, env.ref)
		}
		if n := env.svc.counts().sims; err == nil && n != pool {
			err = fmt.Errorf("the service executed %d simulations during a warm job", n-pool)
		}
		if err == nil {
			events = append(events, float64(o.view.Events))
			hits += o.view.CacheHits
			lookups += o.view.CacheHits + o.view.CacheMisses
			if rec == nil {
				latMs = append(latMs, d.Seconds()*1000)
				overheadMs = append(overheadMs, (d.Seconds()-o.view.WallSeconds)*1000)
			}
		}
		return d, err
	})
	if b.rec == nil {
		return nil
	}
	b.setPercentile("serve.job_ms_p90", latMs, 0.9)
	b.setPercentile("serve.overhead_ms_p50", overheadMs, 0.5)
	b.set("serve.sse_events_per_job", median(events))
	if lookups > 0 {
		b.set("cache.hit_ratio", float64(hits)/float64(lookups))
	}
	b.ops.record("cache probe", b.probeCache(env.svc.store, configKeys(env.cfgs)))
	return nil
}

// coordinator is the warm-remote caller: `exps -remote` in-process —
// an exp.Runner with no cache of its own over one long-lived
// dist.Remote with one request in flight.
type coordinator struct {
	runner *exp.Runner
	exps   []exp.Experiment
	opts   exp.Options
	cfgs   []sim.Config
	ref    []byte
	model  *modelled
	n      int
}

// newCoordinator builds the coordinator; a traced one wraps the Remote
// in a dist span and tags its requests with spanHeader.
func newCoordinator(url string, traced bool, exps []exp.Experiment, opts exp.Options, cfgs []sim.Config, ref []byte) (*coordinator, error) {
	client := &http.Client{}
	if traced {
		client.Transport = spanTransport{base: http.DefaultTransport}
	}
	remote, err := dist.NewRemote([]string{url}, dist.RemoteOptions{Client: client, Workers: 1})
	if err != nil {
		return nil, err
	}
	var exec dist.Executor = remote
	if traced {
		exec = &tracedExec{inner: remote, name: "dist.remote"}
	}
	return &coordinator{runner: exp.NewRunnerExecutor(exec, nil), exps: exps, opts: opts, cfgs: cfgs, ref: ref}, nil
}

// campaign runs one coordinator campaign — one POST /v1/sims per
// config, then rendering — checked against the reference CSV. It
// reports how many of its requests failed.
func (c *coordinator) campaign(rec *recorder) (time.Duration, int, error) {
	c.n++
	suite, err := c.runner.NewSuite(c.opts)
	if err != nil {
		return 0, 0, err
	}
	ph := startPhases(rec, fmt.Sprintf("campaign-%d", c.n))
	t0 := time.Now()
	rs, runErr := suite.RunExperimentListContext(ph.ctx, c.exps, ph.progress())
	ph.returned()
	var csv bytes.Buffer
	if rs != nil {
		runErr = errors.Join(runErr, rs.WriteCSV(&csv))
	}
	d := time.Since(t0)
	ph.finish(runErr != nil)
	if rs == nil {
		return d, len(c.cfgs), runErr
	}
	if runErr != nil {
		return d, rs.FailedSims, runErr
	}
	var errs []error
	if rs.Failed != 0 || len(rs.Sims) != len(c.cfgs) {
		errs = append(errs, fmt.Errorf("%d experiments failed, %d of %d configs resolved", rs.Failed, len(rs.Sims), len(c.cfgs)))
	}
	errs = append(errs, compareCSV(csv.Bytes(), c.ref), sameWork(suite, c.cfgs, &c.model))
	return d, rs.FailedSims, errors.Join(errs...)
}

// runWarmRemote times the coordinator caller against a warm service.
// Each campaign's /v1/sims requests count as operations of their own.
func runWarmRemote(b *bench) error {
	env, cleanup, err := setupWarm(b, func(e *warmEnv) error {
		_, _, err := e.coord.campaign(nil)
		return err
	})
	if err != nil {
		return err
	}
	defer cleanup()

	first := env.svc.counts()
	b.measure("campaign", func(rec *recorder) (time.Duration, error) {
		before := env.svc.counts()
		d, failed, err := env.coord.campaign(rec)
		b.ops.attempted += len(env.cfgs)
		b.ops.failed += failed
		after := env.svc.counts()
		hits, misses := after.hits-before.hits, after.misses-before.misses
		if err == nil && (after.sims != first.sims || misses != 0 || hits != int64(len(env.cfgs))) {
			err = fmt.Errorf("the service answered %d requests with %d cache hits, %d misses and %d simulations",
				len(env.cfgs), hits, misses, after.sims-first.sims)
		}
		return d, err
	})
	if env.coord.model != nil {
		b.setModelled(*env.coord.model)
	}
	if b.rec == nil {
		return nil
	}
	last := env.svc.counts()
	if hits, misses := last.hits-first.hits, last.misses-first.misses; hits+misses > 0 {
		b.set("cache.hit_ratio", float64(hits)/float64(hits+misses))
	}
	b.ops.record("cache probe", b.probeCache(env.svc.store, configKeys(env.cfgs)))
	return nil
}

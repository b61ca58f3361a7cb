package exp

import (
	"fmt"
	"sync/atomic"

	"mediasmt/internal/cache"
	"mediasmt/internal/dist"
	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// Runner owns the resources concurrent experiment runs share: the
// executor deciding where (and how concurrently) simulations run and
// the optional persistent result store. It is safe for concurrent use
// — the HTTP service (internal/serve) runs every job through one
// Runner, so the executor's capacity bound holds across jobs and every
// job reads through the same on-disk cache, while each job keeps its
// own singleflight map, simulation counter and cache statistics. The
// CLI path is the same code: NewSuite builds a private single-use
// Runner; a coordinator front-end (exps -remote, an expsd with
// registered workers) builds the Runner over a dist.StealPool instead.
type Runner struct {
	exec  dist.Executor // shared execution policy; Limit-derived per suite
	cache *cache.Cache  // shared persistent layer; nil runs uncached
	met   *runnerMetrics
}

// runnerMetrics aggregates engine activity across every suite the
// runner derives. The struct always exists; its instruments are nil
// (no-op) until Instrument attaches a registry, so suites update them
// unconditionally.
type runnerMetrics struct {
	sims        *metrics.Counter
	simFailures *metrics.Counter
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	cacheWrites *metrics.Counter
	cacheWrErrs *metrics.Counter
	suites      *metrics.Counter
	expOK       *metrics.Counter
	expFailed   *metrics.Counter
}

// Instrument attaches process-wide engine metrics — per-suite
// simulation, cache and experiment counters aggregated across every
// job this runner serves. Call once before the first NewSuite; a nil
// registry is a no-op. Returns the runner for chaining.
func (r *Runner) Instrument(reg *metrics.Registry) *Runner {
	if reg == nil {
		return r
	}
	*r.met = runnerMetrics{
		sims:        reg.Counter("mediasmt_sims_executed_total", "simulations executed successfully by the experiment engine"),
		simFailures: reg.Counter("mediasmt_sim_failures_total", "simulation executions that returned an error"),
		cacheHits:   reg.Counter("mediasmt_cache_hits_total", "result-cache hits across all suites"),
		cacheMisses: reg.Counter("mediasmt_cache_misses_total", "result-cache misses across all suites"),
		cacheWrites: reg.Counter("mediasmt_cache_writes_total", "result-cache writes across all suites"),
		cacheWrErrs: reg.Counter("mediasmt_cache_write_errors_total", "failed result-cache writes across all suites"),
		suites:      reg.Counter("mediasmt_suites_total", "suites derived from this runner"),
		expOK:       reg.Counter("mediasmt_experiments_total", "experiments finished, by status", metrics.L("status", "ok")),
		expFailed:   reg.Counter("mediasmt_experiments_total", "experiments finished, by status", metrics.L("status", "failed")),
	}
	return r
}

// NewRunner builds a runner executing locally with the given pool
// size (0 or negative means GOMAXPROCS) over store (nil disables
// persistence).
func NewRunner(workers int, store *cache.Cache) *Runner {
	return NewRunnerExecutor(dist.NewLocal(workers), store)
}

// NewRunnerExecutor builds a runner over an explicit executor —
// dist.NewLocal for in-process pools, dist.NewStealPool to shard
// across worker expsd processes with local failover.
func NewRunnerExecutor(exec dist.Executor, store *cache.Cache) *Runner {
	return &Runner{exec: exec, cache: store, met: &runnerMetrics{}}
}

// Workers reports the shared executor's concurrency bound.
func (r *Runner) Workers() int { return r.exec.Workers() }

// Cache reports the shared persistent store (nil when uncached).
func (r *Runner) Cache() *cache.Cache { return r.cache }

// NewSuite derives a job-scoped suite from the runner. The suite
// shares the runner's executor capacity and persistent store but
// keeps its own singleflight map, simulation counter and cache
// counters, so concurrent jobs never leak each other's records into
// their result sets. opts.Workers, when positive, caps this suite's
// share of the executor (clamped to its bound). opts.Cache must be
// nil or the runner's own store: a different store is rejected with
// an error instead of being silently dropped, so a suite can never
// split its reads and writes across two stores without anyone
// noticing.
func (r *Runner) NewSuite(opts Options) (*Suite, error) {
	if opts.Cache != nil && opts.Cache != r.cache {
		return nil, fmt.Errorf("exp: Options.Cache conflicts with the runner's store (the runner's always wins); build the Runner over that cache, or leave Options.Cache nil")
	}
	if opts.Scale <= 0 {
		opts.Scale = sim.DefaultScale
	}
	if opts.Seed == 0 {
		opts.Seed = sim.DefaultSeed
	}
	var counting *countingStore
	var store resultStore
	if r.cache != nil {
		counting = &countingStore{inner: r.cache, met: r.met}
		store = counting
	}
	exec := r.exec
	if lim, ok := exec.(dist.Limiter); ok {
		exec = lim.Limit(opts.Workers)
	}
	r.met.suites.Inc()
	return &Suite{opts: opts, store: counting, sched: newScheduler(exec, store, r.met)}, nil
}

// countingStore tracks one suite's hits/misses/writes (and failed
// writes) against a store shared with other suites, so per-job cache
// statistics stay exact even when jobs run concurrently against one
// cache.
type countingStore struct {
	inner                           resultStore
	met                             *runnerMetrics // shared process aggregates; never nil
	hits, misses, writes, writeErrs atomic.Int64
}

func (c *countingStore) Get(key string) (*sim.Result, bool) {
	r, ok := c.inner.Get(key)
	if ok {
		c.hits.Add(1)
		c.met.cacheHits.Inc()
	} else {
		c.misses.Add(1)
		c.met.cacheMisses.Inc()
	}
	return r, ok
}

func (c *countingStore) Put(key string, r *sim.Result) error {
	err := c.inner.Put(key, r)
	if err == nil {
		c.writes.Add(1)
		c.met.cacheWrites.Inc()
	} else {
		c.writeErrs.Add(1)
		c.met.cacheWrErrs.Inc()
	}
	return err
}

func (c *countingStore) stats() cache.Stats {
	return cache.Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Writes:      c.writes.Load(),
		WriteErrors: c.writeErrs.Load(),
	}
}

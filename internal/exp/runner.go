package exp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mediasmt/internal/cache"
	"mediasmt/internal/dist"
	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// Runner owns the resources concurrent experiment runs share: the
// executor deciding where (and how concurrently) simulations run, the
// optional persistent result store with a bounded in-memory tier over
// it, and a memo of Table 3's rendered text. It is safe for concurrent
// use — the HTTP service (internal/serve) runs every job and every
// /v1/sims request through one Runner, so the executor's capacity
// bound holds across jobs and a result any job read or wrote is served
// to the next from memory (disk only once the tier has evicted it),
// while each job keeps its own singleflight map, simulation counter
// and cache statistics (CacheStats sums the last over every job). Both
// memory stores live as long as the Runner.
// The CLI path is the same code: NewSuite builds a private single-use
// Runner; a coordinator front-end (exps -remote, an expsd with
// registered workers) builds the Runner over a dist.StealPool instead.
type Runner struct {
	exec   dist.Executor  // shared execution policy, used as is by every suite
	cache  *cache.Cache   // shared persistent layer; nil runs uncached
	tier   *tier          // bounded memory over cache; nil when cache is
	store  *countingStore // every suite's traffic to tier; nil when cache is
	table3 *memo[table3Key, string]
	met    *runnerMetrics
}

// Capacities of the Runner's memory stores. A sim.Result is 688 bytes
// before its slices and key, so a full result tier holds about 5 MB;
// one `all` campaign fills 83 slots and one Table 3 slot.
const (
	tierCapacity   = 4096
	table3Capacity = 16
)

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
		simFailures: reg.Counter("mediasmt_sim_failures_total", "simulation executions that returned an error or panicked"),
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
// dist.NewLocal for in-process pools, dist.NewStealPool to spread
// work across worker expsd processes with local failover.
func NewRunnerExecutor(exec dist.Executor, store *cache.Cache) *Runner {
	r := &Runner{exec: exec, cache: store, table3: newMemo[table3Key, string](table3Capacity), met: &runnerMetrics{}}
	if store != nil {
		r.tier = &tier{disk: store, mem: newMemo[string, *sim.Result](tierCapacity)}
		r.store = &countingStore{inner: r.tier, met: r.met}
	}
	return r
}

// Workers reports the shared executor's concurrency bound.
func (r *Runner) Workers() int { return r.exec.Workers() }

// Cache reports the shared persistent store (nil when uncached).
func (r *Runner) Cache() *cache.Cache { return r.cache }

// CacheStats snapshots the cache traffic of every suite the Runner
// derived, over its lifetime — the same events, counted in the same
// place, as the mediasmt_cache_* counters. A hit the memory tier
// answers is a hit. ok is false when the runner is uncached.
func (r *Runner) CacheStats() (st cache.Stats, ok bool) {
	if r.store == nil {
		return cache.Stats{}, false
	}
	return r.store.stats(), true
}

// NewSuite derives a job-scoped suite from the runner. The suite
// shares the runner's executor, store, memory tier and Table 3 memo
// but keeps its own singleflight map, simulation tally and cache
// counters, so concurrent jobs never leak each other's records into
// their result sets. opts.Workers, when positive, caps this suite's
// fan-out below the executor's bound: the suite schedules at most
// min(opts.Workers, executor Workers()) simulations at once.
// opts.Cache must be nil or the runner's own store: a different store
// is rejected with an error instead of being silently dropped, so a
// suite can never split its reads and writes across two stores
// without anyone noticing.
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
	if r.store != nil {
		counting = &countingStore{inner: r.store, met: &runnerMetrics{}} // r.store feeds the process counters
		store = counting
	}
	r.met.suites.Inc()
	return &Suite{opts: opts, store: counting, sched: newScheduler(r.exec, opts.Workers, store, r.met), table3: r.table3}, nil
}

// countingStore counts the hits, misses, writes and failed writes it
// passes to inner, also in met. Each suite counts its own traffic in
// one, layered over the Runner's, which sums every suite's: per-job
// statistics stay exact when jobs share one cache.
type countingStore struct {
	inner                           resultStore
	met                             *runnerMetrics // never nil; a suite's is the zero value, counting nothing
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

// tier is the Runner's bounded memory layer over its disk cache. Get
// reads memory, then disk, and remembers a disk hit; Put writes disk,
// then memory once the disk write succeeds, so memory never holds a
// result the disk refused. Entries outlive the suites that stored
// them, so no reader may mutate a *sim.Result it gets.
type tier struct {
	disk resultStore
	mem  *memo[string, *sim.Result]
}

func (t *tier) Get(key string) (*sim.Result, bool) {
	if r, ok := t.mem.get(key); ok {
		return r, true
	}
	r, ok := t.disk.Get(key)
	if ok {
		t.mem.put(key, r)
	}
	return r, ok
}

func (t *tier) Put(key string, r *sim.Result) error {
	if err := t.disk.Put(key, r); err != nil {
		return err
	}
	t.mem.put(key, r)
	return nil
}

// memo is a fixed-capacity map safe for concurrent use. Once full,
// each new key evicts the oldest one inserted, so it never holds more
// than its capacity however many distinct keys arrive.
type memo[K comparable, V any] struct {
	mu       sync.Mutex
	m        map[K]V
	order    []K // insertion order; order[next] is the oldest once full
	next     int
	capacity int
}

func newMemo[K comparable, V any](capacity int) *memo[K, V] {
	return &memo[K, V]{m: make(map[K]V), capacity: capacity}
}

func (c *memo[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

func (c *memo[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; !ok {
		if len(c.order) < c.capacity {
			c.order = append(c.order, k)
		} else {
			delete(c.m, c.order[c.next])
			c.order[c.next] = k
			c.next = (c.next + 1) % c.capacity
		}
	}
	c.m[k] = v
}

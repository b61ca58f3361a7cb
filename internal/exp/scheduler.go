package exp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"mediasmt/internal/dist"
	"mediasmt/internal/sim"
)

// resultStore is the persistence seam the scheduler layers under its
// in-memory singleflight map: the Runner's tier and the
// internal/cache.Cache under it satisfy it. Get must treat any
// unusable entry as a miss; Put errors are advisory.
type resultStore interface {
	Get(key string) (*sim.Result, bool)
	Put(key string, r *sim.Result) error
}

// scheduler executes simulations at most once per canonical config key
// (singleflight) through a dist.Executor — the pluggable "where does
// this run" policy: a local semaphore-bounded pool, remote expsd
// workers, or a pool over both. It is safe for concurrent use:
// experiments rendered in parallel, or a prefetch racing lazy Run
// calls, all collapse onto the same in-flight execution. run is the
// one place a config is resolved, so it does all of the engine's
// per-simulation bookkeeping in sequence: read the store, execute,
// persist a fresh result, count it. The executor may be shared with
// other schedulers through a Runner, bounding executions in flight
// across every job in the process; the singleflight map, fan-out cap,
// simulation tally and store wrapper stay per-scheduler.
type scheduler struct {
	exec  dist.Executor
	limit int            // fan-out cap below the executor's bound; <= 0 means none
	store resultStore    // optional persistent layer; nil disables it
	met   *runnerMetrics // shared process aggregates; never nil

	mu      sync.Mutex
	entries map[string]*schedEntry

	sims atomic.Int64 // in-process simulations (see run)
}

// schedEntry is one singleflight slot. done is closed once res/err are
// final; waiters block on it instead of re-running the simulation.
type schedEntry struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

func newScheduler(exec dist.Executor, limit int, store resultStore, met *runnerMetrics) *scheduler {
	if met == nil {
		met = &runnerMetrics{}
	}
	return &scheduler{
		exec:    exec,
		limit:   limit,
		store:   store,
		met:     met,
		entries: make(map[string]*schedEntry),
	}
}

// workers reports the fan-out bound for prefetch: the executor's
// concurrency, capped at limit when that is positive. It is read on
// every prefetch, because a StealPool's bound moves with membership.
func (s *scheduler) workers() int {
	n := s.exec.Workers()
	if s.limit > 0 && s.limit < n {
		return s.limit
	}
	return n
}

// run returns the cached result for cfg, executing the simulation if
// this is the first caller for its key. Concurrent callers with the
// same key share one execution and one result, which is persisted and
// counted before any of them wakes. Only successes stay cached: a
// failed (or panicked) entry is evicted before its waiters wake, so
// the error reaches everyone already joined on it while the next call
// for the same key retries fresh instead of replaying a poisoned entry
// — transient failures heal in-process. Cancelling ctx fails the call
// while it waits (for an in-flight duplicate or for executor
// capacity); an execution already started is not interrupted.
func (s *scheduler) run(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	key := cfg.Key()
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		select {
		case <-e.done:
			return e.res, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &schedEntry{done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()

	// The deferred close/release make a simulation panic (e.g. an
	// unsupported thread count reaching core.ConfigForThreads) surface
	// as this entry's error, counted like any failed execution, instead
	// of deadlocking waiters on done; the executor's own defers keep
	// its capacity from leaking.
	func() {
		defer func() {
			if p := recover(); p != nil {
				e.err = fmt.Errorf("simulation panicked: %v", p)
			}
			if e.err != nil {
				s.met.simFailures.Inc()
				s.mu.Lock()
				if s.entries[key] == e {
					delete(s.entries, key)
				}
				s.mu.Unlock()
			}
			close(e.done)
		}()
		// Read through the persistent layer before claiming executor
		// capacity: a disk hit costs no simulation and should not
		// queue behind ones that do.
		if s.store != nil {
			if r, ok := s.store.Get(key); ok {
				e.res = r
				return
			}
		}
		// dist.Local bumps ran if, and only if, the simulation runs
		// successfully in this process; however the executor is
		// wrapped, remote attempts never reach it.
		var ran atomic.Int64
		e.res, e.err = s.exec.Execute(dist.WithTally(ctx, &ran), cfg)
		if e.err != nil {
			return
		}
		if s.store != nil {
			_ = s.store.Put(key, e.res) // failures are counted as write errors
		}
		if ran.Load() > 0 {
			s.sims.Add(1)
			s.met.sims.Inc()
		}
	}()
	return e.res, e.err
}

// prefetch warms the cache for cfgs concurrently, bounded by the
// executor's capacity. Duplicate keys are dropped up front so no
// worker idles on an in-flight duplicate and progress counts unique
// simulations. Every unique config is simulated regardless of other
// configs' failures — configs are isolated failure domains, so one bad
// simulation never suppresses the rest of the set — but a cancelled
// ctx fails every config not yet started with the context error.
// onDone, if non-nil, is called after each unique config settles
// (cache hits, failures and cancellations included) with the number
// settled so far and that config's error; calls are serialized and
// progress always reaches total. The returned map carries one entry
// per failed canonical key; it is nil when every config resolved.
func (s *scheduler) prefetch(ctx context.Context, cfgs []sim.Config, onDone func(done, total int, key string, err error)) map[string]error {
	seen := make(map[string]bool, len(cfgs))
	unique := cfgs[:0:0]
	for _, cfg := range cfgs {
		if k := cfg.Key(); !seen[k] {
			seen[k] = true
			unique = append(unique, cfg)
		}
	}
	cfgs = unique
	if len(cfgs) == 0 {
		return nil
	}
	var (
		wg       sync.WaitGroup
		progMu   sync.Mutex
		finished int
		errs     map[string]error
	)
	workers := s.workers()
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	feed := make(chan sim.Config)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cfg := range feed {
				var err error
				// A cancelled prefetch drains the feed without even
				// probing the store, so the error map (and onDone)
				// still covers every config.
				if err = ctx.Err(); err == nil {
					_, err = s.run(ctx, cfg)
				}
				progMu.Lock()
				finished++
				if err != nil {
					if errs == nil {
						errs = make(map[string]error)
					}
					errs[cfg.Key()] = err
				}
				if onDone != nil {
					onDone(finished, len(cfgs), cfg.Key(), err)
				}
				progMu.Unlock()
			}
		}()
	}
	for _, cfg := range cfgs {
		feed <- cfg
	}
	close(feed)
	wg.Wait()
	return errs
}

// simulations reports how many simulations executed successfully in
// this process (cache hits, failed runs and remote executions
// excluded).
func (s *scheduler) simulations() int64 { return s.sims.Load() }

// completed snapshots every finished, successful simulation by key.
func (s *scheduler) completed() map[string]*sim.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*sim.Result, len(s.entries))
	for k, e := range s.entries {
		select {
		case <-e.done:
			if e.err == nil && e.res != nil {
				out[k] = e.res
			}
		default:
		}
	}
	return out
}

// keys returns the canonical keys of every in-flight or successfully
// settled entry (failed entries are evicted to stay retryable).
func (s *scheduler) keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	return out
}

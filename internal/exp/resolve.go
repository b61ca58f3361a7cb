package exp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"mediasmt/internal/dist"
	"mediasmt/internal/sim"
)

// entry is one singleflight slot. done is closed once res/err are
// final; waiters block on it instead of re-running the simulation.
type entry struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// run resolves cfg: it returns the result from the suite's memory,
// from the Runner's store, or by executing the simulation, and it is
// the one place the engine does so. Concurrent callers with the same
// key share one resolution and one result, which is persisted and
// counted before any of them wakes. Only successes stay in memory: a
// failed (or panicked) entry is evicted before its waiters wake, so
// the error reaches everyone already joined on it while the next call
// for the same key retries fresh instead of replaying a poisoned entry
// — transient failures heal in-process. Cancelling ctx fails the call
// while it waits (for an in-flight duplicate or for executor
// capacity); an execution already started is not interrupted.
func (s *Suite) run(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
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
	e := &entry{done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()

	// The deferred close/release make a simulation panic (e.g. an
	// unsupported thread count reaching core.ConfigForThreads) surface
	// as this entry's error, counted like any failed execution, instead
	// of deadlocking waiters on done; the executor's own defers keep
	// its capacity from leaking.
	store := s.runner.tier
	func() {
		defer func() {
			if p := recover(); p != nil {
				e.err = fmt.Errorf("simulation panicked: %v", p)
			}
			if e.err != nil {
				s.runner.met.simFailures.Inc()
				s.mu.Lock()
				if s.entries[key] == e {
					delete(s.entries, key)
				}
				s.mu.Unlock()
			}
			close(e.done)
		}()
		// Read through the store before claiming executor capacity: a
		// disk hit costs no simulation and should not queue behind ones
		// that do.
		if store != nil {
			if r, ok := store.Get(key); ok {
				s.count(cacheHit)
				e.res = r
				return
			}
			s.count(cacheMiss)
		}
		// dist.Local bumps ran if, and only if, the simulation runs
		// successfully in this process; however the executor is
		// wrapped, remote attempts never reach it.
		var ran atomic.Int64
		e.res, e.err = s.runner.exec.Execute(dist.WithTally(ctx, &ran), cfg)
		if e.err != nil {
			return
		}
		if store != nil {
			if store.Put(key, e.res) == nil {
				s.count(cacheWrite)
			} else {
				s.count(cacheWriteErr)
			}
		}
		if ran.Load() > 0 {
			s.sims.Add(1)
			s.runner.met.sims.Inc()
		}
	}()
	return e.res, e.err
}

// count adds one cache event to the suite's tally, the Runner's tally
// and the matching mediasmt_cache_* counter.
func (s *Suite) count(ev cacheEvent) {
	s.tally[ev].Add(1)
	s.runner.tally[ev].Add(1)
	s.runner.met.cache[ev].Inc()
}

// prefetch resolves cfgs concurrently, bounded by the suite's Workers.
// Duplicate keys are dropped up front so no worker idles on an
// in-flight duplicate and progress counts unique simulations. Every
// unique config is resolved regardless of other configs' failures —
// configs are isolated failure domains, so one bad simulation never
// suppresses the rest of the set — but a cancelled ctx fails every
// config not yet started with the context error. onDone, if non-nil,
// is called after each unique config settles (cache hits, failures and
// cancellations included) with the number settled so far and that
// config's error; calls are serialized and progress always reaches
// total. The returned map carries one entry per failed canonical key;
// it is nil when every config resolved.
func (s *Suite) prefetch(ctx context.Context, cfgs []sim.Config, onDone func(done, total int, key string, err error)) map[string]error {
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
	workers := s.Workers()
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

// completed snapshots every finished, successful simulation by key.
func (s *Suite) completed() map[string]*sim.Result {
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

package dist

import (
	"context"
	"runtime"
	"sync/atomic"

	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// Local executes simulations in this process through a semaphore-
// bounded worker pool — the policy the experiment engine inlined
// before the executor seam existed. The pool slots may be shared by
// many views (see Limit), bounding simulations in flight across every
// job in the process, while each view counts its own executions.
type Local struct {
	sem   chan struct{} // execution slots, shared across Limit views
	limit int           // this view's concurrency cap (<= cap(sem))
	run   func(sim.Config) (*sim.Result, error)
	sims  atomic.Int64 // successful executions through this view

	// Process-wide instruments, shared across Limit views so pool
	// saturation aggregates over every job; nil (no-op) when the pool
	// is uninstrumented.
	simsC     *metrics.Counter
	failC     *metrics.Counter
	inflightG *metrics.Gauge
}

// NewLocal builds a local executor with the given pool size (0 or
// negative means GOMAXPROCS).
func NewLocal(workers int) *Local { return NewLocalFunc(workers, sim.Run) }

// NewLocalFunc is NewLocal with an injectable run function; tests and
// benchmarks use it to model failures or measure dispatch overhead
// without paying for real simulations.
func NewLocalFunc(workers int, run func(sim.Config) (*sim.Result, error)) *Local {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Local{sem: make(chan struct{}, workers), limit: workers, run: run}
}

// Instrument attaches process-wide pool metrics: executed/failed
// simulation counters, an in-flight gauge (pool saturation when read
// against the pool-size gauge). Views derived with Limit — before or
// after this call — share the instruments. A nil registry is a no-op.
// Call once, before the pool starts executing.
func (l *Local) Instrument(reg *metrics.Registry) *Local {
	if reg == nil {
		return l
	}
	l.simsC = reg.Counter("mediasmt_pool_sims_total", "simulations executed by the local pool")
	l.failC = reg.Counter("mediasmt_pool_sim_failures_total", "local pool simulations that returned an error or panicked")
	l.inflightG = reg.Gauge("mediasmt_pool_inflight", "simulations currently executing in the local pool")
	reg.Gauge("mediasmt_pool_size", "local pool execution slots").Set(int64(cap(l.sem)))
	return l
}

// Execute claims a pool slot (honouring ctx while waiting) and runs
// cfg to completion. The slot is released and the failure counted even
// if the simulation panics, so a poisoned config can never leak pool
// capacity; the panic itself propagates to the caller's recovery.
func (l *Local) Execute(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	select {
	case l.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	l.inflightG.Add(1)
	ok := false
	defer func() {
		if !ok {
			l.failC.Inc()
		}
		<-l.sem
		l.inflightG.Add(-1)
	}()
	r, err := l.run(cfg)
	ok = err == nil
	if ok {
		l.sims.Add(1)
		l.simsC.Inc()
	}
	return r, err
}

// Workers reports this view's concurrency cap.
func (l *Local) Workers() int { return l.limit }

// Simulations reports how many simulations this view executed
// successfully.
func (l *Local) Simulations() int64 { return l.sims.Load() }

// Limit derives a view sharing the pool slots and run function but
// capped at n concurrent executions (n <= 0 or above the pool size
// means the full pool) with its own simulation counter.
func (l *Local) Limit(n int) Executor { return l.limited(n) }

func (l *Local) limited(n int) *Local {
	if n <= 0 || n > cap(l.sem) {
		n = cap(l.sem)
	}
	return &Local{
		sem: l.sem, limit: n, run: l.run,
		simsC: l.simsC, failC: l.failC, inflightG: l.inflightG,
	}
}

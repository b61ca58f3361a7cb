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
// before the executor seam existed. One Local serves every job in the
// process, bounding simulations in flight across all of them, and it
// is where in-process simulations are counted: each successful run
// adds to the caller's WithTally tally.
type Local struct {
	sem chan struct{} // execution slots
	run func(sim.Config) (*sim.Result, error)

	// Process-wide instruments; nil (no-op) when the pool is
	// uninstrumented.
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
	return &Local{sem: make(chan struct{}, workers), run: run}
}

// Instrument attaches process-wide pool metrics: executed/failed
// simulation counters, an in-flight gauge (pool saturation when read
// against the pool-size gauge). A nil registry is a no-op. Call once,
// before the pool starts executing.
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
// cfg to completion, adding a success to ctx's tally (see WithTally).
// The slot is released and the failure counted even if the simulation
// panics, so a poisoned config can never leak pool capacity; the panic
// itself propagates to the caller's recovery.
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
		if n, _ := ctx.Value(tallyKey{}).(*atomic.Int64); n != nil {
			n.Add(1)
		}
		l.simsC.Inc()
	}
	return r, err
}

// Workers reports the pool size.
func (l *Local) Workers() int { return cap(l.sem) }

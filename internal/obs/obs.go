// Package obs feeds each finished simulation's exact counts into the
// process metrics registry (internal/metrics). It produces a run
// function that drops into the dist.Executor seam via
// dist.NewLocalFunc, so the front-ends turn observability on by
// swapping one constructor argument — and off by passing a nil
// registry, which makes SimRunner plain sim.Run.
//
// The counters advance when a run finishes, by the totals its
// sim.Result carries, so the registry equals the sum over the
// process's successful Results. A failed run adds only to the failure
// counter and the seconds histogram.
package obs

import (
	"time"

	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// resultCounter is a registry counter that advances by one total read
// from each successful Result.
type resultCounter struct {
	counter *metrics.Counter
	total   func(*sim.Result) int64
}

func resultCounters(reg *metrics.Registry) []resultCounter {
	stall := func(class string) *metrics.Counter {
		return reg.Counter("mediasmt_dispatch_stalls_total",
			"dispatch stalls across all runs, by cause", metrics.L("class", class))
	}
	memEvent := func(event string) *metrics.Counter {
		return reg.Counter("mediasmt_mem_events_total",
			"memory-system events across all runs, by type", metrics.L("event", event))
	}
	return []resultCounter{
		{reg.Counter("mediasmt_sim_cycles_total", "simulated cycles across all runs"), func(r *sim.Result) int64 { return r.Cycles }},
		{reg.Counter("mediasmt_sim_insts_total", "committed instructions across all runs"), func(r *sim.Result) int64 { return r.Core.Committed }},
		{stall("rob"), func(r *sim.Result) int64 { return r.Core.ROBStalls }},
		{stall("rename"), func(r *sim.Result) int64 { return r.Core.RenameStalls }},
		{stall("queue"), func(r *sim.Result) int64 { return r.Core.QueueStalls }},
		{memEvent("l1_hit"), func(r *sim.Result) int64 { return r.Mem.L1Hits }},
		{memEvent("l1_miss"), func(r *sim.Result) int64 { return r.Mem.L1Misses }},
		{memEvent("l2_hit"), func(r *sim.Result) int64 { return r.Mem.L2Hits }},
		{memEvent("l2_miss"), func(r *sim.Result) int64 { return r.Mem.L2Misses }},
		{memEvent("dram_read"), func(r *sim.Result) int64 { return r.Mem.DRAMReads }},
		{memEvent("dram_write"), func(r *sim.Result) int64 { return r.Mem.DRAMWrites }},
	}
}

// SimRunner returns a run function for dist.NewLocalFunc that executes
// simulations through sim.Run and adds each successful Result's totals
// to reg. With a nil registry it returns sim.Run itself. Results are
// the same either way: the counters only read the finished Result.
func SimRunner(reg *metrics.Registry) func(sim.Config) (*sim.Result, error) {
	if reg == nil {
		return sim.Run
	}
	runs := reg.Counter("mediasmt_sim_runs_total", "simulations executed in this process")
	failures := reg.Counter("mediasmt_sim_run_failures_total", "simulations that returned an error or panicked")
	seconds := reg.Histogram("mediasmt_sim_run_seconds", "wall time of one simulation", nil)
	totals := resultCounters(reg)
	return func(cfg sim.Config) (*sim.Result, error) {
		// The deferred block also runs when the simulation panics, so
		// a panicked run is timed and counted as a failure before the
		// panic reaches the caller's recovery.
		start := time.Now()
		ok := false
		defer func() {
			seconds.Observe(time.Since(start).Seconds())
			if !ok {
				failures.Inc()
			}
		}()
		r, err := sim.Run(cfg)
		ok = err == nil
		if ok {
			runs.Inc()
			for _, t := range totals {
				t.counter.Add(t.total(r))
			}
		}
		return r, err
	}
}

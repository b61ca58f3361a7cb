// Package dist makes "where a simulation runs" a pluggable policy.
// The experiment engine (internal/exp) schedules simulations through
// the Executor interface instead of calling sim.Run directly, so the
// same scheduler — singleflight dedup, read-through cache, failure
// isolation — drives a local worker pool (Local), one remote expsd
// worker (Remote), a work-stealing pool over a registry of workers
// with local failover (StealPool over Members), or any of those under
// a priority admission gate (Priority).
//
// Every front end that distributes runs the same StealPool: expsd
// fills its Members as workers self-register (POST /v1/workers), with
// a HealthChecker evicting peers that stop answering so dead workers
// stop receiving shards; exps -remote fills its Members once from the
// flag. StealPool shards work across the members by config key to
// keep each worker's cache hot, lets an idle worker steal from the
// longest backlog, speculatively re-executes stragglers on a second
// worker once they outlive an adaptive latency threshold — first
// result wins, which is safe because simulations are deterministic
// and cache-keyed — and runs a config locally when its worker fails.
// Priority admits contended work highest class first (WithPriority on
// the context, FIFO within a class) and re-reads the inner executor's
// capacity on every release, so workers registering mid-queue admit
// waiting jobs without new traffic.
//
// The split mirrors the paper's own argument one level up: DLP inside
// a core, TLP across hardware contexts, and now process-level
// parallelism across machines — the dispatch fabric (the scheduler)
// is cleanly separated from the compute kernels (the executors), so
// scaling out never touches the engine's semantics.
//
// Executors also implement two optional interfaces the engine uses
// when present: Counter reports how many simulations ran in this
// process (remote executions count on the worker that ran them, never
// on the coordinator that asked), and Limiter derives per-caller
// views that share the underlying resources — pool slots, HTTP
// clients — while keeping their own counters, so concurrent jobs over
// one shared executor still report exact per-job statistics.
package dist

import (
	"context"
	"hash/fnv"
	"sync/atomic"

	"mediasmt/internal/sim"
)

// Executor runs one simulation somewhere — in this process, on a
// remote worker, or wherever a policy decides — and reports the
// concurrency it can sustain.
type Executor interface {
	// Execute runs cfg to completion and returns its result. A
	// cancelled ctx fails the call while it waits for capacity; an
	// execution already started runs to completion (sim.Run is not
	// interruptible). Execute must be safe for concurrent use.
	Execute(ctx context.Context, cfg sim.Config) (*sim.Result, error)
	// Workers reports how many Execute calls usefully run
	// concurrently; the engine sizes its fan-out from it.
	Workers() int
}

// Counter is the optional introspection executors implement to report
// how many simulations they executed successfully in this process.
// The engine's "simulations" bookkeeping reads it, which is what lets
// a coordinator honestly report 0 local simulations when its peers do
// all the work.
type Counter interface {
	Simulations() int64
}

// Limiter is the optional derivation executors implement so one
// shared executor can serve many concurrent callers with exact
// per-caller counters: Limit returns a view capped at n concurrent
// executions (n <= 0 or above the executor's bound means the full
// bound) sharing the underlying resources but counting its own
// simulations.
type Limiter interface {
	Limit(n int) Executor
}

// Func adapts a plain function into an Executor bounded at workers
// concurrent calls (the bound is advertised, not enforced — the
// engine's fan-out respects Workers). Tests use it to model transient
// failures and instrumented executors.
func Func(workers int, fn func(context.Context, sim.Config) (*sim.Result, error)) Executor {
	if workers <= 0 {
		workers = 1
	}
	return &funcExecutor{workers: workers, fn: fn}
}

type funcExecutor struct {
	workers int
	fn      func(context.Context, sim.Config) (*sim.Result, error)
	sims    atomic.Int64
}

func (f *funcExecutor) Execute(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	r, err := f.fn(ctx, cfg)
	if err == nil {
		f.sims.Add(1)
	}
	return r, err
}

func (f *funcExecutor) Workers() int       { return f.workers }
func (f *funcExecutor) Simulations() int64 { return f.sims.Load() }

// noForwardKey marks a context whose simulation must not leave this
// process again.
type noForwardKey struct{}

// NoForward returns a context under which StealPool executes locally
// and Remote refuses, instead of forwarding to a peer. The worker
// endpoint (internal/serve) applies it to requests carrying
// ForwardedHeader — a simulation crosses at most one coordinator →
// worker hop, so daemons registered as each other's workers serve
// each other's forwards locally rather than bouncing them back and
// forth.
func NoForward(ctx context.Context) context.Context {
	return context.WithValue(ctx, noForwardKey{}, true)
}

func forwardingDisabled(ctx context.Context) bool {
	v, _ := ctx.Value(noForwardKey{}).(bool)
	return v
}

// hashKey maps a canonical config key onto a stable shard index
// domain. FNV-1a is enough: keys are long and distinct, and the only
// requirement is that every coordinator sends the same key to the
// same peer so worker-side singleflight and caches stay hot.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

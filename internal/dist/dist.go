// Package dist makes "where a simulation runs" a pluggable policy.
// The experiment engine (internal/exp) schedules simulations through
// the Executor interface instead of calling sim.Run directly, so the
// same resolver (exp.Suite) — singleflight dedup, read-through cache,
// failure isolation — drives a local worker pool (Local), one remote
// expsd worker (Remote), a pool over a registry of workers with local
// failover (StealPool over Members), or any of those under a priority
// admission gate (Priority).
//
// Every front end that distributes runs the same StealPool over a
// Members registry with a HealthChecker evicting peers that stop
// answering: expsd fills the registry as workers self-register
// (POST /v1/workers), exps -remote fills it once from the flag. The
// registry keeps one record per worker, and the pool and the checker
// read and update those records in place. StealPool has one dispatch
// rule: each config goes to the live worker with the fewest of the
// pool's requests in flight, its config-key hash home winning ties,
// and runs locally when that worker fails or leaves. The pool queues nothing; work waits where its caller bounds
// it. Priority is that bound in expsd: it admits contended work
// highest class first (WithPriority on the context, FIFO within a
// class) and re-reads the inner executor's capacity on every release,
// so workers registering mid-queue admit waiting jobs without new
// traffic.
//
// The split mirrors the paper's own argument one level up: DLP inside
// a core, TLP across hardware contexts, and now process-level
// parallelism across machines — the dispatch fabric (the engine's
// resolver) is cleanly separated from the compute kernels (the executors), so
// scaling out never touches the engine's semantics.
//
// Executors keep no per-caller state. Local is the one place a
// simulation runs in this process, so Local.Execute adds each
// successful run to the tally its caller attached with WithTally. The
// engine attaches one per call and counts the run when Local marks
// it, so concurrent jobs over one shared executor stack count exactly
// their own runs however the stack is wrapped. Remote executions count
// on the worker that ran them, never on the coordinator that asked.
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
	// interruptible). Execute must be safe for concurrent use, and a
	// wrapper passes ctx on so a tally attached with WithTally reaches
	// the Local underneath.
	Execute(ctx context.Context, cfg sim.Config) (*sim.Result, error)
	// Workers reports how many Execute calls usefully run
	// concurrently; the engine sizes its fan-out from it, capped by
	// the suite's own worker option.
	Workers() int
}

// tallyKey marks a context whose in-process simulations are counted.
type tallyKey struct{}

// WithTally returns a context under which Local adds each simulation
// it runs successfully to n. Work a StealPool sends to a peer never
// reaches Local, so n counts exactly the caller's simulations in this
// process: failover, NoForward and peerless runs included.
func WithTally(ctx context.Context, n *atomic.Int64) context.Context {
	return context.WithValue(ctx, tallyKey{}, n)
}

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

// hashKey maps a canonical config key onto a StealPool's home-member
// index domain. FNV-1a is enough: keys are long and distinct, and the
// only requirement is that every coordinator breaks ties toward the
// same peer for the same key, so worker-side caches stay hot.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

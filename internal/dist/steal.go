package dist

import (
	"context"
	"sync/atomic"

	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// StealOptions tunes a StealPool. The zero value is usable.
type StealOptions struct {
	// Remote configures the Remote built for each member (timeout,
	// client, metrics).
	Remote RemoteOptions
	// Metrics, when non-nil, receives the local-failover counter (the
	// per-peer Remote instruments go through Remote.Metrics, which
	// callers set separately).
	Metrics *metrics.Registry
}

// StealPool dispatches each simulation to the live member of a dynamic
// registry with the fewest of the pool's requests in flight — the
// paper's ICOUNT rule one level up — and the config's key-hash home
// wins ties, so an idle fleet keeps each worker's cache hot on its
// share. The pool queues nothing: work waits where its caller bounds
// it (the engine's fan-out, a Priority gate) and on the worker. A
// member that leaves cancels its in-flight requests, and those, like
// any request that fails for peer reasons, run locally instead. With
// no live member the pool is a plain local pool, so a coordinator is
// usable before its first worker registers. Only those local runs
// reach Local, so only they count in the caller's WithTally tally;
// remote runs count on their worker.
type StealPool struct {
	members   *Members
	local     *Local
	ropts     RemoteOptions
	failoverC *metrics.Counter // no-op when uninstrumented
	closed    atomic.Bool
}

// NewStealPool builds the pool over members, whose worker records it
// reads and updates on every dispatch, so a registry serves one pool.
// Workers registering grow the pool; leaving workers' requests fail
// over to local (nil means a GOMAXPROCS-sized one).
func NewStealPool(members *Members, local *Local, o StealOptions) *StealPool {
	if local == nil {
		local = NewLocal(0)
	}
	p := &StealPool{members: members, local: local, ropts: o.Remote}
	if o.Metrics != nil {
		p.failoverC = o.Metrics.Counter("mediasmt_steal_failovers_total",
			"simulations executed locally after their remote attempt failed")
	}
	return p
}

// pick claims a request slot on the live member with the fewest
// requests in flight, cfg's key-hash home winning ties, and builds the
// member's Remote on its first request. It returns nil when the pool
// is closed or has no live member.
func (p *StealPool) pick(cfg sim.Config) *worker {
	if p.closed.Load() {
		return nil
	}
	m := p.members
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.workers) == 0 {
		return nil
	}
	best := m.workers[int(hashKey(cfg.Key())%uint64(len(m.workers)))]
	for _, w := range m.workers {
		if w.inflight < best.inflight {
			best = w
		}
	}
	if best.remote == nil {
		best.remote = newRemote(best.url, p.ropts)
	}
	best.inflight++
	return best
}

// Execute sends cfg to the member pick chooses and runs it locally
// instead when the request already crossed its forwarding hop, no
// member is live, or the remote attempt fails for peer reasons while
// the caller still wants the result. A simulation that ran and failed
// on the worker is returned as is: it would only fail again.
func (p *StealPool) Execute(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	cfg = cfg.Normalize()
	if forwardingDisabled(ctx) {
		return p.local.Execute(ctx, cfg)
	}
	w := p.pick(cfg)
	if w == nil {
		return p.local.Execute(ctx, cfg)
	}
	rctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(w.left, cancel)
	res, err := w.remote.Execute(rctx, cfg)
	stop()
	cancel()
	p.members.mu.Lock()
	w.inflight--
	p.members.mu.Unlock()
	if err != nil && retryable(err) && ctx.Err() == nil {
		p.failoverC.Inc()
		return p.local.Execute(ctx, cfg)
	}
	return res, err
}

// Workers reports the pool's current concurrency: the local failover
// pool plus DefaultWorkersPerPeer for every live member. It grows and
// shrinks with membership; capacity-sensitive consumers (the engine's
// fan-out, the priority gate) re-read it.
func (p *StealPool) Workers() int {
	p.members.mu.Lock()
	defer p.members.mu.Unlock()
	return p.local.Workers() + DefaultWorkersPerPeer*len(p.members.workers)
}

// Close makes later Execute calls run locally. Requests already in
// flight finish on their own.
func (p *StealPool) Close() { p.closed.Store(true) }

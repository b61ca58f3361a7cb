package dist

import (
	"context"
	"slices"
	"strings"
	"sync"

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

// member is one live worker: its executor, the pool's requests in
// flight on it (guarded by StealPool.mu, and counted down by requests
// that outlive the member), and a context cancelled when it leaves.
type member struct {
	url      string
	remote   *Remote
	inflight int
	left     context.Context
	leave    context.CancelFunc
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
	local     *Local
	ropts     RemoteOptions
	failoverC *metrics.Counter // no-op when uninstrumented

	mu     sync.Mutex
	closed bool
	live   []*member // sorted by URL: the key-hash domain
}

// NewStealPool builds the pool over the membership registry (whose
// future changes it subscribes to: workers registering grow the pool,
// leaving workers' requests fail over) with local as the failover
// executor (nil means a GOMAXPROCS-sized one).
func NewStealPool(members *Members, local *Local, o StealOptions) *StealPool {
	if local == nil {
		local = NewLocal(0)
	}
	p := &StealPool{local: local, ropts: o.Remote}
	if o.Metrics != nil {
		p.failoverC = o.Metrics.Counter("mediasmt_steal_failovers_total",
			"simulations executed locally after their remote attempt failed")
	}
	members.Subscribe(p.onMembership)
	return p
}

// onMembership reacts to registry changes. It runs under the
// registry's lock, so it must not call back into Members.
func (p *StealPool) onMembership(url string, added bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, present := slices.BinarySearchFunc(p.live, url, func(m *member, url string) int {
		return strings.Compare(m.url, url)
	})
	switch {
	case added && !present:
		rem, err := NewRemote([]string{url}, p.ropts)
		if err != nil {
			return // unroutable URL: leave the member unserved
		}
		left, leave := context.WithCancel(context.Background())
		p.live = slices.Insert(p.live, i, &member{url: url, remote: rem, left: left, leave: leave})
	case !added && present:
		p.live[i].leave()
		p.live = slices.Delete(p.live, i, i+1)
	}
}

// pick claims a request slot on the live member with the fewest
// requests in flight, cfg's key-hash home winning ties. It returns nil
// when the pool is closed or has no live member.
func (p *StealPool) pick(cfg sim.Config) *member {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.live) == 0 {
		return nil
	}
	best := p.live[int(hashKey(cfg.Key())%uint64(len(p.live)))]
	for _, m := range p.live {
		if m.inflight < best.inflight {
			best = m
		}
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
	m := p.pick(cfg)
	if m == nil {
		return p.local.Execute(ctx, cfg)
	}
	rctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(m.left, cancel)
	res, err := m.remote.Execute(rctx, cfg)
	stop()
	cancel()
	p.mu.Lock()
	m.inflight--
	p.mu.Unlock()
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
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.local.Workers() + DefaultWorkersPerPeer*len(p.live)
}

// Close makes later Execute calls run locally. Requests already in
// flight finish on their own.
func (p *StealPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

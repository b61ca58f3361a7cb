package dist

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

const (
	// specMultiplier scales the observed mean simulation latency into
	// the straggler threshold: an attempt running twice as long as the
	// average is worth duplicating.
	specMultiplier = 2.0
	// DefaultSpecMin floors the straggler threshold so short
	// simulations (or a cold latency estimate) never trigger a storm
	// of duplicates.
	DefaultSpecMin = 2 * time.Second
)

// StealOptions tunes a StealPool. The zero value is usable.
type StealOptions struct {
	// Remote configures the per-peer executor built for each member
	// (timeout, client, fingerprint, metrics).
	Remote RemoteOptions
	// WorkersPerPeer is how many request loops serve each member; 0
	// means DefaultWorkersPerPeer.
	WorkersPerPeer int
	// SpecMin floors the straggler threshold; 0 means DefaultSpecMin.
	SpecMin time.Duration
	// Metrics, when non-nil, receives queue-depth, steal, speculation
	// and failover instruments (and the per-peer Remote instruments
	// through Remote.Metrics, which callers set separately).
	Metrics *metrics.Registry
}

// errNoLivePeers settles work that lost its last peer mid-queue; it
// is wrapped in a PeerError, so Execute's local failover picks it up.
var errNoLivePeers = errors.New("no live worker peers")

// errPoolClosed settles work still queued when the pool shuts down.
var errPoolClosed = errors.New("steal pool closed")

// stealItem is one submitted simulation moving through the pool.
// cfg, key, ctx, cancel and done are immutable after submit; every
// other field is guarded by stealCore.mu.
type stealItem struct {
	cfg    sim.Config
	key    string
	ctx    context.Context // derived: cancelled on settle to abort stray attempts
	cancel context.CancelFunc
	done   chan struct{} // closed exactly once, by settleLocked

	home       string // current shard-home peer (re-homed when peers die)
	queued     bool
	inflight   int       // attempts currently executing
	duplicated bool      // a speculative duplicate was launched
	firstPeer  string    // peer of the primary attempt; duplicates go elsewhere
	startedAt  time.Time // primary attempt start, for straggler detection
	settled    bool
	res        *sim.Result
	err        error
}

// stealCore is the state behind a StealPool: per-peer FIFO queues, the in-flight set, and the peer loops.
// One mutex guards everything; the condition variable wakes idle
// loops when work appears, membership changes, or the straggler
// ticker fires.
type stealCore struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	live    []string       // sorted member URLs — the shard domain
	gen     map[string]int // loop generation per peer; bump to retire loops
	remotes map[string]*Remote
	queues  map[string][]*stealItem
	queuedN int
	running map[*stealItem]bool

	perPeer int
	specMin time.Duration
	ropts   RemoteOptions

	latN   int64 // completed remote attempts, for the mean
	latSum time.Duration

	stopPoll chan struct{}
	pollOnce sync.Once

	// no-op when uninstrumented
	depthG    *metrics.Gauge
	stealsC   *metrics.Counter
	specC     *metrics.Counter
	specWinC  *metrics.Counter
	failoverC *metrics.Counter
}

// StealPool shards simulations across the live members of a dynamic
// registry, lets idle peers steal from busy peers' queues, and
// speculatively re-executes stragglers on a second peer — first
// result wins. Work whose peer dies (or whose attempt fails for peer
// reasons) falls over to local execution, and with no live members at
// all the pool degrades to a plain local pool, so a coordinator is
// usable before its first worker registers. Only those local runs
// reach Local, so only they count in the caller's WithTally tally;
// sharded, stolen and speculative attempts count on their worker.
type StealPool struct {
	core  *stealCore
	local *Local
}

// NewStealPool builds the pool over the membership registry (whose
// future changes it subscribes to — workers registering grow the
// pool, evicted workers' queues re-shard) with local as the failover
// executor (nil means a GOMAXPROCS-sized one).
func NewStealPool(members *Members, local *Local, o StealOptions) *StealPool {
	if local == nil {
		local = NewLocal(0)
	}
	if o.WorkersPerPeer <= 0 {
		o.WorkersPerPeer = DefaultWorkersPerPeer
	}
	if o.SpecMin <= 0 {
		o.SpecMin = DefaultSpecMin
	}
	c := &stealCore{
		gen:      make(map[string]int),
		remotes:  make(map[string]*Remote),
		queues:   make(map[string][]*stealItem),
		running:  make(map[*stealItem]bool),
		perPeer:  o.WorkersPerPeer,
		specMin:  o.SpecMin,
		ropts:    o.Remote,
		stopPoll: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	if o.Metrics != nil {
		c.depthG = o.Metrics.Gauge("mediasmt_steal_queue_depth",
			"simulations queued across all peer shard queues")
		c.stealsC = o.Metrics.Counter("mediasmt_steals_total",
			"queued simulations taken by a peer other than their shard home")
		c.specC = o.Metrics.Counter("mediasmt_spec_attempts_total",
			"speculative duplicate executions launched for straggling simulations")
		c.specWinC = o.Metrics.Counter("mediasmt_spec_wins_total",
			"simulations whose speculative duplicate finished first")
		c.failoverC = o.Metrics.Counter("mediasmt_steal_failovers_total",
			"simulations executed locally after their remote attempt failed")
	}
	members.Subscribe(c.onMembership)
	go c.pollStragglers()
	return &StealPool{core: c, local: local}
}

// onMembership reacts to registry changes. It runs under the
// registry's lock, so it must not call back into Members — the core
// keeps its own sorted copy of the live set instead.
func (c *stealCore) onMembership(url string, added bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if added {
		rem, err := NewRemote([]string{url}, c.ropts)
		if err != nil {
			return // unroutable URL: leave the member unserved
		}
		c.remotes[url] = rem
		i := sort.SearchStrings(c.live, url)
		if i < len(c.live) && c.live[i] == url {
			return
		}
		c.live = append(c.live, "")
		copy(c.live[i+1:], c.live[i:])
		c.live[i] = url
		c.gen[url]++
		g := c.gen[url]
		for w := 0; w < c.perPeer; w++ {
			go c.loop(url, g)
		}
	} else {
		i := sort.SearchStrings(c.live, url)
		if i >= len(c.live) || c.live[i] != url {
			return
		}
		c.live = append(c.live[:i], c.live[i+1:]...)
		c.gen[url]++ // retire this peer's loops
		delete(c.remotes, url)
		// Re-home the dead peer's queue; with no peers left the items
		// settle with a retryable error and fail over to local.
		items := c.queues[url]
		delete(c.queues, url)
		c.queuedN -= len(items)
		for _, it := range items {
			it.queued = false
			c.enqueueLocked(it)
		}
	}
	c.depthG.Set(int64(c.queuedN))
	c.cond.Broadcast()
}

// enqueueLocked shards it onto its home peer's queue, or settles it
// with a retryable error when no peer is live.
func (c *stealCore) enqueueLocked(it *stealItem) {
	if it.settled {
		return
	}
	if len(c.live) == 0 {
		c.settleLocked(it, nil, &PeerError{Peer: it.home, Err: errNoLivePeers})
		return
	}
	it.home = c.live[int(hashKey(it.key)%uint64(len(c.live)))]
	it.queued = true
	c.queues[it.home] = append(c.queues[it.home], it)
	c.queuedN++
}

// submit queues cfg for remote execution; nil means the pool cannot
// take it (closed, or no live members) and the caller should execute
// locally.
func (c *stealCore) submit(ctx context.Context, cfg sim.Config) *stealItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.live) == 0 {
		return nil
	}
	ictx, cancel := context.WithCancel(ctx)
	it := &stealItem{cfg: cfg, key: cfg.Key(), ctx: ictx, cancel: cancel, done: make(chan struct{})}
	c.enqueueLocked(it)
	c.depthG.Set(int64(c.queuedN))
	c.cond.Broadcast()
	return it
}

// abandon removes a still-queued item after its caller's context
// ended; false means an attempt already has it, and the caller must
// wait for the attempt to settle it.
func (c *stealCore) abandon(it *stealItem) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it.settled || !it.queued {
		return false
	}
	q := c.queues[it.home]
	for i, cand := range q {
		if cand == it {
			c.queues[it.home] = append(q[:i], q[i+1:]...)
			break
		}
	}
	it.queued = false
	c.queuedN--
	c.depthG.Set(int64(c.queuedN))
	c.settleLocked(it, nil, it.ctx.Err())
	return true
}

// settleLocked records the item's final outcome exactly once and
// aborts any stray duplicate attempt still in flight.
func (c *stealCore) settleLocked(it *stealItem, res *sim.Result, err error) {
	if it.settled {
		return
	}
	it.settled = true
	it.res, it.err = res, err
	close(it.done)
	it.cancel()
}

// loop is one peer-serving goroutine: take from the peer's own queue,
// else steal from the longest other queue, else duplicate a
// straggler, else sleep. Retired by a generation bump (peer removed)
// or pool close.
func (c *stealCore) loop(url string, g int) {
	for {
		c.mu.Lock()
		var it *stealItem
		var spec bool
		for {
			if c.closed || c.gen[url] != g {
				c.mu.Unlock()
				return
			}
			it, spec = c.nextLocked(url)
			if it != nil {
				break
			}
			c.cond.Wait()
		}
		rem := c.remotes[url]
		c.mu.Unlock()
		if rem == nil {
			continue // peer retired between claim and dispatch
		}
		c.attempt(rem, it, spec)
	}
}

// nextLocked claims the peer's next unit of work, in policy order:
// own shard queue, then the longest other queue (a steal), then a
// straggling in-flight item worth duplicating.
func (c *stealCore) nextLocked(url string) (*stealItem, bool) {
	if it := c.popLocked(url); it != nil {
		c.claimLocked(it, url)
		return it, false
	}
	var victim string
	best := 0
	for _, u := range c.live {
		if u != url && len(c.queues[u]) > best {
			best, victim = len(c.queues[u]), u
		}
	}
	if victim != "" {
		if it := c.popLocked(victim); it != nil {
			c.stealsC.Inc()
			c.claimLocked(it, url)
			return it, false
		}
	}
	thr := c.specThresholdLocked()
	for it := range c.running {
		if it.settled || it.duplicated || it.inflight == 0 ||
			it.firstPeer == url || it.ctx.Err() != nil {
			continue
		}
		if time.Since(it.startedAt) >= thr {
			it.duplicated = true
			it.inflight++
			c.specC.Inc()
			return it, true
		}
	}
	return nil, false
}

// popLocked pops the queue's head, settling cancelled items on the
// way instead of paying a peer request for work nobody wants.
func (c *stealCore) popLocked(url string) *stealItem {
	for len(c.queues[url]) > 0 {
		it := c.queues[url][0]
		c.queues[url] = c.queues[url][1:]
		it.queued = false
		c.queuedN--
		c.depthG.Set(int64(c.queuedN))
		if it.ctx.Err() != nil {
			c.settleLocked(it, nil, it.ctx.Err())
			continue
		}
		return it
	}
	return nil
}

// claimLocked marks the primary attempt's start.
func (c *stealCore) claimLocked(it *stealItem, url string) {
	it.inflight = 1
	it.firstPeer = url
	it.startedAt = time.Now()
	c.running[it] = true
}

// specThresholdLocked is the adaptive straggler bar: a multiple of
// the mean observed attempt latency, floored so a cold estimate or a
// fleet of fast simulations cannot trigger duplicate storms.
func (c *stealCore) specThresholdLocked() time.Duration {
	thr := c.specMin
	if c.latN > 0 {
		if t := time.Duration(specMultiplier * float64(c.latSum/time.Duration(c.latN))); t > thr {
			thr = t
		}
	}
	return thr
}

// attempt runs one remote execution and folds its outcome into the
// item: first success settles it (a speculative first success is a
// win), and a failure settles it only when it was the last attempt
// still out — a straggler whose duplicate is still running keeps its
// chance.
func (c *stealCore) attempt(rem *Remote, it *stealItem, spec bool) {
	start := time.Now()
	res, err := rem.Execute(it.ctx, it.cfg)
	c.mu.Lock()
	it.inflight--
	if err == nil {
		c.latN++
		c.latSum += time.Since(start)
		if !it.settled && spec {
			c.specWinC.Inc()
		}
		c.settleLocked(it, res, nil)
	} else if it.inflight == 0 {
		c.settleLocked(it, nil, err)
	}
	if it.inflight == 0 {
		delete(c.running, it)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// pollStragglers periodically wakes idle loops so straggler
// thresholds are noticed even when no other event fires.
func (c *stealCore) pollStragglers() {
	interval := c.specMin / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopPoll:
			return
		case <-ticker.C:
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				return
			}
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
}

// peerWorkers reports the remote side of the pool's concurrency.
func (c *stealCore) peerWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.perPeer * len(c.live)
}

// close retires every loop and settles all queued work.
func (c *stealCore) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		for url, q := range c.queues {
			for _, it := range q {
				it.queued = false
				c.settleLocked(it, nil, &PeerError{Peer: url, Err: errPoolClosed})
			}
		}
		c.queues = make(map[string][]*stealItem)
		c.queuedN = 0
		c.depthG.Set(0)
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	c.pollOnce.Do(func() { close(c.stopPoll) })
}

// Execute shards cfg onto a live peer (queueing, stealing and
// speculation happen behind the scenes) and falls back to local
// execution when no peer is live, the item settles with a retryable
// peer error, or the request already crossed its forwarding hop.
func (p *StealPool) Execute(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	cfg = cfg.Normalize()
	if forwardingDisabled(ctx) {
		return p.local.Execute(ctx, cfg)
	}
	it := p.core.submit(ctx, cfg)
	if it == nil {
		return p.local.Execute(ctx, cfg)
	}
	defer it.cancel()
	select {
	case <-it.done:
	case <-ctx.Done():
		if p.core.abandon(it) {
			return nil, ctx.Err()
		}
		<-it.done // an attempt has it; the cancelled ctx fails it fast
	}
	if it.err != nil {
		if retryable(it.err) && ctx.Err() == nil {
			p.core.failoverC.Inc()
			return p.local.Execute(ctx, cfg)
		}
		return nil, it.err
	}
	return it.res, nil
}

// Workers reports the pool's current concurrency: the local failover
// pool plus every live peer's loops. It grows and shrinks with
// membership — capacity-sensitive consumers (the priority gate)
// re-read it.
func (p *StealPool) Workers() int { return p.local.Workers() + p.core.peerWorkers() }

// Close retires the peer loops and settles all queued work with a
// retryable error; in-flight attempts finish on their own. Live
// Execute calls fail over to local execution.
func (p *StealPool) Close() { p.core.close() }

package dist

import (
	"container/heap"
	"context"
	"sync"

	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// priorityKey marks a context with the scheduling class of the job
// that submitted it.
type priorityKey struct{}

// WithPriority tags ctx with a scheduling priority: a Priority
// executor admits higher values first when executions contend for
// capacity. Untagged contexts run at priority 0.
func WithPriority(ctx context.Context, p int) context.Context {
	return context.WithValue(ctx, priorityKey{}, p)
}

// PriorityFrom reads the scheduling priority tagged by WithPriority
// (0 when untagged).
func PriorityFrom(ctx context.Context) int {
	p, _ := ctx.Value(priorityKey{}).(int)
	return p
}

// prioWaiter is one Execute call blocked for an admission slot.
type prioWaiter struct {
	prio    int
	seq     int64 // admission order within a priority class: FIFO
	index   int   // heap position, maintained by prioQueue
	ready   chan struct{}
	granted bool // slot assigned; set under the gate lock
}

// prioQueue orders waiters by (priority desc, seq asc): strict
// priority between classes, FIFO within one.
type prioQueue []*prioWaiter

func (q prioQueue) Len() int { return len(q) }
func (q prioQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio > q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q prioQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *prioQueue) Push(x any) {
	w := x.(*prioWaiter)
	w.index = len(*q)
	*q = append(*q, w)
}
func (q *prioQueue) Pop() any {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*q = old[:n-1]
	return w
}

// prioGate is a Priority executor's admission controller: at most
// capacity() executions hold a slot, and contended slots go to the
// highest-priority waiter, FIFO within a class. Capacity is a
// function, not a number, because the inner executor's concurrency can
// grow while waiters queue (workers registering into a StealPool);
// each release re-reads it.
type prioGate struct {
	mu       sync.Mutex
	queue    prioQueue
	issued   int
	seq      int64
	capacity func() int

	depthG *metrics.Gauge // no-op when uninstrumented
}

// acquire blocks until a slot is granted or ctx is cancelled.
func (g *prioGate) acquire(ctx context.Context, prio int) error {
	g.mu.Lock()
	if g.issued < g.capacity() && g.queue.Len() == 0 {
		g.issued++
		g.mu.Unlock()
		return nil
	}
	w := &prioWaiter{prio: prio, seq: g.seq, ready: make(chan struct{})}
	g.seq++
	heap.Push(&g.queue, w)
	g.depthG.Set(int64(g.queue.Len()))
	g.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	g.mu.Lock()
	if w.granted {
		// The grant raced the cancellation: the slot is ours, so give
		// it back properly (possibly waking the next waiter).
		g.issued--
		g.grantLocked()
		g.mu.Unlock()
		return ctx.Err()
	}
	heap.Remove(&g.queue, w.index)
	g.depthG.Set(int64(g.queue.Len()))
	g.mu.Unlock()
	return ctx.Err()
}

// release returns a slot and admits waiters up to the (re-read)
// capacity.
func (g *prioGate) release() {
	g.mu.Lock()
	g.issued--
	g.grantLocked()
	g.mu.Unlock()
}

func (g *prioGate) grantLocked() {
	for g.queue.Len() > 0 && g.issued < g.capacity() {
		w := heap.Pop(&g.queue).(*prioWaiter)
		w.granted = true
		g.issued++
		close(w.ready)
	}
	g.depthG.Set(int64(g.queue.Len()))
}

// Priority wraps an Executor with class-based admission: when more
// executions arrive than the inner executor has workers, slots go to
// the highest WithPriority class first, FIFO within a class. Without
// contention it adds nothing but a counter increment — capacity
// matches the inner executor's Workers(), so the gate only ever
// queues what the inner executor would have queued anyway, and the
// queue order is the policy. Every job in the process shares one
// Priority, so all of them contend in one admission order.
type Priority struct {
	gate  *prioGate
	inner Executor
}

// NewPriority builds the admission gate over inner.
func NewPriority(inner Executor) *Priority {
	return &Priority{gate: &prioGate{capacity: inner.Workers}, inner: inner}
}

// Instrument attaches the admission-queue depth gauge. A nil registry
// is a no-op. Call once, before executions start.
func (p *Priority) Instrument(reg *metrics.Registry) *Priority {
	if reg == nil {
		return p
	}
	p.gate.mu.Lock()
	p.gate.depthG = reg.Gauge("mediasmt_priority_queue_depth",
		"executions waiting for an admission slot, all priority classes")
	p.gate.mu.Unlock()
	return p
}

// Execute admits the call under its context's priority class, then
// delegates to the inner executor.
func (p *Priority) Execute(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	if err := p.gate.acquire(ctx, PriorityFrom(ctx)); err != nil {
		return nil, err
	}
	defer p.gate.release()
	return p.inner.Execute(ctx, cfg)
}

// Workers reports the inner executor's concurrency.
func (p *Priority) Workers() int { return p.inner.Workers() }

package dist

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// seededConfig returns distinct valid configs; the seed is part of
// the canonical key, so each is its own unit of work.
func seededConfig(seed uint64) sim.Config {
	cfg := testConfig(1)
	cfg.Seed = seed
	return cfg
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPriorityOrdersContendedWork: with one execution slot occupied,
// queued work is admitted highest class first and FIFO within a
// class, regardless of arrival order.
func TestPriorityOrdersContendedWork(t *testing.T) {
	var mu sync.Mutex
	var order []uint64
	proceed := make(chan struct{})
	inner := NewLocalFunc(1, func(cfg sim.Config) (*sim.Result, error) {
		mu.Lock()
		order = append(order, cfg.Seed)
		mu.Unlock()
		<-proceed
		return stubResult(cfg), nil
	})
	reg := metrics.New()
	p := NewPriority(inner).Instrument(reg)

	var wg sync.WaitGroup
	run := func(prio int, seed uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Execute(WithPriority(context.Background(), prio), seededConfig(seed)); err != nil {
				t.Error(err)
			}
		}()
	}
	// Seed 1 takes the only slot; the rest queue one at a time (the
	// depth gauge confirms each enqueue before the next launches, so
	// FIFO seq order is deterministic).
	run(0, 1)
	waitFor(t, "first execution to start", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 1
	})
	queued := 0
	enqueue := func(prio int, seed uint64) {
		before := reg.Gauge("mediasmt_priority_queue_depth", "").Value()
		run(prio, seed)
		waitFor(t, "waiter to enqueue", func() bool {
			return reg.Gauge("mediasmt_priority_queue_depth", "").Value() > before
		})
		queued++
	}
	enqueue(1, 2) // class 1, first in
	enqueue(5, 3) // top class: must run before everything queued
	enqueue(1, 4) // class 1, second in: after seed 2
	enqueue(0, 5) // bottom class: last

	for i := 0; i < queued+1; i++ {
		proceed <- struct{}{}
	}
	wg.Wait()
	want := []uint64{1, 3, 2, 4, 5}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (priority desc, FIFO within class)", order, want)
		}
	}
}

// TestPriorityCancelWhileQueued: a cancelled waiter leaves the queue
// without consuming a slot, and later releases still admit the
// surviving waiters.
func TestPriorityCancelWhileQueued(t *testing.T) {
	proceed := make(chan struct{})
	started := make(chan uint64, 8)
	inner := NewLocalFunc(1, func(cfg sim.Config) (*sim.Result, error) {
		started <- cfg.Seed
		<-proceed
		return stubResult(cfg), nil
	})
	reg := metrics.New()
	p := NewPriority(inner).Instrument(reg)

	go p.Execute(context.Background(), seededConfig(1)) //nolint:errcheck // released below
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.Execute(ctx, seededConfig(2))
		errc <- err
	}()
	waitFor(t, "waiter to enqueue", func() bool {
		return reg.Gauge("mediasmt_priority_queue_depth", "").Value() == 1
	})
	survivor := make(chan error, 1)
	go func() {
		_, err := p.Execute(context.Background(), seededConfig(3))
		survivor <- err
	}()
	waitFor(t, "second waiter to enqueue", func() bool {
		return reg.Gauge("mediasmt_priority_queue_depth", "").Value() == 2
	})

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	waitFor(t, "cancelled waiter to leave the queue", func() bool {
		return reg.Gauge("mediasmt_priority_queue_depth", "").Value() == 1
	})

	proceed <- struct{}{} // finish seed 1; the survivor (seed 3) is admitted
	if got := <-started; got != 3 {
		t.Fatalf("admitted seed %d after cancel, want 3", got)
	}
	proceed <- struct{}{}
	if err := <-survivor; err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("mediasmt_priority_queue_depth", "").Value(); got != 0 {
		t.Errorf("final queue depth = %d, want 0", got)
	}
}

// TestPriorityCapacityGrowth: the gate re-reads the inner executor's
// Workers() on every release, so capacity added while waiters queue
// (workers registering) admits them without new traffic.
func TestPriorityCapacityGrowth(t *testing.T) {
	var workers atomic.Int64
	workers.Store(1)
	var inflight atomic.Int64
	proceed := make(chan struct{})
	inner := &growingExecutor{workers: &workers, fn: func(cfg sim.Config) (*sim.Result, error) {
		inflight.Add(1)
		<-proceed
		return stubResult(cfg), nil
	}}
	p := NewPriority(inner)

	const calls = 4
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			if _, err := p.Execute(context.Background(), seededConfig(seed)); err != nil {
				t.Error(err)
			}
		}(uint64(i))
	}
	waitFor(t, "one execution under capacity 1", func() bool { return inflight.Load() == 1 })

	workers.Store(calls) // capacity grows; next release admits everyone
	proceed <- struct{}{}
	waitFor(t, "grown capacity to admit the queue", func() bool { return inflight.Load() == calls })
	for i := 0; i < calls-1; i++ {
		proceed <- struct{}{}
	}
	wg.Wait()
}

// growingExecutor reports a mutable worker count — the shape of a
// StealPool while workers register.
type growingExecutor struct {
	workers *atomic.Int64
	fn      func(sim.Config) (*sim.Result, error)
}

func (g *growingExecutor) Execute(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	return g.fn(cfg)
}
func (g *growingExecutor) Workers() int { return int(g.workers.Load()) }

package dist

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// testConfig is a valid config the stub executors echo back; none of
// these tests run a real simulation.
func testConfig(threads int) sim.Config {
	return sim.Config{
		ISA: core.ISAMMX, Threads: threads, Policy: core.PolicyRR,
		Memory: mem.ModeIdeal, Scale: 0.02, Seed: 7,
	}
}

// stubResult builds a result that survives the EncodeResult /
// DecodeResult round trip (a decoded result must carry a normalized
// config).
func stubResult(cfg sim.Config) *sim.Result {
	return &sim.Result{Cfg: cfg.Normalize(), Cycles: 42, IPC: 1.5, EquivIPC: 1.5, EIPC: 1.5, Completed: 8, Started: 8}
}

// TestLocalBoundsConcurrency: no more than Workers() executions may
// be in flight at once, however many goroutines call Execute, and the
// caller's tally counts every one of them.
func TestLocalBoundsConcurrency(t *testing.T) {
	const workers, calls = 2, 16
	var inFlight, peak, now, tally atomic.Int64
	ctx := WithTally(context.Background(), &tally)
	l := NewLocalFunc(workers, func(cfg sim.Config) (*sim.Result, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		now.Add(1)
		return stubResult(cfg), nil
	})
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.Execute(ctx, testConfig(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Errorf("observed %d concurrent executions, pool bound is %d", got, workers)
	}
	if got := tally.Load(); got != calls {
		t.Errorf("tally counted %d simulations, want %d", got, calls)
	}
}

// TestLocalCancelWhileQueued: a cancelled context fails the call while
// it waits for a slot, without running the simulation.
func TestLocalCancelWhileQueued(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	l := NewLocalFunc(1, func(cfg sim.Config) (*sim.Result, error) {
		close(started)
		<-release
		return stubResult(cfg), nil
	})
	go l.Execute(context.Background(), testConfig(1)) //nolint:errcheck // released below
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Execute(ctx, testConfig(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("queued Execute returned %v, want context.Canceled", err)
	}
	close(release)
}

// TestLocalPanicReleasesSlot: a panicking simulation must not leak
// pool capacity and must count as a failure, not in the caller's
// tally (the caller recovers the panic itself).
func TestLocalPanicReleasesSlot(t *testing.T) {
	var calls, tally atomic.Int64
	ctx := WithTally(context.Background(), &tally)
	reg := metrics.New()
	l := NewLocalFunc(1, func(cfg sim.Config) (*sim.Result, error) {
		if calls.Add(1) == 1 {
			panic("boom")
		}
		return stubResult(cfg), nil
	}).Instrument(reg)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		l.Execute(ctx, testConfig(1)) //nolint:errcheck // panics
	}()
	// The single slot must still be usable.
	done := make(chan error, 1)
	go func() {
		_, err := l.Execute(ctx, testConfig(2))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slot leaked by panic: second Execute never ran")
	}
	if got := tally.Load(); got != 1 {
		t.Errorf("tally counted %d simulations, want 1 (panicked run excluded)", got)
	}
	for name, want := range map[string]int64{"mediasmt_pool_sims_total": 1, "mediasmt_pool_sim_failures_total": 1} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("mediasmt_pool_inflight", "").Value(); got != 0 {
		t.Errorf("pool_inflight = %d after the pool went idle", got)
	}
}

// TestHashKeyStable: sharding must be a pure function of the key —
// coordinators agree on each config's home peer across processes.
func TestHashKeyStable(t *testing.T) {
	k := testConfig(1).Key()
	if hashKey(k) != hashKey(k) {
		t.Error("hashKey not deterministic")
	}
	if hashKey(k) == hashKey(testConfig(2).Key()) {
		t.Error("distinct keys collided (astronomically unlikely with FNV-1a)")
	}
}

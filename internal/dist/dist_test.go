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
// be in flight at once, however many goroutines call Execute.
func TestLocalBoundsConcurrency(t *testing.T) {
	const workers, calls = 2, 16
	var inFlight, peak, now atomic.Int64
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
			if _, err := l.Execute(context.Background(), testConfig(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Errorf("observed %d concurrent executions, pool bound is %d", got, workers)
	}
	if got := l.Simulations(); got != calls {
		t.Errorf("local counted %d simulations, want %d", got, calls)
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

// TestLocalLimitViews: Limit-derived views share the slot pool but
// count their own executions, and clamp to the pool size.
func TestLocalLimitViews(t *testing.T) {
	l := NewLocalFunc(4, func(cfg sim.Config) (*sim.Result, error) { return stubResult(cfg), nil })
	a, ok := l.Limit(2).(*Local)
	if !ok {
		t.Fatal("Limit did not return a *Local view")
	}
	b := l.Limit(99)
	if a.Workers() != 2 {
		t.Errorf("Limit(2) view advertises %d workers, want 2", a.Workers())
	}
	if b.Workers() != 4 {
		t.Errorf("Limit(99) view advertises %d workers, want the pool size 4", b.Workers())
	}
	if _, err := a.Execute(context.Background(), testConfig(1)); err != nil {
		t.Fatal(err)
	}
	if a.Simulations() != 1 || l.Simulations() != 0 {
		t.Errorf("view counted %d, base counted %d; want 1 and 0 (per-view counters)", a.Simulations(), l.Simulations())
	}
}

// TestLocalPanicReleasesSlot: a panicking simulation must not leak
// pool capacity and must count as a failure (the caller recovers the
// panic itself).
func TestLocalPanicReleasesSlot(t *testing.T) {
	var calls atomic.Int64
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
		l.Execute(context.Background(), testConfig(1)) //nolint:errcheck // panics
	}()
	// The single slot must still be usable.
	done := make(chan error, 1)
	go func() {
		_, err := l.Execute(context.Background(), testConfig(2))
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
	if l.Simulations() != 1 {
		t.Errorf("counted %d simulations, want 1 (panicked run excluded)", l.Simulations())
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

// TestFuncCountsSuccessesOnly: the Func adapter implements Counter
// over successful calls, which is what keeps scheduler bookkeeping
// honest when tests swap the executor.
func TestFuncCountsSuccessesOnly(t *testing.T) {
	fail := true
	f := Func(2, func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if fail {
			return nil, errors.New("transient")
		}
		return stubResult(cfg), nil
	})
	if _, err := f.Execute(context.Background(), testConfig(1)); err == nil {
		t.Fatal("want error")
	}
	fail = false
	if _, err := f.Execute(context.Background(), testConfig(1)); err != nil {
		t.Fatal(err)
	}
	if got := f.(Counter).Simulations(); got != 1 {
		t.Errorf("Func counted %d, want 1", got)
	}
	if f.Workers() != 2 {
		t.Errorf("Workers = %d, want 2", f.Workers())
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

package dist

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// stealWorkerStub is workerStub with the raw request exposed, so
// behaviors can hold a response until the coordinator cancels
// (req.Context()) — the shape of a straggling or dying peer.
func stealWorkerStub(t *testing.T, behavior func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cfg, err := sim.DecodeConfig(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if behavior != nil && behavior(w, req, cfg) {
			return
		}
		data, err := sim.EncodeResult(stubResult(cfg))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(data)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// homedConfigs picks n distinct configs whose shard home (over the
// sorted live URLs) is wantURL — the deterministic way to aim work at
// a specific test peer.
func homedConfigs(t *testing.T, live []string, wantURL string, n int) []sim.Config {
	t.Helper()
	sorted := append([]string(nil), live...)
	sort.Strings(sorted)
	var out []sim.Config
	for seed := uint64(100); seed < 10_000 && len(out) < n; seed++ {
		cfg := seededConfig(seed)
		home := sorted[int(hashKey(cfg.Normalize().Key())%uint64(len(sorted)))]
		if home == wantURL {
			out = append(out, cfg)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d configs homed on %s", n, wantURL)
	}
	return out
}

func stubLocalPool(workers int) *Local {
	return NewLocalFunc(workers, func(cfg sim.Config) (*sim.Result, error) { return stubResult(cfg), nil })
}

// TestStealPoolShardsToPeers: with live members every config executes
// remotely (the caller's tally stays 0) and results round-trip; with no
// members at all the pool degrades to local execution.
func TestStealPoolShardsToPeers(t *testing.T) {
	a, b := workerStub(t, nil), workerStub(t, nil)
	m := NewMembers()
	m.Add(a.URL)
	m.Add(b.URL)
	p := NewStealPool(m, stubLocalPool(2), StealOptions{})
	defer p.Close()
	var tally atomic.Int64
	ctx := WithTally(context.Background(), &tally)
	for threads := 1; threads <= 8; threads *= 2 {
		cfg := testConfig(threads)
		res, err := p.Execute(ctx, cfg)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if res.Cycles != 42 || res.Cfg.Key() != cfg.Key() {
			t.Errorf("threads=%d: wrong result %+v", threads, res)
		}
	}
	if got := tally.Load(); got != 0 {
		t.Errorf("remote execution counted %d local simulations", got)
	}

	empty := NewStealPool(NewMembers(), stubLocalPool(2), StealOptions{})
	defer empty.Close()
	if _, err := empty.Execute(ctx, testConfig(1)); err != nil {
		t.Fatalf("peerless pool must run locally: %v", err)
	}
	if got := tally.Load(); got != 1 {
		t.Errorf("peerless pool counted %d, want 1 local simulation", got)
	}
}

// TestStealPoolNoForward: an already-forwarded simulation executes
// locally without touching any peer — the pool's half of the loop
// guard for daemons registered as each other's workers.
func TestStealPoolNoForward(t *testing.T) {
	peer := workerStub(t, func(w http.ResponseWriter, cfg sim.Config) bool {
		t.Error("forwarded simulation reached a peer again")
		return false
	})
	m := NewMembers()
	m.Add(peer.URL)
	p := NewStealPool(m, stubLocalPool(1), StealOptions{})
	defer p.Close()
	var tally atomic.Int64
	if _, err := p.Execute(NoForward(WithTally(context.Background(), &tally)), testConfig(1)); err != nil {
		t.Fatal(err)
	}
	if got := tally.Load(); got != 1 {
		t.Errorf("no-forward execution not counted locally: %d", got)
	}
}

// TestStealPoolFailoverPolicy: a peer error — here a worker hanging
// past RemoteOptions.Timeout — fails the config over to local
// execution and counts it as a local simulation, while a simulation
// failure (422) comes back as-is without a local run: it would only
// fail again.
func TestStealPoolFailoverPolicy(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hang := workerStub(t, func(w http.ResponseWriter, cfg sim.Config) bool {
		<-release
		return true
	})
	failing := workerStub(t, func(w http.ResponseWriter, cfg sim.Config) bool {
		http.Error(w, `{"error":{"code":"sim_failed","message":"sim: hit MaxCycles"}}`, http.StatusUnprocessableEntity)
		return true
	})
	for _, c := range []struct {
		name      string
		url       string
		wantLocal int64
	}{{"timeout", hang.URL, 1}, {"sim failure", failing.URL, 0}} {
		t.Run(c.name, func(t *testing.T) {
			m := NewMembers()
			m.Add(c.url)
			reg := metrics.New()
			p := NewStealPool(m, stubLocalPool(1), StealOptions{
				Remote:  RemoteOptions{Timeout: 100 * time.Millisecond},
				SpecMin: time.Minute,
				Metrics: reg,
			})
			defer p.Close()
			var tally atomic.Int64
			_, err := p.Execute(WithTally(context.Background(), &tally), testConfig(1))
			var sf *SimFailure
			if c.wantLocal == 1 && err != nil {
				t.Fatalf("timed-out peer did not fail over: %v", err)
			}
			if c.wantLocal == 0 && !errors.As(err, &sf) {
				t.Fatalf("err = %v, want the worker's SimFailure", err)
			}
			if got := tally.Load(); got != c.wantLocal {
				t.Errorf("local simulations = %d, want %d", got, c.wantLocal)
			}
			if got := reg.Counter("mediasmt_steal_failovers_total", "").Value(); got != c.wantLocal {
				t.Errorf("steal_failovers_total = %d, want %d", got, c.wantLocal)
			}
		})
	}
}

// TestStealPoolIdlePeerSteals: when one peer's only loop is stuck on
// a slow request and work piles up on that peer's shard queue, the
// idle peer's loop takes it — the steals counter proves the path and
// every config still completes remotely.
func TestStealPoolIdlePeerSteals(t *testing.T) {
	var claimed atomic.Bool
	entered := make(chan int, 1)
	release := make(chan struct{})
	mk := func(idx int) func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		return func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
			// The cluster's first request hangs (wherever it lands);
			// everything after answers normally.
			if claimed.CompareAndSwap(false, true) {
				entered <- idx
				select {
				case <-release:
				case <-req.Context().Done():
				}
			}
			return false
		}
	}
	a, b := stealWorkerStub(t, mk(0)), stealWorkerStub(t, mk(1))
	urls := []string{a.URL, b.URL}
	m := NewMembers()
	m.Add(a.URL)
	m.Add(b.URL)
	reg := metrics.New()
	p := NewStealPool(m, stubLocalPool(1), StealOptions{
		WorkersPerPeer: 1,
		SpecMin:        time.Minute, // speculation out of the picture
		Metrics:        reg,
	})
	defer p.Close()
	var tally atomic.Int64
	ctx := WithTally(context.Background(), &tally)

	results := make(chan error, 3)
	go func() {
		_, err := p.Execute(ctx, seededConfig(1))
		results <- err
	}()
	slowURL := urls[<-entered] // this peer's loop is now stuck
	// Aim more work at the stuck peer's shard queue; only the idle
	// peer can serve it, and only by stealing.
	for _, cfg := range homedConfigs(t, urls, slowURL, 2) {
		go func(cfg sim.Config) {
			_, err := p.Execute(ctx, cfg)
			results <- err
		}(cfg)
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	// At least the two aimed configs were stolen (the first config may
	// itself have been stolen before its home loop claimed it, so the
	// count is a floor, not an exact value).
	if got := reg.Counter("mediasmt_steals_total", "").Value(); got < 2 {
		t.Errorf("steals_total = %d, want >= 2", got)
	}
	close(release)
	if err := <-results; err != nil {
		t.Fatal(err)
	}
	if got := tally.Load(); got != 0 {
		t.Errorf("stolen work executed locally (%d), want all remote", got)
	}
}

// TestStealPoolSpeculatesStragglers: an attempt stuck past the
// adaptive threshold is duplicated on another peer; the duplicate's
// result settles the config (a speculative win) and the straggling
// request is cancelled instead of holding the caller.
func TestStealPoolSpeculatesStragglers(t *testing.T) {
	var claimed atomic.Bool
	entered := make(chan struct{}, 1)
	hangFirst := func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		// The primary attempt (the cluster's first request) hangs until
		// the coordinator hangs up; the duplicate answers normally.
		if claimed.CompareAndSwap(false, true) {
			entered <- struct{}{}
			<-req.Context().Done()
			return true
		}
		return false
	}
	a, b := stealWorkerStub(t, hangFirst), stealWorkerStub(t, hangFirst)
	m := NewMembers()
	m.Add(a.URL)
	m.Add(b.URL)
	reg := metrics.New()
	p := NewStealPool(m, stubLocalPool(1), StealOptions{
		WorkersPerPeer: 1,
		SpecMin:        30 * time.Millisecond,
		Metrics:        reg,
	})
	defer p.Close()

	var tally atomic.Int64
	res, err := p.Execute(WithTally(context.Background(), &tally), testConfig(1))
	if err != nil {
		t.Fatalf("straggler was not rescued: %v", err)
	}
	if res.Cycles != 42 {
		t.Errorf("speculative result wrong: %+v", res)
	}
	<-entered // the primary attempt really did hang first
	if got := reg.Counter("mediasmt_spec_attempts_total", "").Value(); got != 1 {
		t.Errorf("spec_attempts_total = %d, want 1", got)
	}
	if got := reg.Counter("mediasmt_spec_wins_total", "").Value(); got != 1 {
		t.Errorf("spec_wins_total = %d, want 1", got)
	}
	if tally.Load() != 0 {
		t.Error("speculation must stay remote, not fail over locally")
	}
}

// TestStealPoolDeadPeerRehomesAndFailsOver: evicting the only peer
// re-homes its queued work (settling it retryably, so it completes
// locally) and a failing in-flight attempt falls over to local too;
// Workers() shrinks with the membership.
func TestStealPoolDeadPeerRehomesAndFailsOver(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	peer := stealWorkerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		entered <- struct{}{}
		select {
		case <-release:
		case <-req.Context().Done():
		}
		http.Error(w, `{"error":{"code":"not_ready","message":"shutting down"}}`, http.StatusServiceUnavailable)
		return true
	})
	m := NewMembers()
	m.Add(peer.URL)
	reg := metrics.New()
	p := NewStealPool(m, stubLocalPool(2), StealOptions{
		WorkersPerPeer: 1,
		SpecMin:        time.Minute,
		Metrics:        reg,
	})
	defer p.Close()
	if got := p.Workers(); got != 2+1 {
		t.Errorf("Workers with one member = %d, want 3", got)
	}
	var tally atomic.Int64
	ctx := WithTally(context.Background(), &tally)

	results := make(chan error, 2)
	go func() { // in-flight on the peer
		_, err := p.Execute(ctx, seededConfig(1))
		results <- err
	}()
	<-entered
	go func() { // queued behind it (the peer's single loop is busy)
		_, err := p.Execute(ctx, seededConfig(2))
		results <- err
	}()
	waitFor(t, "second config to queue", func() bool {
		return reg.Gauge("mediasmt_steal_queue_depth", "").Value() == 1
	})

	m.Remove(peer.URL) // the health checker's verdict
	if err := <-results; err != nil {
		t.Fatalf("re-homed config did not fail over locally: %v", err)
	}
	close(release) // the in-flight attempt now fails with 503 → local failover
	if err := <-results; err != nil {
		t.Fatalf("failed attempt did not fail over locally: %v", err)
	}
	if got := tally.Load(); got != 2 {
		t.Errorf("local failovers executed %d, want 2", got)
	}
	if got := reg.Counter("mediasmt_steal_failovers_total", "").Value(); got != 2 {
		t.Errorf("steal_failovers_total = %d, want 2", got)
	}
	if got := p.Workers(); got != 2 {
		t.Errorf("Workers after eviction = %d, want the local pool's 2", got)
	}
}

// TestStealPoolCloseSettlesQueue: Close retires the loops and settles
// queued work retryably, so callers complete locally instead of
// hanging on a dead pool.
func TestStealPoolCloseSettlesQueue(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	peer := stealWorkerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		entered <- struct{}{}
		select {
		case <-release:
		case <-req.Context().Done():
		}
		return false
	})
	m := NewMembers()
	m.Add(peer.URL)
	reg := metrics.New()
	p := NewStealPool(m, stubLocalPool(2), StealOptions{WorkersPerPeer: 1, SpecMin: time.Minute, Metrics: reg})
	var tally atomic.Int64
	ctx := WithTally(context.Background(), &tally)

	results := make(chan error, 2)
	go func() {
		_, err := p.Execute(ctx, seededConfig(1))
		results <- err
	}()
	<-entered
	go func() {
		_, err := p.Execute(ctx, seededConfig(2))
		results <- err
	}()
	waitFor(t, "second config to queue", func() bool {
		return reg.Gauge("mediasmt_steal_queue_depth", "").Value() == 1
	})
	p.Close()
	if err := <-results; err != nil {
		t.Fatalf("queued config did not complete after Close: %v", err)
	}
	if tally.Load() < 1 {
		t.Error("queued work did not fall over to local execution")
	}
}

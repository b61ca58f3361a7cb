package dist

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// homedConfigs picks n distinct configs whose key-hash home (over the
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
// remotely (the caller's tally stays 0), results round-trip, and a
// config sent to idle peers goes to its key-hash home; with no members
// at all the pool degrades to local execution.
func TestStealPoolShardsToPeers(t *testing.T) {
	var served [2]atomic.Int64
	count := func(idx int) func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		return func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
			served[idx].Add(1)
			return false
		}
	}
	a, b := workerStub(t, count(0)), workerStub(t, count(1))
	urls := []string{a.URL, b.URL}
	m := NewMembers()
	m.Add(a.URL)
	m.Add(b.URL)
	p := NewStealPool(m, stubLocalPool(2), StealOptions{})
	defer p.Close()
	var tally atomic.Int64
	ctx := WithTally(context.Background(), &tally)
	cfgs := append(homedConfigs(t, urls, a.URL, 2), homedConfigs(t, urls, b.URL, 3)...)
	for _, cfg := range cfgs {
		res, err := p.Execute(ctx, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
		if res.Cycles != 42 || res.Cfg.Key() != cfg.Normalize().Key() {
			t.Errorf("seed %d: wrong result %+v", cfg.Seed, res)
		}
	}
	if ga, gb := served[0].Load(), served[1].Load(); ga != 2 || gb != 3 {
		t.Errorf("peers served %d and %d configs, want their homes' 2 and 3", ga, gb)
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

// TestStealPoolFollowsMembers: a pool built over an empty registry
// runs locally until a worker registers, then dispatches to it; a
// worker that leaves and registers again gets a fresh record — no
// requests in flight, no failed probes — and receives work again.
func TestStealPoolFollowsMembers(t *testing.T) {
	var served atomic.Int64
	peer := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		served.Add(1)
		return false
	})
	m := NewMembers()
	p := NewStealPool(m, stubLocalPool(1), StealOptions{})
	defer p.Close()
	var tally atomic.Int64
	ctx := WithTally(context.Background(), &tally)
	execute := func(seed uint64, wantServed, wantLocal int64) {
		t.Helper()
		if _, err := p.Execute(ctx, seededConfig(seed)); err != nil {
			t.Fatal(err)
		}
		if got, local := served.Load(), tally.Load(); got != wantServed || local != wantLocal {
			t.Errorf("seed %d: worker served %d and %d ran locally, want %d and %d", seed, got, local, wantServed, wantLocal)
		}
	}
	execute(1, 0, 1)
	m.Add(peer.URL)
	execute(2, 1, 1)

	m.mu.Lock()
	old := m.workers[0]
	old.inflight, old.failures = 1, 1 // a request still out and a lost probe as it leaves
	m.mu.Unlock()
	m.Remove(peer.URL)
	if old.left.Err() == nil {
		t.Error("leaving did not cancel the record's requests")
	}
	m.Add(peer.URL)
	m.mu.Lock()
	rec := *m.workers[0]
	fresh := m.workers[0] != old
	m.mu.Unlock()
	if !fresh || rec.inflight != 0 || rec.failures != 0 || rec.left.Err() != nil {
		t.Errorf("rejoined worker reuses state: fresh=%v inflight=%d failures=%d left=%v",
			fresh, rec.inflight, rec.failures, rec.left.Err())
	}
	execute(3, 2, 1)
}

// TestStealPoolNoForward: an already-forwarded simulation executes
// locally without touching any peer — the pool's half of the loop
// guard for daemons registered as each other's workers.
func TestStealPoolNoForward(t *testing.T) {
	peer := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
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
	hang := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		<-release
		return true
	})
	failing := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
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

// TestStealPoolSplitsIdlePeers: concurrent configs that all hash home
// to one of two idle peers are split evenly across both, because each
// goes to the peer with the fewest requests in flight. The stubs hold
// every request until all have arrived, so no request finishes before
// the last is dispatched.
func TestStealPoolSplitsIdlePeers(t *testing.T) {
	const n = 4
	var arrived atomic.Int64
	all := make(chan struct{})
	var served [2]atomic.Int64
	mk := func(idx int) func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		return func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
			served[idx].Add(1)
			if arrived.Add(1) == n {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(5 * time.Second): // a request never sent: the counts below fail
			}
			return false
		}
	}
	a, b := workerStub(t, mk(0)), workerStub(t, mk(1))
	m := NewMembers()
	m.Add(a.URL)
	m.Add(b.URL)
	p := NewStealPool(m, stubLocalPool(1), StealOptions{})
	defer p.Close()
	var tally atomic.Int64
	ctx := WithTally(context.Background(), &tally)

	errs := make(chan error, n)
	for _, cfg := range homedConfigs(t, []string{a.URL, b.URL}, a.URL, n) {
		go func(cfg sim.Config) {
			_, err := p.Execute(ctx, cfg)
			errs <- err
		}(cfg)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if ga, gb := served[0].Load(), served[1].Load(); ga != n/2 || gb != n/2 {
		t.Errorf("home peer served %d and the other %d, want %d each", ga, gb, n/2)
	}
	if got := tally.Load(); got != 0 {
		t.Errorf("%d configs ran locally, want all remote", got)
	}
}

// TestStealPoolAvoidsBusyPeer: while one peer's request hangs, configs
// homed on that peer go to the idle one instead of waiting behind it,
// and none runs locally.
func TestStealPoolAvoidsBusyPeer(t *testing.T) {
	var claimed atomic.Bool
	entered := make(chan int, 1)
	release := make(chan struct{})
	var served [2]atomic.Int64
	mk := func(idx int) func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		return func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
			served[idx].Add(1)
			// The cluster's first request hangs (wherever it lands);
			// everything after answers normally.
			if claimed.CompareAndSwap(false, true) {
				entered <- idx
				<-release
			}
			return false
		}
	}
	a, b := workerStub(t, mk(0)), workerStub(t, mk(1))
	urls := []string{a.URL, b.URL}
	m := NewMembers()
	m.Add(a.URL)
	m.Add(b.URL)
	p := NewStealPool(m, stubLocalPool(1), StealOptions{})
	defer p.Close()
	var tally atomic.Int64
	ctx := WithTally(context.Background(), &tally)

	first := make(chan error, 1)
	go func() {
		_, err := p.Execute(ctx, seededConfig(1))
		first <- err
	}()
	busy := <-entered
	for _, cfg := range homedConfigs(t, urls, urls[busy], 2) {
		if _, err := p.Execute(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := served[busy].Load(); got != 1 {
		t.Errorf("busy peer received %d requests, want only the hung one", got)
	}
	if got := served[1-busy].Load(); got != 2 {
		t.Errorf("idle peer served %d configs homed on the busy one, want 2", got)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if got := tally.Load(); got != 0 {
		t.Errorf("%d configs ran locally, want all remote", got)
	}
}

// TestStealPoolLeavingPeerFailsOver: removing a member (the health
// checker's verdict) cancels its in-flight request, which fails over
// to local execution at once, without the stub ever answering; the
// cancellation is not counted as the peer's failure, and Workers()
// shrinks with the membership.
func TestStealPoolLeavingPeerFailsOver(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	peer := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		entered <- struct{}{}
		select {
		case <-release:
		case <-req.Context().Done():
		}
		return true
	})
	m := NewMembers()
	m.Add(peer.URL)
	reg := metrics.New()
	p := NewStealPool(m, stubLocalPool(2), StealOptions{Remote: RemoteOptions{Metrics: reg}, Metrics: reg})
	defer p.Close()
	if got := p.Workers(); got != 2+DefaultWorkersPerPeer {
		t.Errorf("Workers with one member = %d, want %d", got, 2+DefaultWorkersPerPeer)
	}
	var tally atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := p.Execute(WithTally(context.Background(), &tally), seededConfig(1))
		done <- err
	}()
	<-entered
	m.Remove(peer.URL)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("in-flight config did not fail over locally: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("removing the member did not cancel its in-flight request")
	}
	if got := tally.Load(); got != 1 {
		t.Errorf("local failovers executed %d, want 1", got)
	}
	if got := reg.Counter("mediasmt_steal_failovers_total", "").Value(); got != 1 {
		t.Errorf("steal_failovers_total = %d, want 1", got)
	}
	if got := peerCounter(reg, "mediasmt_peer_failures_total", peer.URL); got != 0 {
		t.Errorf("peer_failures_total = %d for a member that left, want 0", got)
	}
	if got := p.Workers(); got != 2 {
		t.Errorf("Workers after eviction = %d, want the local pool's 2", got)
	}
}

// TestStealPoolCloseRunsLocally: after Close, configs run locally,
// and a request already in flight still completes remotely.
func TestStealPoolCloseRunsLocally(t *testing.T) {
	var claimed atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	peer := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		if claimed.CompareAndSwap(false, true) { // only the first request hangs
			entered <- struct{}{}
			<-release
		}
		return false
	})
	m := NewMembers()
	m.Add(peer.URL)
	p := NewStealPool(m, stubLocalPool(2), StealOptions{})
	var tally atomic.Int64
	ctx := WithTally(context.Background(), &tally)

	inflight := make(chan error, 1)
	go func() {
		_, err := p.Execute(ctx, seededConfig(1))
		inflight <- err
	}()
	<-entered
	p.Close()
	if _, err := p.Execute(ctx, seededConfig(2)); err != nil {
		t.Fatalf("config after Close did not run locally: %v", err)
	}
	if got := tally.Load(); got != 1 {
		t.Errorf("local simulations after Close = %d, want 1", got)
	}
	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request did not complete after Close: %v", err)
	}
	if got := tally.Load(); got != 1 {
		t.Errorf("the in-flight request ran locally too (tally %d), want it served remotely", got)
	}
}

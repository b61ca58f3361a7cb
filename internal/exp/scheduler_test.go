package exp

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"mediasmt/internal/core"
	"mediasmt/internal/dist"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

// TestSchedulerDedup: many concurrent requests for one config must run
// exactly one simulation.
func TestSchedulerDedup(t *testing.T) {
	s := NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 4})
	cfg := s.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal)
	var wg sync.WaitGroup
	results := make([]*sim.Result, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.RunConfig(cfg)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if got := s.Simulations(); got != 1 {
		t.Errorf("8 concurrent identical requests ran %d simulations, want 1", got)
	}
	for _, r := range results[1:] {
		if r != results[0] {
			t.Error("concurrent callers must share the same cached result")
		}
	}
}

// TestPrefetchDedupAcrossExperiments: experiments sharing configs
// (Figure 5's ideal-memory points also appear in Figure 4) must pay
// for each simulation once.
func TestPrefetchDedupAcrossExperiments(t *testing.T) {
	s := NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 4})
	cfgs := append(s.fig4Configs(), s.fig5Configs()...)
	if len(cfgs) != 8+16 {
		t.Fatalf("declared %d configs, want 24", len(cfgs))
	}
	// Prefetch dedups up front: progress counts unique configs only.
	var calls int
	if errs := s.prefetch(context.Background(), cfgs, func(done, total int, key string, err error) {
		calls++
		if total != 16 {
			t.Errorf("progress total = %d, want 16 unique configs", total)
		}
	}); errs != nil {
		t.Fatal(joinKeyErrors(errs))
	}
	if calls != 16 {
		t.Errorf("progress fired %d times, want 16", calls)
	}
	// fig4 (8 ideal) is a subset of fig5 (8 ideal + 8 conventional).
	if got := s.Simulations(); got != 16 {
		t.Errorf("24 requested configs ran %d simulations, want 16 after dedup", got)
	}
}

// TestCacheKeyScaleRegression: configs differing only in scale or seed
// must not alias — the seed's cache key omitted both.
func TestCacheKeyScaleRegression(t *testing.T) {
	s := NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 2})
	small := s.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal)
	big := small
	big.Scale = 0.1
	reseeded := small
	reseeded.Seed = 8

	rs, err := s.RunConfig(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.RunConfig(big)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := s.RunConfig(reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Simulations(); got != 3 {
		t.Fatalf("scale/seed variants ran %d simulations, want 3 distinct", got)
	}
	if rs == rb || rs.Cycles == rb.Cycles {
		t.Errorf("double-scale run aliased the small run (cycles %d vs %d)", rs.Cycles, rb.Cycles)
	}
	if rs == rr {
		t.Error("reseeded run returned the aliased result pointer")
	}
}

// suiteOutputs renders ids end to end and returns the concatenated
// artifact text.
func suiteOutputs(t *testing.T, workers int, ids []string) string {
	t.Helper()
	s := NewSuite(Options{Scale: 0.05, Seed: 7, Workers: workers})
	rs, err := s.RunExperimentsContext(context.Background(), ids, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range rs.Experiments {
		b.WriteString(e.Output)
	}
	return b.String()
}

// TestParallelMatchesSequential: the parallel suite must produce output
// byte-identical to the sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	ids := []string{"table3", "fig4", "fig5", "issuemix"}
	seq := suiteOutputs(t, 1, ids)
	par := suiteOutputs(t, 8, ids)
	if seq != par {
		t.Errorf("parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestConfigsCoverExperiments: each experiment's declared config set
// must pass sim.Config.Validate and cover every simulation its Run
// method performs — after a prefetch, rendering must be pure cache
// hits. Which configs a renderer requests never depends on result
// values, so the suites run a stub that returns an empty result for
// each config; rendering real results is covered by the all job in
// TestTierServesWarmAllJob.
func TestConfigsCoverExperiments(t *testing.T) {
	run := func(cfg sim.Config) (*sim.Result, error) { return &sim.Result{Cfg: cfg.Normalize()}, nil }
	for _, e := range Experiments {
		if e.Configs == nil {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			s, err := NewRunnerExecutor(dist.NewLocalFunc(4, run), nil).NewSuite(Options{Scale: 0.02, Seed: 7, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			cfgs := e.Configs(s)
			if len(cfgs) == 0 {
				t.Fatal("declared no configs")
			}
			for _, cfg := range cfgs {
				if err := cfg.Validate(); err != nil {
					t.Errorf("declared config %s: %v", cfg.Key(), err)
				}
			}
			if errs := s.prefetch(context.Background(), cfgs, nil); errs != nil {
				t.Fatal(joinKeyErrors(errs))
			}
			warm := s.Simulations()
			if _, err := e.Run(s); err != nil {
				t.Fatal(err)
			}
			if got := s.Simulations(); got != warm {
				t.Errorf("rendering ran %d extra simulations not declared by Configs", got-warm)
			}
		})
	}
}

// TestAblationDefaultPointDedup: the sweep point at the paper's default
// value must key identically to the no-override config, so `-run all`
// never re-simulates it.
func TestAblationDefaultPointDedup(t *testing.T) {
	s := NewSuite(Options{Scale: 0.05, Seed: 7})
	plain := s.Config(core.ISAMMX, 8, core.PolicyICOUNT, mem.ModeConventional)
	if got := s.wbConfig(8).Key(); got != plain.Key() {
		t.Errorf("WB depth 8 (the default) keys as %s, want the plain config key", got)
	}
	if got := s.wbConfig(4).Key(); got == plain.Key() {
		t.Error("WB depth 4 must not alias the default config")
	}
	if got := s.windowConfig(48).Key(); got != plain.Key() {
		t.Errorf("window 48 (the default) keys as %s, want the plain config key", got)
	}
}

// TestSchedulerPanicBecomesError: a panicking simulation must surface
// as an error on every waiter without leaking the worker slot. The run
// function panics on 3-thread configs, which sim.Run itself refuses
// with an error.
func TestSchedulerPanicBecomesError(t *testing.T) {
	run := func(cfg sim.Config) (*sim.Result, error) {
		if cfg.Threads == 3 {
			panic("unsupported thread count")
		}
		return sim.Run(cfg)
	}
	s, err := NewRunnerExecutor(dist.NewLocalFunc(1, run), nil).NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := s.Config(core.ISAMMX, 3, core.PolicyRR, mem.ModeIdeal)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.RunConfig(bad); err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Errorf("panicking simulation returned err=%v, want panic error", err)
			}
		}()
	}
	wg.Wait()
	// The single worker slot must still be usable afterwards.
	if _, err := s.Run(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal); err != nil {
		t.Errorf("scheduler unusable after panic: %v", err)
	}
}

// TestRunExperimentsUnknownID: unknown ids fail before any simulation.
func TestRunExperimentsUnknownID(t *testing.T) {
	s := NewSuite(Options{Scale: 0.05, Seed: 7})
	if _, err := s.RunExperimentsContext(context.Background(), []string{"fig4", "nope"}, Progress{}); err == nil {
		t.Fatal("unknown experiment id must error")
	}
	if s.Simulations() != 0 {
		t.Error("id validation must happen before simulations start")
	}
}

// slowStore is a resultStore that misses every Get and whose Put
// sleeps before it records the key, so a Put still in flight when its
// caller returns would show.
type slowStore struct {
	mu   sync.Mutex
	keys map[string]bool
}

func (s *slowStore) Get(string) (*sim.Result, bool) { return nil, false }

func (s *slowStore) Put(key string, _ *sim.Result) error {
	time.Sleep(50 * time.Millisecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[key] = true
	return nil
}

func (s *slowStore) has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys[key]
}

// TestResultPersistedBeforeReturn: a fresh result is in the store, and
// counted as a write, by the time RunConfigContext returns, so no
// caller has to wait for persistence after the engine is done.
func TestResultPersistedBeforeReturn(t *testing.T) {
	store := &slowStore{keys: make(map[string]bool)}
	run := func(cfg sim.Config) (*sim.Result, error) { return &sim.Result{Cfg: cfg}, nil }
	s, err := diskRunner(dist.NewLocalFunc(1, run), store).NewSuite(Options{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal)
	if _, err := s.RunConfigContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !store.has(cfg.Key()) {
		t.Error("RunConfigContext returned before its result was persisted")
	}
	if st, _ := s.CacheStats(); st.Writes != 1 || s.Simulations() != 1 {
		t.Errorf("after return: %d writes, %d simulations, want 1 and 1", st.Writes, s.Simulations())
	}
}

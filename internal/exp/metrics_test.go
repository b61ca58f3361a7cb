package exp

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mediasmt/internal/cache"
	"mediasmt/internal/core"
	"mediasmt/internal/dist"
	"mediasmt/internal/mem"
	"mediasmt/internal/metrics"
	"mediasmt/internal/obs"
	"mediasmt/internal/sim"
)

// counterVal reads a process counter back out of the registry.
func counterVal(reg *metrics.Registry, name string, labels ...metrics.Label) int64 {
	return reg.Counter(name, "", labels...).Value()
}

// TestMetricsReconcileWithResultSet pins the acceptance criterion: an
// instrumented run's counters must reconcile exactly with the fields
// the stderr summary and the job view are rendered from — sims
// executed, cache hits/misses/writes, failed experiments.
func TestMetricsReconcileWithResultSet(t *testing.T) {
	reg := metrics.New()
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(2, c).Instrument(reg)
	suite, err := r.NewSuite(Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := suite.RunExperimentsContext(context.Background(), []string{"fig4", "table1"}, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Simulations == 0 {
		t.Fatal("cold run executed no simulations")
	}
	if got := counterVal(reg, "mediasmt_sims_executed_total"); got != rs.Simulations {
		t.Errorf("sims_executed_total = %d, ResultSet.Simulations = %d", got, rs.Simulations)
	}
	if got := counterVal(reg, "mediasmt_cache_hits_total"); got != rs.CacheHits {
		t.Errorf("cache_hits_total = %d, ResultSet.CacheHits = %d", got, rs.CacheHits)
	}
	if got := counterVal(reg, "mediasmt_cache_misses_total"); got != rs.CacheMisses {
		t.Errorf("cache_misses_total = %d, ResultSet.CacheMisses = %d", got, rs.CacheMisses)
	}
	if got := counterVal(reg, "mediasmt_cache_writes_total"); got != rs.CacheWrites {
		t.Errorf("cache_writes_total = %d, ResultSet.CacheWrites = %d", got, rs.CacheWrites)
	}
	if got := counterVal(reg, "mediasmt_sim_failures_total"); got != 0 {
		t.Errorf("sim_failures_total = %d on a green run", got)
	}
	if got := counterVal(reg, "mediasmt_experiments_total", metrics.L("status", "ok")); got != int64(len(rs.Experiments)) {
		t.Errorf("experiments_total{ok} = %d, want %d", got, len(rs.Experiments))
	}
	if got := counterVal(reg, "mediasmt_suites_total"); got != 1 {
		t.Errorf("suites_total = %d, want 1", got)
	}

	// A second (warm) run over a fresh suite: zero new executions, all
	// hits; the aggregates advance by exactly the second run's fields.
	warm, err := r.NewSuite(Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := warm.RunExperimentsContext(context.Background(), []string{"fig4", "table1"}, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Simulations != 0 {
		t.Fatalf("warm run executed %d simulations", rs2.Simulations)
	}
	if got := counterVal(reg, "mediasmt_sims_executed_total"); got != rs.Simulations {
		t.Errorf("sims_executed_total moved to %d on a warm run, want %d", got, rs.Simulations)
	}
	if got := counterVal(reg, "mediasmt_cache_hits_total"); got != rs.CacheHits+rs2.CacheHits {
		t.Errorf("cache_hits_total = %d, want %d", got, rs.CacheHits+rs2.CacheHits)
	}
}

// TestMetricsCountFailedExperiments: a capped-out simulation must show
// up in the failure counters with the same numbers the result set
// reports.
func TestMetricsCountFailedExperiments(t *testing.T) {
	reg := metrics.New()
	r := NewRunner(2, nil).Instrument(reg)
	suite, err := r.NewSuite(Options{Scale: 0.05, Seed: 7, MaxCycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := suite.RunExperimentsContext(context.Background(), []string{"fig4"}, Progress{})
	if err == nil {
		t.Fatal("want failure with MaxCycles=100")
	}
	if rs.Failed == 0 || rs.FailedSims == 0 {
		t.Fatalf("result set reports no failures: %+v", rs)
	}
	if got := counterVal(reg, "mediasmt_sim_failures_total"); got != int64(rs.FailedSims) {
		t.Errorf("sim_failures_total = %d, ResultSet.FailedSims = %d", got, rs.FailedSims)
	}
	if got := counterVal(reg, "mediasmt_experiments_total", metrics.L("status", "failed")); got != int64(rs.Failed) {
		t.Errorf("experiments_total{failed} = %d, ResultSet.Failed = %d", got, rs.Failed)
	}
	if got := counterVal(reg, "mediasmt_sims_executed_total"); got != rs.Simulations {
		t.Errorf("sims_executed_total = %d, ResultSet.Simulations = %d", got, rs.Simulations)
	}
}

// TestUninstrumentedRunnerSafe: the default (nil-registry) path must
// run with every instrument a no-op.
func TestUninstrumentedRunnerSafe(t *testing.T) {
	r := NewRunner(2, nil).Instrument(nil)
	suite, err := r.NewSuite(Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := suite.RunExperimentsContext(context.Background(), []string{"table1"}, Progress{}); err != nil {
		t.Fatal(err)
	}
}

// TestLocalExecutorInstrumented covers the dist.Local pool gauges and
// counters through the exp layer, failure path included.
func TestLocalExecutorInstrumented(t *testing.T) {
	reg := metrics.New()
	fail := errors.New("boom")
	calls := 0
	local := dist.NewLocalFunc(1, func(cfg sim.Config) (*sim.Result, error) {
		calls++
		if calls == 1 {
			return nil, fail
		}
		return &sim.Result{Cfg: cfg}, nil
	}).Instrument(reg)
	if _, err := local.Execute(context.Background(), sim.Config{Threads: 1}); !errors.Is(err, fail) {
		t.Fatalf("want injected failure, got %v", err)
	}
	if _, err := local.Execute(context.Background(), sim.Config{Threads: 1}); err != nil {
		t.Fatal(err)
	}
	if got := counterVal(reg, "mediasmt_pool_sims_total"); got != 1 {
		t.Errorf("pool_sims_total = %d, want 1", got)
	}
	if got := counterVal(reg, "mediasmt_pool_sim_failures_total"); got != 1 {
		t.Errorf("pool_sim_failures_total = %d, want 1", got)
	}
	if got := reg.Gauge("mediasmt_pool_inflight", "").Value(); got != 0 {
		t.Errorf("pool_inflight = %d after the pool went idle", got)
	}
	if got := reg.Gauge("mediasmt_pool_size", "").Value(); got != 1 {
		t.Errorf("pool_size = %d, want 1", got)
	}
}

// TestFailureCountersIncludePanics wires a Runner the way the front
// ends do and runs one config whose simulation panics and one that
// hits MaxCycles: the engine, pool and simulation failure counters must
// each count both, both runs must be timed, and the pool must drain.
// The panicking config is a core override that core.Config.Validate
// does not yet refuse (a negative issue-queue size reaches makeslice);
// sim.Config.Validate refuses every memory override that used to panic.
func TestFailureCountersIncludePanics(t *testing.T) {
	reg := metrics.New()
	r := NewRunnerExecutor(dist.NewLocalFunc(1, obs.SimRunner(reg)).Instrument(reg), nil).Instrument(reg)
	s, err := r.NewSuite(Options{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	panics := s.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeConventional)
	cc := core.ConfigForThreads(core.ISAMMX, 1)
	cc.IQSize = -1
	panics.CoreOverride = &cc
	capped := s.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeConventional)
	capped.MaxCycles = 1000
	if _, err := s.RunConfig(panics); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("IQSize -1: err = %v, want a panic error", err)
	}
	if _, err := s.RunConfig(capped); err == nil {
		t.Fatal("want a MaxCycles failure")
	}
	for _, name := range []string{"mediasmt_sim_failures_total", "mediasmt_pool_sim_failures_total", "mediasmt_sim_run_failures_total"} {
		if got := counterVal(reg, name); got != 2 {
			t.Errorf("%s = %d, want 2", name, got)
		}
	}
	if got := reg.Histogram("mediasmt_sim_run_seconds", "", nil).Count(); got != 2 {
		t.Errorf("sim_run_seconds count = %d, want 2", got)
	}
	if got := reg.Gauge("mediasmt_pool_inflight", "").Value(); got != 0 {
		t.Errorf("pool_inflight = %d after the pool went idle", got)
	}
}

// TestSchedulerCountsInjectedPanic: a run function that panics counts
// once in the engine's and the pool's failure counters. The injected
// panic keeps this path covered even where the simulator itself would
// reject a bad config before running it.
func TestSchedulerCountsInjectedPanic(t *testing.T) {
	reg := metrics.New()
	local := dist.NewLocalFunc(1, func(sim.Config) (*sim.Result, error) { panic("boom") }).Instrument(reg)
	s, err := NewRunnerExecutor(local, nil).Instrument(reg).NewSuite(Options{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a panic error", err)
	}
	for _, name := range []string{"mediasmt_sim_failures_total", "mediasmt_pool_sim_failures_total"} {
		if got := counterVal(reg, name); got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	if got := counterVal(reg, "mediasmt_sims_executed_total"); got != 0 {
		t.Errorf("sims_executed_total = %d, want 0", got)
	}
	if got := reg.Gauge("mediasmt_pool_inflight", "").Value(); got != 0 {
		t.Errorf("pool_inflight = %d after the pool went idle", got)
	}
}

// TestSimsCountedAsTheyResolve: each simulation reaches
// mediasmt_sims_executed_total when it resolves, not when the suite
// finishes, and from the same increment that feeds the pool's counter
// and the suite's tally. The second simulation blocks until the test
// has read the counters after the first progress event.
func TestSimsCountedAsTheyResolve(t *testing.T) {
	reg := metrics.New()
	release := make(chan struct{})
	var calls atomic.Int64
	run := func(cfg sim.Config) (*sim.Result, error) {
		if calls.Add(1) == 2 {
			<-release
		}
		return &sim.Result{Cfg: cfg}, nil
	}
	s, err := NewRunnerExecutor(dist.NewLocalFunc(1, run).Instrument(reg), nil).Instrument(reg).NewSuite(Options{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []sim.Config{
		s.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal),
		s.Config(core.ISAMOM, 1, core.PolicyRR, mem.ModeIdeal),
	}
	two := Experiment{
		ID:      "two",
		Configs: func(*Suite) []sim.Config { return cfgs },
		Run:     func(*Suite) (string, error) { return "", nil },
	}
	first := make(chan struct{})
	prog := Progress{Sim: func(done, _ int, _ string, _ error) {
		if done == 1 {
			close(first)
		}
	}}
	type outcome struct {
		rs  *ResultSet
		err error
	}
	out := make(chan outcome, 1)
	go func() {
		rs, err := s.RunExperimentListContext(context.Background(), []Experiment{two}, prog)
		out <- outcome{rs, err}
	}()

	<-first
	executed, pool := counterVal(reg, "mediasmt_sims_executed_total"), counterVal(reg, "mediasmt_pool_sims_total")
	if executed != 1 || pool != 1 {
		t.Errorf("mid-run: sims_executed_total = %d, pool_sims_total = %d, want 1 and 1", executed, pool)
	}
	close(release)
	o := <-out
	if o.err != nil {
		t.Fatal(o.err)
	}
	executed, pool = counterVal(reg, "mediasmt_sims_executed_total"), counterVal(reg, "mediasmt_pool_sims_total")
	if o.rs.Simulations != 2 || executed != o.rs.Simulations || pool != o.rs.Simulations {
		t.Errorf("at the end: simulations = %d, sims_executed_total = %d, pool_sims_total = %d, want all 2",
			o.rs.Simulations, executed, pool)
	}
}

// flakyDisk is an in-memory disk whose Puts fail for MOM configs.
type flakyDisk struct {
	mu sync.Mutex
	m  map[string]*sim.Result
}

func (d *flakyDisk) Get(key string) (*sim.Result, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.m[key]
	return r, ok
}

func (d *flakyDisk) Put(key string, r *sim.Result) error {
	if r.Cfg.ISA == core.ISAMOM {
		return errors.New("disk full")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[key] = r
	return nil
}

// TestCacheCountsAddUp: three suites resolve the same configs at once
// on one instrumented Runner whose disk refuses some writes, cold and
// then warm. After each phase the Runner's CacheStats equals the sum
// of every suite's and the four mediasmt_cache_* counters, and each
// suite counts one Get per config and one Put per miss.
func TestCacheCountsAddUp(t *testing.T) {
	reg := metrics.New()
	run := func(cfg sim.Config) (*sim.Result, error) { return &sim.Result{Cfg: cfg}, nil }
	r := diskRunner(dist.NewLocalFunc(2, run), &flakyDisk{m: make(map[string]*sim.Result)}).Instrument(reg)
	var suites []*Suite
	for phase, want := range []func(cache.Stats) bool{
		func(st cache.Stats) bool { return st.Writes > 0 && st.WriteErrors > 0 }, // cold
		func(st cache.Stats) bool { return st.Hits > 0 },                         // warm
	} {
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			s := runnerSuite(t, r)
			suites = append(suites, s)
			cfgs := s.configSet([]core.ISAKind{core.ISAMMX, core.ISAMOM}, []int{1, 2}, []core.Policy{core.PolicyRR}, []mem.Mode{mem.ModeIdeal})
			wg.Add(1)
			go func() {
				defer wg.Done()
				if errs := s.prefetch(context.Background(), cfgs, nil); errs != nil {
					t.Error(joinKeyErrors(errs))
				}
			}()
		}
		wg.Wait()
		var sum cache.Stats
		for _, s := range suites {
			st, _ := s.CacheStats()
			if st.Hits+st.Misses != 4 || st.Writes+st.WriteErrors != st.Misses {
				t.Errorf("phase %d: suite stats %+v, want 4 Gets and one Put per miss", phase, st)
			}
			sum.Hits += st.Hits
			sum.Misses += st.Misses
			sum.Writes += st.Writes
			sum.WriteErrors += st.WriteErrors
		}
		got, ok := r.CacheStats()
		if !ok || got != sum {
			t.Errorf("phase %d: runner stats %+v (ok %v), suites sum to %+v", phase, got, ok, sum)
		}
		counters := cache.Stats{
			Hits:        counterVal(reg, "mediasmt_cache_hits_total"),
			Misses:      counterVal(reg, "mediasmt_cache_misses_total"),
			Writes:      counterVal(reg, "mediasmt_cache_writes_total"),
			WriteErrors: counterVal(reg, "mediasmt_cache_write_errors_total"),
		}
		if counters != got {
			t.Errorf("phase %d: mediasmt_cache_* counters %+v, runner stats %+v", phase, counters, got)
		}
		if !want(got) {
			t.Errorf("phase %d: runner stats %+v miss the events this phase must produce", phase, got)
		}
	}
}

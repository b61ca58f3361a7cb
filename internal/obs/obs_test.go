package obs

import (
	"context"
	"sync"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/dist"
	"mediasmt/internal/mem"
	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

func testConfig() sim.Config {
	return sim.Config{
		ISA:     core.ISAMMX,
		Threads: 2,
		Policy:  core.PolicyRR,
		Memory:  mem.ModeConventional,
		Scale:   0.02,
		Seed:    42,
	}
}

// resultSeries lists every counter SimRunner feeds from a Result, with
// the Result field the counter must advance by.
var resultSeries = []struct {
	name  string
	label []metrics.Label
	field func(*sim.Result) int64
}{
	{"mediasmt_sim_cycles_total", nil, func(r *sim.Result) int64 { return r.Cycles }},
	{"mediasmt_sim_insts_total", nil, func(r *sim.Result) int64 { return r.Core.Committed }},
	{"mediasmt_dispatch_stalls_total", []metrics.Label{metrics.L("class", "rob")}, func(r *sim.Result) int64 { return r.Core.ROBStalls }},
	{"mediasmt_dispatch_stalls_total", []metrics.Label{metrics.L("class", "rename")}, func(r *sim.Result) int64 { return r.Core.RenameStalls }},
	{"mediasmt_dispatch_stalls_total", []metrics.Label{metrics.L("class", "queue")}, func(r *sim.Result) int64 { return r.Core.QueueStalls }},
	{"mediasmt_mem_events_total", []metrics.Label{metrics.L("event", "l1_hit")}, func(r *sim.Result) int64 { return r.Mem.L1Hits }},
	{"mediasmt_mem_events_total", []metrics.Label{metrics.L("event", "l1_miss")}, func(r *sim.Result) int64 { return r.Mem.L1Misses }},
	{"mediasmt_mem_events_total", []metrics.Label{metrics.L("event", "l2_hit")}, func(r *sim.Result) int64 { return r.Mem.L2Hits }},
	{"mediasmt_mem_events_total", []metrics.Label{metrics.L("event", "l2_miss")}, func(r *sim.Result) int64 { return r.Mem.L2Misses }},
	{"mediasmt_mem_events_total", []metrics.Label{metrics.L("event", "dram_read")}, func(r *sim.Result) int64 { return r.Mem.DRAMReads }},
	{"mediasmt_mem_events_total", []metrics.Label{metrics.L("event", "dram_write")}, func(r *sim.Result) int64 { return r.Mem.DRAMWrites }},
}

// assertRegistryEqualsSum checks every Result-fed counter against the
// sum of that field over results, and the run and seconds counts.
func assertRegistryEqualsSum(t *testing.T, reg *metrics.Registry, results []*sim.Result, executions int64) {
	t.Helper()
	for _, s := range resultSeries {
		var want int64
		for _, r := range results {
			want += s.field(r)
		}
		if got := reg.Counter(s.name, "", s.label...).Value(); got != want {
			t.Errorf("%s%v = %d, want the Results' sum %d", s.name, s.label, got, want)
		}
	}
	if got := reg.Counter("mediasmt_sim_runs_total", "").Value(); got != int64(len(results)) {
		t.Errorf("sim_runs_total = %d, want %d successful executions", got, len(results))
	}
	if got := reg.Histogram("mediasmt_sim_run_seconds", "", nil).Count(); got != executions {
		t.Errorf("run_seconds count = %d, want %d executions", got, executions)
	}
}

func TestSimRunnerFeedsRegistry(t *testing.T) {
	reg := metrics.New()
	r, err := SimRunner(reg)(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertRegistryEqualsSum(t, reg, []*sim.Result{r}, 1)
}

// TestRegistryEqualsSumOfResults runs distinct configs, some of them
// twice and one of them failing, concurrently through one instrumented
// pool: the registry must hold exactly the sum over the successful
// Results, with every execution timed.
func TestRegistryEqualsSumOfResults(t *testing.T) {
	var cfgs []sim.Config
	for _, isa := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, threads := range []int{1, 8} {
			for _, mode := range []mem.Mode{mem.ModeIdeal, mem.ModeConventional} {
				cfgs = append(cfgs, sim.Config{
					ISA: isa, Threads: threads, Policy: core.PolicyICOUNT,
					Memory: mode, Scale: 0.02, Seed: 7,
				})
			}
		}
	}
	capped := cfgs[len(cfgs)-1]
	capped.MaxCycles = 1000 // guaranteed incomplete
	cfgs = append(cfgs, cfgs[0], cfgs[3], cfgs[6], capped, capped)

	reg := metrics.New()
	pool := dist.NewLocalFunc(4, SimRunner(reg))
	results := make([]*sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = pool.Execute(context.Background(), cfg)
		}()
	}
	wg.Wait()

	var ok []*sim.Result
	for i, err := range errs {
		if cfgs[i].MaxCycles != 0 {
			if err == nil {
				t.Fatalf("config %d: want a MaxCycles failure", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		ok = append(ok, results[i])
	}
	assertRegistryEqualsSum(t, reg, ok, int64(len(cfgs)))
	if got := reg.Counter("mediasmt_sim_run_failures_total", "").Value(); got != 2 {
		t.Errorf("sim_run_failures_total = %d, want 2", got)
	}
	// The equalities above must not hold vacuously.
	for _, s := range resultSeries {
		if reg.Counter(s.name, "", s.label...).Value() == 0 {
			t.Errorf("%s%v stayed 0 over %d runs", s.name, s.label, len(ok))
		}
	}
}

func TestSimRunnerResultIdentity(t *testing.T) {
	cfg := testConfig()
	plain, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := SimRunner(metrics.New())(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if instrumented.Cycles != plain.Cycles || instrumented.IPC != plain.IPC ||
		instrumented.Core.Committed != plain.Core.Committed ||
		instrumented.Mem != plain.Mem {
		t.Fatalf("instrumented run diverged:\ninstrumented: cycles=%d ipc=%v\nplain:        cycles=%d ipc=%v",
			instrumented.Cycles, instrumented.IPC, plain.Cycles, plain.IPC)
	}
}

func TestSimRunnerNilRegistry(t *testing.T) {
	run := SimRunner(nil)
	r, err := run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Fatalf("nil-registry runner returned an empty result")
	}
}

func TestSimRunnerCountsFailures(t *testing.T) {
	reg := metrics.New()
	run := SimRunner(reg)
	cfg := testConfig()
	cfg.MaxCycles = 100 // guaranteed incomplete
	if _, err := run(cfg); err == nil {
		t.Fatal("want MaxCycles failure")
	}
	if got := reg.Counter("mediasmt_sim_run_failures_total", "").Value(); got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
	assertRegistryEqualsSum(t, reg, nil, 1)
}

// TestSimRunnerCountsPanic: a run that panics is timed and counted as
// one failure before the panic reaches the caller's recovery.
func TestSimRunnerCountsPanic(t *testing.T) {
	reg := metrics.New()
	run := simRunner(reg, func(sim.Config) (*sim.Result, error) { panic("boom") })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the run's panic", r)
			}
		}()
		run(testConfig())
	}()
	if got := reg.Counter("mediasmt_sim_run_failures_total", "").Value(); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
	assertRegistryEqualsSum(t, reg, nil, 1)
}

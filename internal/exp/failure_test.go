package exp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/dist"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

// failingConfig is a config guaranteed to fail: a one-cycle cap trips
// sim.Run's safety stop immediately. MaxCycles is part of the
// canonical key, so it never aliases a healthy experiment's config.
func failingConfig(s *Suite) sim.Config {
	cfg := s.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal)
	cfg.MaxCycles = 1
	return cfg
}

// failingExperiment declares one doomed simulation.
var failingExperiment = Experiment{
	ID:    "boom",
	Title: "forced failure (test only)",
	Run: func(s *Suite) (string, error) {
		if _, err := s.RunConfig(failingConfig(s)); err != nil {
			return "", err
		}
		return "unreachable", nil
	},
	Configs: func(s *Suite) []sim.Config { return []sim.Config{failingConfig(s)} },
}

// TestPartialFailureIsolation is the acceptance matrix: with exactly
// one failing experiment in the list, every unaffected experiment
// renders byte-identical to a fully green run, the failed one carries
// a structured per-config error list, and the run returns a multi-
// error naming the failed key.
func TestPartialFailureIsolation(t *testing.T) {
	ids := []string{"table1", "fig4", "issuemix"}
	green := NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 4})
	rsGreen, err := green.RunExperimentsContext(context.Background(), ids, Progress{})
	if err != nil {
		t.Fatalf("green run failed: %v", err)
	}

	exps := []Experiment{}
	for _, id := range []string{"table1", "fig4"} {
		e, _ := ByID(id)
		exps = append(exps, e)
	}
	exps = append(exps, failingExperiment)
	e, _ := ByID("issuemix")
	exps = append(exps, e)

	s := NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 4})
	rs, err := s.RunExperimentListContext(context.Background(), exps, Progress{})
	if err == nil {
		t.Fatal("run with a failing experiment returned nil error")
	}
	badKey := failingConfig(s).Key()
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), badKey) {
		t.Errorf("multi-error must name the failed experiment and key, got: %v", err)
	}

	if len(rs.Experiments) != 4 {
		t.Fatalf("rendered %d experiments, want 4", len(rs.Experiments))
	}
	if rs.Failed != 1 || rs.FailedSims != 1 {
		t.Errorf("Failed=%d FailedSims=%d, want 1 and 1", rs.Failed, rs.FailedSims)
	}
	// Unaffected experiments: status ok, output byte-identical to green.
	for i, gi := range []int{0, 1, 3} {
		got, want := rs.Experiments[gi], rsGreen.Experiments[i]
		if got.Status != StatusOK {
			t.Errorf("%s: status %q, want ok", got.ID, got.Status)
		}
		if got.Output != want.Output {
			t.Errorf("%s: output differs from green run:\n--- green ---\n%s\n--- partial ---\n%s",
				got.ID, want.Output, got.Output)
		}
	}
	// The failed experiment: structured status + per-config error list.
	boom := rs.Experiments[2]
	if boom.ID != "boom" || boom.Status != StatusFailed {
		t.Fatalf("failed experiment result wrong: %+v", boom)
	}
	if boom.Output != "" {
		t.Errorf("failed experiment rendered output %q", boom.Output)
	}
	if !strings.Contains(boom.Err, "1 of 1 configs failed") {
		t.Errorf("failed experiment Err = %q", boom.Err)
	}
	if len(boom.ConfigErrors) != 1 || boom.ConfigErrors[0].Key != badKey ||
		!strings.Contains(boom.ConfigErrors[0].Err, "MaxCycles") {
		t.Errorf("config error list wrong: %+v", boom.ConfigErrors)
	}
	// The structured list survives JSON emission for -json consumers.
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"status": "failed"`, `"config_errors"`, `"status": "ok"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("JSON output missing %s", want)
		}
	}
}

// TestPrefetchAggregatesAllErrors: a prefetch with several failing
// configs must still simulate every healthy config (no fail-fast
// poisoning of unrelated experiments), reach total progress, and
// return a multi-error naming every failed key.
func TestPrefetchAggregatesAllErrors(t *testing.T) {
	s := NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 4})
	good := s.fig4Configs()
	bad1 := failingConfig(s)
	bad2 := failingConfig(s)
	bad2.Threads = 2
	cfgs := append([]sim.Config{bad1}, good...)
	cfgs = append(cfgs, bad2)

	var settled, failed int
	errs := s.prefetch(context.Background(), cfgs, func(done, total int, key string, err error) {
		settled++
		if total != len(good)+2 {
			t.Errorf("progress total = %d, want %d", total, len(good)+2)
		}
		if done != settled {
			t.Errorf("progress done = %d out of order (want %d)", done, settled)
		}
		if err != nil {
			failed++
		}
	})
	if len(errs) != 2 {
		t.Errorf("prefetch returned %d errors, want 2: %v", len(errs), joinKeyErrors(errs))
	}
	for _, k := range []string{bad1.Key(), bad2.Key()} {
		if errs[k] == nil {
			t.Errorf("errors missing failed key %s:\n%v", k, joinKeyErrors(errs))
		}
	}
	if settled != len(good)+2 || failed != 2 {
		t.Errorf("progress settled %d (want %d) with %d failures (want 2)", settled, len(good)+2, failed)
	}
	if got := s.Simulations(); got != int64(len(good)) {
		t.Errorf("healthy configs ran %d simulations, want %d — failures must not skip them", got, len(good))
	}
}

// TestSchedulerRetryAfterTransientError: a failed config must be
// retryable in-process — the second call re-executes instead of
// replaying a poisoned singleflight entry.
func TestSchedulerRetryAfterTransientError(t *testing.T) {
	var calls atomic.Int32
	s, err := NewRunnerExecutor(dist.NewLocalFunc(2, func(cfg sim.Config) (*sim.Result, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient executor failure")
		}
		return sim.Run(cfg)
	}), nil).NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal)
	if _, err := s.RunConfig(cfg); err == nil || !strings.Contains(err.Error(), "transient") {
		t.Fatalf("first call returned err=%v, want transient failure", err)
	}
	r, err := s.RunConfig(cfg)
	if err != nil {
		t.Fatalf("retry after transient error still failed: %v", err)
	}
	if r == nil || r.Cycles <= 0 {
		t.Fatalf("retry returned unusable result: %+v", r)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("executor ran %d times, want 2 (error cached forever?)", got)
	}
	if got := s.Simulations(); got != 1 {
		t.Errorf("suite counted %d successful simulations, want 1", got)
	}
	// Third call: the success IS cached — no further execution.
	if _, err := s.RunConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("successful result not cached: executor ran %d times", got)
	}
}

// TestRenderErrorDoesNotAbortLaterExperiments: a failure in rendering
// (not simulation) is also an isolated domain — experiments after it
// still render, and the multi-error includes it.
func TestRenderErrorDoesNotAbortLaterExperiments(t *testing.T) {
	renderFail := Experiment{
		ID:    "renderboom",
		Title: "rendering fails (test only)",
		Run:   func(*Suite) (string, error) { return "", errors.New("table layout exploded") },
	}
	t1, _ := ByID("table1")
	t2, _ := ByID("table2")
	s := NewSuite(Options{Scale: 0.05, Seed: 7})
	rs, err := s.RunExperimentListContext(context.Background(), []Experiment{t1, renderFail, t2}, Progress{})
	if err == nil || !strings.Contains(err.Error(), "renderboom") {
		t.Fatalf("err = %v, want renderboom failure", err)
	}
	if len(rs.Experiments) != 3 {
		t.Fatalf("rendered %d experiments, want all 3 accounted for", len(rs.Experiments))
	}
	if rs.Experiments[1].Status != StatusFailed || len(rs.Experiments[1].ConfigErrors) != 0 {
		t.Errorf("render failure recorded wrong: %+v", rs.Experiments[1])
	}
	for _, i := range []int{0, 2} {
		if rs.Experiments[i].Status != StatusOK || rs.Experiments[i].Output == "" {
			t.Errorf("experiment %s suppressed by unrelated render failure: %+v",
				rs.Experiments[i].ID, rs.Experiments[i])
		}
	}
	if rs.Failed != 1 || rs.FailedSims != 0 {
		t.Errorf("Failed=%d FailedSims=%d, want 1 and 0", rs.Failed, rs.FailedSims)
	}
}

// TestSuiteMaxCyclesOption: Options.MaxCycles flows into every config
// the suite builds (the -max-cycles flag's contract) and is part of
// the key, so capped runs never alias healthy cache entries.
func TestSuiteMaxCyclesOption(t *testing.T) {
	capped := NewSuite(Options{Scale: 0.05, Seed: 7, MaxCycles: 1})
	cfg := capped.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal)
	if cfg.MaxCycles != 1 {
		t.Fatalf("suite config MaxCycles = %d, want 1", cfg.MaxCycles)
	}
	plain := NewSuite(Options{Scale: 0.05, Seed: 7}).Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal)
	if cfg.Key() == plain.Key() {
		t.Error("capped config key aliases the default-cap key")
	}
	if _, err := capped.RunConfig(cfg); err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Errorf("one-cycle cap returned err=%v, want MaxCycles error", err)
	}
}

// TestCancelledRunRendersCompletedWork pins the cancellation
// partition: a cancelled context fails exactly the experiments whose
// simulations could not run, while config-free experiments (and any
// whose simulations completed) still render — an interrupted run
// degrades to a partial one instead of losing finished work.
func TestCancelledRunRendersCompletedWork(t *testing.T) {
	s := NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no simulation may start

	rs, err := s.RunExperimentsContext(ctx, []string{"table1", "fig4"}, Progress{})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("joined error does not carry context.Canceled: %v", err)
	}
	if rs == nil {
		t.Fatal("cancelled run returned no result set")
	}
	byID := map[string]ExperimentResult{}
	for _, e := range rs.Experiments {
		byID[e.ID] = e
	}
	if e := byID["table1"]; e.Status != StatusOK || e.Output == "" {
		t.Errorf("config-free table1 lost to cancellation: %+v", e)
	}
	fig4 := byID["fig4"]
	if fig4.Status != StatusFailed || len(fig4.ConfigErrors) == 0 {
		t.Fatalf("fig4 not failed with config errors: %+v", fig4)
	}
	for _, ce := range fig4.ConfigErrors {
		if !strings.Contains(ce.Err, context.Canceled.Error()) {
			t.Errorf("config error %+v does not name the cancellation", ce)
		}
	}
	if s.Simulations() != 0 {
		t.Errorf("cancelled run executed %d simulations, want 0", s.Simulations())
	}

	// The same suite, uncancelled, heals: cancelled entries were
	// evicted, so a retry executes fresh.
	rs2, err := s.RunExperimentsContext(context.Background(), []string{"fig4"}, Progress{})
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if rs2.Experiments[0].Status != StatusOK {
		t.Errorf("retry did not render: %+v", rs2.Experiments[0])
	}
}

package exp

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mediasmt/internal/cache"
	"mediasmt/internal/core"
	"mediasmt/internal/dist"
	"mediasmt/internal/mem"
	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// TestRunnerRejectsForeignCache: Runner.NewSuite must refuse an
// Options.Cache that is not the runner's own store instead of
// silently dropping it — a suite must never split reads and writes
// across two stores without anyone noticing.
func TestRunnerRejectsForeignCache(t *testing.T) {
	own, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(2, own)

	if _, err := r.NewSuite(Options{Scale: 0.05, Seed: 7, Cache: foreign}); err == nil {
		t.Fatal("foreign Options.Cache accepted silently")
	} else if !strings.Contains(err.Error(), "Options.Cache") {
		t.Errorf("rejection does not name the field: %v", err)
	}
	// The runner's own store (how package-level NewSuite routes the
	// option) and nil both pass.
	if _, err := r.NewSuite(Options{Scale: 0.05, Seed: 7, Cache: own}); err != nil {
		t.Errorf("runner's own store rejected: %v", err)
	}
	if _, err := r.NewSuite(Options{Scale: 0.05, Seed: 7}); err != nil {
		t.Errorf("nil Options.Cache rejected: %v", err)
	}
	// An uncached runner must also refuse a cache smuggled in through
	// the options.
	if _, err := NewRunner(2, nil).NewSuite(Options{Cache: foreign}); err == nil {
		t.Error("uncached runner accepted Options.Cache silently")
	}
}

// failingStore is a resultStore whose writes always fail; Gets miss.
type failingStore struct{}

func (failingStore) Get(string) (*sim.Result, bool) { return nil, false }
func (failingStore) Put(string, *sim.Result) error  { return errors.New("disk full") }

// diskRunner builds a runner over exec whose memory tier sits on disk,
// a test store standing in for the on-disk cache.
func diskRunner(exec dist.Executor, disk resultStore) *Runner {
	r := NewRunnerExecutor(exec, nil)
	r.tier = &tier{disk: disk, mem: newMemo[string, *sim.Result](tierCapacity)}
	return r
}

// TestWriteErrorsSurfaceInStats: failed store Puts must not vanish —
// the suite's cache stats carry an advisory count the exps summary
// prints.
func TestWriteErrorsSurfaceInStats(t *testing.T) {
	s, err := diskRunner(dist.NewLocal(2), failingStore{}).NewSuite(Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal); err != nil {
		t.Fatal(err)
	}
	st, ok := s.CacheStats()
	if !ok {
		t.Fatal("cached suite reported no stats")
	}
	if st.WriteErrors != 1 || st.Writes != 0 {
		t.Errorf("stats = %+v, want exactly 1 write error and 0 writes", st)
	}
	if st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 miss from the read-through probe", st)
	}
}

// remoteTestWorker emulates a worker expsd by executing decoded
// configs in-process and answering with encoded results — enough to
// drive the full engine over a dist.Remote without internal/serve
// (which cannot be imported from here).
func remoteTestWorker(t *testing.T, fail func(sim.Config) bool) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	executed := new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cfg, err := sim.DecodeConfig(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if fail != nil && fail(cfg) {
			http.Error(w, `{"error":{"code":"internal","message":"injected worker failure"}}`, http.StatusInternalServerError)
			return
		}
		res, err := sim.Run(cfg)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		executed.Add(1)
		data, err := sim.EncodeResult(res)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(data)
	}))
	t.Cleanup(ts.Close)
	return ts, executed
}

// TestRemoteSuiteMatchesLocal is the engine-level half of the
// distributed acceptance criterion: a suite whose executor is a
// dist.Remote produces a result set whose CSV is byte-identical to a
// pure-local run while reporting zero local simulations — the worker
// owns the executions.
func TestRemoteSuiteMatchesLocal(t *testing.T) {
	ts, executed := remoteTestWorker(t, nil)
	rex, err := dist.NewRemote([]string{ts.URL}, dist.RemoteOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewRunnerExecutor(rex, nil).NewSuite(Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"table1", "fig4"}
	rsRemote, err := remote.RunExperimentsContext(context.Background(), ids, Progress{})
	if err != nil {
		t.Fatalf("remote run failed: %v", err)
	}
	if rsRemote.Simulations != 0 {
		t.Errorf("coordinator executed %d local simulations, want 0", rsRemote.Simulations)
	}
	if executed.Load() == 0 {
		t.Fatal("worker executed nothing; the remote path was bypassed")
	}

	rsLocal, err := NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 4}).RunExperimentsContext(context.Background(), ids, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	var remoteCSV, localCSV strings.Builder
	if err := rsRemote.WriteCSV(&remoteCSV); err != nil {
		t.Fatal(err)
	}
	if err := rsLocal.WriteCSV(&localCSV); err != nil {
		t.Fatal(err)
	}
	if remoteCSV.String() != localCSV.String() {
		t.Errorf("remote CSV differs from local:\n--- remote ---\n%s\n--- local ---\n%s", remoteCSV.String(), localCSV.String())
	}
	for i, e := range rsRemote.Experiments {
		if e.Output != rsLocal.Experiments[i].Output {
			t.Errorf("%s: remote table differs from local", e.ID)
		}
	}
}

// TestRemotePeerFailureStaysInFailureDomain: an unreachable worker
// fails exactly the experiments whose configs it stranded — the
// static tables still render, and the config errors carry the peer's
// diagnosis. This pins the satellite requirement that dist.Remote
// failures stay inside the engine's partitioning.
func TestRemotePeerFailureStaysInFailureDomain(t *testing.T) {
	ts, _ := remoteTestWorker(t, func(cfg sim.Config) bool {
		return cfg.ISA == core.ISAMOM // half of fig4's configs fail
	})
	rex, err := dist.NewRemote([]string{ts.URL}, dist.RemoteOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRunnerExecutor(rex, nil).NewSuite(Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.RunExperimentsContext(context.Background(), []string{"table1", "fig4"}, Progress{})
	if err == nil {
		t.Fatal("run with a failing worker reported success")
	}
	if !strings.Contains(err.Error(), "injected worker failure") {
		t.Errorf("joined error lost the peer diagnosis: %v", err)
	}
	byID := map[string]ExperimentResult{}
	for _, e := range rs.Experiments {
		byID[e.ID] = e
	}
	if e := byID["table1"]; e.Status != StatusOK || e.Output == "" {
		t.Errorf("config-free table1 suppressed by worker failure: %+v", e)
	}
	fig4 := byID["fig4"]
	if fig4.Status != StatusFailed || len(fig4.ConfigErrors) != 4 {
		t.Fatalf("fig4 = %+v, want failed with exactly the 4 MOM config errors", fig4)
	}
	for _, ce := range fig4.ConfigErrors {
		if !strings.HasPrefix(ce.Key, "mom/") {
			t.Errorf("healthy config %s marked failed", ce.Key)
		}
		if !strings.Contains(ce.Err, "injected worker failure") {
			t.Errorf("config error lost the peer diagnosis: %+v", ce)
		}
	}
	if rs.Simulations != 0 {
		t.Errorf("coordinator executed %d local simulations, want 0", rs.Simulations)
	}
}

// TestSuiteWorkersCapsExecutorBound: a suite fans out to
// min(Options.Workers, executor Workers()), 0 meaning the executor's
// bound, and reads the bound live, so a StealPool's grows with its
// membership (dist.DefaultWorkersPerPeer, 4, per member).
func TestSuiteWorkersCapsExecutorBound(t *testing.T) {
	members := dist.NewMembers()
	members.Add("http://127.0.0.1:1") // never contacted: only Workers is read
	steal := dist.NewStealPool(members, dist.NewLocal(2), dist.StealOptions{})
	t.Cleanup(steal.Close)
	for _, c := range []struct {
		name    string
		exec    dist.Executor
		workers int
		want    int
	}{
		{"local/default", dist.NewLocal(4), 0, 4},
		{"local/below", dist.NewLocal(4), 2, 2},
		{"local/above", dist.NewLocal(4), 9, 4},
		{"steal/default", steal, 0, 6},
		{"steal/below", steal, 3, 3},
		{"steal/above", steal, 9, 6},
	} {
		s, err := NewRunnerExecutor(c.exec, nil).NewSuite(Options{Workers: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Workers(); got != c.want {
			t.Errorf("%s: Suite.Workers() = %d, want %d", c.name, got, c.want)
		}
	}

	s, err := NewRunnerExecutor(steal, nil).NewSuite(Options{})
	if err != nil {
		t.Fatal(err)
	}
	members.Add("http://127.0.0.1:2")
	if got := s.Workers(); got != 2+4+4 {
		t.Errorf("Suite.Workers() after a second member = %d, want 10", got)
	}
}

// TestConcurrentSuitesShareOneGate: two jobs run at once over the
// expsd stack, one Priority(StealPool(Members, Local)), at different
// priorities. Each reports exactly its own simulations, and the shared
// pool's counter holds their sum.
func TestConcurrentSuitesShareOneGate(t *testing.T) {
	reg := metrics.New()
	local := dist.NewLocalFunc(2, func(cfg sim.Config) (*sim.Result, error) {
		time.Sleep(time.Millisecond) // let the two jobs interleave
		return &sim.Result{Cfg: cfg}, nil
	}).Instrument(reg)
	steal := dist.NewStealPool(dist.NewMembers(), local, dist.StealOptions{})
	t.Cleanup(steal.Close)
	runner := NewRunnerExecutor(dist.NewPriority(steal).Instrument(reg), nil)

	jobs := []struct{ prio, workers, configs int }{{5, 1, 12}, {0, 0, 20}}
	suites := make([]*Suite, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		s, err := runner.NewSuite(Options{Scale: 0.02, Seed: 7, Workers: j.workers})
		if err != nil {
			t.Fatal(err)
		}
		suites[i] = s
		cfgs := make([]sim.Config, j.configs)
		for k := range cfgs {
			cfgs[k] = s.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal)
			cfgs[k].Seed = uint64(1000*i + k + 1) // distinct keys across both jobs
		}
		wg.Add(1)
		go func(prio int) {
			defer wg.Done()
			if errs := s.prefetch(dist.WithPriority(context.Background(), prio), cfgs, nil); errs != nil {
				t.Error(joinKeyErrors(errs))
			}
		}(j.prio)
	}
	wg.Wait()
	for i, j := range jobs {
		if got := suites[i].Simulations(); got != int64(j.configs) {
			t.Errorf("job %d reports %d simulations, want exactly its own %d", i, got, j.configs)
		}
	}
	if got := counterVal(reg, "mediasmt_pool_sims_total"); got != 12+20 {
		t.Errorf("pool_sims_total = %d, want 32", got)
	}
	if got := reg.Gauge("mediasmt_priority_queue_depth", "").Value(); got != 0 {
		t.Errorf("priority queue depth = %d after both jobs finished", got)
	}
}

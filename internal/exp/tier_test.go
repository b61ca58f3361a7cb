package exp

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mediasmt/internal/cache"
	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

// runnerSuite derives a scale-0.02, seed-7 suite from r.
func runnerSuite(t *testing.T, r *Runner) *Suite {
	t.Helper()
	s, err := r.NewSuite(Options{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// deleteEntries removes every file under the cache root, leaving its
// directories in place.
func deleteEntries(t *testing.T, dir string) int {
	t.Helper()
	var n int
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		n++
		return os.Remove(path)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTierServesWarmAllJob: one Runner runs the cold `all` job and
// remembers what it writes; a second Runner over the same cache, as
// after a restart, reads the warm job from disk and remembers what it
// reads. Every Result either tier then holds is deep-equal to the
// decoding of its disk entry, so no renderer mutated a *sim.Result the
// next job shares. With the disk entries deleted, a further job on
// either Runner renders byte-identical output from memory alone, with
// no simulations and exactly one hit per config.
func TestTierServesWarmAllJob(t *testing.T) {
	dir := t.TempDir()
	c, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := IDs()
	writer, reader := NewRunner(2, c), NewRunner(2, c)
	cold, rsCold := renderAll(t, runnerSuite(t, writer), ids)
	if rsCold.Simulations == 0 || rsCold.CacheWrites != rsCold.Simulations {
		t.Fatalf("cold job: %d simulations, %d writes", rsCold.Simulations, rsCold.CacheWrites)
	}
	configs := rsCold.CacheMisses
	warm, rsWarm := renderAll(t, runnerSuite(t, reader), ids)
	if warm != cold || rsWarm.Simulations != 0 || rsWarm.CacheHits != configs {
		t.Fatalf("warm job from disk: %d simulations, %d hits over %d configs, output identical %v",
			rsWarm.Simulations, rsWarm.CacheHits, configs, warm == cold)
	}

	fresh, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Runner{"writer": writer, "reader": reader} {
		if n := len(r.tier.mem.m); int64(n) != configs {
			t.Fatalf("%s tier holds %d results, want %d", name, n, configs)
		}
		for k, got := range r.tier.mem.m {
			if want, ok := fresh.Get(k); !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("%s tier: %s differs from its disk entry (on disk: %v)", name, k, ok)
			}
		}
	}

	if deleteEntries(t, dir) == 0 {
		t.Fatal("no disk entries to delete")
	}
	for name, r := range map[string]*Runner{"writer": writer, "reader": reader} {
		before, _ := r.CacheStats()
		out, rs := renderAll(t, runnerSuite(t, r), ids)
		if out != cold {
			t.Errorf("%s: output after deleting the disk entries differs from the cold job's", name)
		}
		if rs.Simulations != 0 || rs.CacheHits != configs || rs.CacheMisses != 0 || rs.CacheWrites != 0 {
			t.Errorf("%s after deleting the disk entries: %d simulations, %d hits / %d misses / %d writes; want 0, %d / 0 / 0",
				name, rs.Simulations, rs.CacheHits, rs.CacheMisses, rs.CacheWrites, configs)
		}
		if after, _ := r.CacheStats(); after.Hits-before.Hits != configs {
			t.Errorf("%s: runner stats counted %d hits for the job, want %d (memory hits included)", name, after.Hits-before.Hits, configs)
		}
	}
}

// TestTierFailedPutStaysOutOfMemory: memory must never hold a result
// the disk refused.
func TestTierFailedPutStaysOutOfMemory(t *testing.T) {
	tr := &tier{disk: failingStore{}, mem: newMemo[string, *sim.Result](4)}
	if err := tr.Put("k", &sim.Result{Cycles: 1}); err == nil {
		t.Fatal("Put over a failing disk succeeded")
	}
	if _, ok := tr.mem.get("k"); ok {
		t.Error("failed Put left its result in memory")
	}
	if _, ok := tr.Get("k"); ok {
		t.Error("Get found a result whose Put failed")
	}
}

// TestMemoEvictsOldestAtCapacity: a full memo evicts the oldest
// inserted key for each new one, and re-storing a present key neither
// evicts nor grows it.
func TestMemoEvictsOldestAtCapacity(t *testing.T) {
	m := newMemo[int, int](3)
	for i := 0; i < 10; i++ {
		m.put(i, i)
		if len(m.m) > 3 {
			t.Fatalf("after %d puts the memo holds %d keys, capacity 3", i+1, len(m.m))
		}
	}
	m.put(8, 80)
	for k, want := range map[int]int{7: 7, 8: 80, 9: 9} {
		if v, ok := m.get(k); !ok || v != want {
			t.Errorf("get(%d) = %d, %v; want %d, true", k, v, ok, want)
		}
	}
	m.put(10, 10)
	if _, ok := m.get(7); ok {
		t.Error("key 7, the oldest, survived a put at capacity")
	}
	for _, k := range []int{0, 6} {
		if _, ok := m.get(k); ok {
			t.Errorf("evicted key %d still present", k)
		}
	}
	if len(m.m) != 3 {
		t.Errorf("memo holds %d keys, want 3", len(m.m))
	}
}

// TestUncachedRunnerSimulatesEverySuite: without a cache there is no
// tier, so every suite on a long-lived Runner simulates afresh.
func TestUncachedRunnerSimulatesEverySuite(t *testing.T) {
	r := NewRunner(2, nil)
	for i := 0; i < 2; i++ {
		s := runnerSuite(t, r)
		if _, err := s.Run(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal); err != nil {
			t.Fatal(err)
		}
		if got := s.Simulations(); got != 1 {
			t.Errorf("suite %d simulated %d times, want 1", i, got)
		}
	}
	if _, ok := r.CacheStats(); ok {
		t.Error("uncached runner reported cache stats")
	}
}

// TestConcurrentSuitesShareTier: suites racing on one Runner — cold
// ones storing the same keys, then warm ones reading them and the
// Table 3 memo — all render the same text (run under -race).
func TestConcurrentSuitesShareTier(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(2, c)
	ids := []string{"table3", "issuemix"}
	run := func(check func(*ResultSet)) []string {
		out := make([]string, 3)
		var wg sync.WaitGroup
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs, err := runnerSuite(t, r).RunExperimentsContext(context.Background(), ids, Progress{})
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range rs.Experiments {
					out[i] += e.Output
				}
				check(rs)
			}()
		}
		wg.Wait()
		return out
	}
	cold := run(func(*ResultSet) {})
	warm := run(func(rs *ResultSet) {
		if rs.Simulations != 0 || rs.CacheHits != 4 || rs.CacheMisses != 0 {
			t.Errorf("warm suite: %d simulations, %d hits / %d misses; want 0, 4 / 0", rs.Simulations, rs.CacheHits, rs.CacheMisses)
		}
	})
	for i, out := range append(cold, warm...) {
		if out != cold[0] {
			t.Errorf("suite %d rendered different text", i)
		}
	}
}

// TestTable3MemoMatchesDirectRender: the memo keys on both the seed and
// the scale, and what it returns is byte-identical to a direct render.
func TestTable3MemoMatchesDirectRender(t *testing.T) {
	pairs := []Options{{Seed: 7, Scale: 0.02}, {Seed: 7, Scale: 0.05}, {Seed: 8, Scale: 0.02}}
	direct := make([]string, len(pairs))
	for i, o := range pairs {
		direct[i] = NewSuite(o).renderTable3()
		for j := 0; j < i; j++ {
			if direct[i] == direct[j] {
				t.Fatalf("%+v and %+v render the same Table 3; the key test would be vacuous", pairs[i], pairs[j])
			}
		}
	}
	r := NewRunner(1, nil)
	for round := 0; round < 2; round++ { // the first fills the memo, the second reads it
		for i, o := range pairs {
			s, err := r.NewSuite(o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Table3()
			if err != nil {
				t.Fatal(err)
			}
			if got != direct[i] {
				t.Errorf("round %d: memoized Table 3 for %+v differs from a direct render", round, o)
			}
		}
	}
	if n := len(r.table3.m); n != len(pairs) {
		t.Errorf("memo holds %d texts, want %d", n, len(pairs))
	}
}

package exp

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mediasmt/internal/cache"
	"mediasmt/internal/core"
	"mediasmt/internal/mem"
)

// cachedSuite builds a suite persisting into dir.
func cachedSuite(t *testing.T, dir string, workers int) *Suite {
	t.Helper()
	c, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return NewSuite(Options{Scale: 0.02, Seed: 7, Workers: workers, Cache: c})
}

// renderAll runs ids end to end and returns the concatenated artifact
// text plus the result set.
func renderAll(t *testing.T, s *Suite, ids []string) (string, *ResultSet) {
	t.Helper()
	rs, err := s.RunExperimentsContext(context.Background(), ids, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range rs.Experiments {
		b.WriteString(e.Output)
	}
	return b.String(), rs
}

// TestWarmCacheRunsZeroSimulations is the tentpole property: a second
// suite over a warm cache directory — a fresh process, as far as the
// suite can tell — executes zero simulations and renders artifacts
// byte-identical to the cold run.
func TestWarmCacheRunsZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	ids := []string{"fig4", "issuemix"}

	cold, rsCold := renderAll(t, cachedSuite(t, dir, 4), ids)
	if rsCold.Simulations == 0 {
		t.Fatal("cold run executed no simulations; the warm assertion would be vacuous")
	}
	if rsCold.CacheWrites != rsCold.Simulations {
		t.Errorf("cold run persisted %d of %d executed simulations", rsCold.CacheWrites, rsCold.Simulations)
	}

	warm, rsWarm := renderAll(t, cachedSuite(t, dir, 4), ids)
	if rsWarm.Simulations != 0 {
		t.Errorf("warm run executed %d simulations, want 0", rsWarm.Simulations)
	}
	if rsWarm.CacheHits == 0 || rsWarm.CacheMisses != 0 {
		t.Errorf("warm run cache stats: %d hits / %d misses, want all hits", rsWarm.CacheHits, rsWarm.CacheMisses)
	}
	if warm != cold {
		t.Errorf("warm output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	// Structured per-simulation records must also match: disk hits
	// flow into SimRecords like executed runs.
	if len(rsWarm.Sims) != len(rsCold.Sims) {
		t.Fatalf("warm run recorded %d sims, cold %d", len(rsWarm.Sims), len(rsCold.Sims))
	}
	for i := range rsCold.Sims {
		if rsWarm.Sims[i] != rsCold.Sims[i] {
			t.Errorf("sim record %d differs:\ncold %+v\nwarm %+v", i, rsCold.Sims[i], rsWarm.Sims[i])
		}
	}
}

// TestWarmCachePrefetch: prefetch must warm from disk without
// executing, and lazy RunConfig calls after it stay free.
func TestWarmCachePrefetch(t *testing.T) {
	dir := t.TempDir()
	s1 := cachedSuite(t, dir, 4)
	cfgs := s1.fig4Configs()
	if errs := s1.prefetch(context.Background(), cfgs, nil); errs != nil {
		t.Fatal(joinKeyErrors(errs))
	}

	s2 := cachedSuite(t, dir, 4)
	var progressed int
	if errs := s2.prefetch(context.Background(), cfgs, func(done, total int, key string, err error) { progressed++ }); errs != nil {
		t.Fatal(joinKeyErrors(errs))
	}
	if got := s2.Simulations(); got != 0 {
		t.Errorf("prefetch over warm cache executed %d simulations, want 0", got)
	}
	if progressed != len(cfgs) {
		t.Errorf("progress fired %d times, want %d (disk hits count as completions)", progressed, len(cfgs))
	}
	if _, err := s2.RunConfig(cfgs[0]); err != nil {
		t.Fatal(err)
	}
	if got := s2.Simulations(); got != 0 {
		t.Errorf("RunConfig after warm prefetch executed %d simulations, want 0", got)
	}
}

// TestCorruptCacheEntryReExecutes: a corrupted entry must silently
// degrade to a cache miss — the suite re-runs the simulation and
// heals the slot with a fresh write.
func TestCorruptCacheEntryReExecutes(t *testing.T) {
	dir := t.TempDir()
	s1 := cachedSuite(t, dir, 2)
	cfg := s1.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal)
	want, err := s1.RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt every entry under the cache root.
	var corrupted int
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		corrupted++
		return os.WriteFile(path, []byte("truncated {"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("the cold run left no entries on disk to corrupt")
	}

	s2 := cachedSuite(t, dir, 2)
	got, err := s2.RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Simulations() != 1 {
		t.Errorf("corrupt entry short-circuited execution: %d simulations, want 1", s2.Simulations())
	}
	if got.Cycles != want.Cycles {
		t.Errorf("re-executed result diverged: %d cycles vs %d", got.Cycles, want.Cycles)
	}

	// The slot healed: a third suite hits.
	s3 := cachedSuite(t, dir, 2)
	if _, err := s3.RunConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if s3.Simulations() != 0 {
		t.Errorf("healed entry missed: %d simulations, want 0", s3.Simulations())
	}
}

// TestUncachedSuiteUnchanged: without a cache the suite behaves as
// before and reports no cache stats.
func TestUncachedSuiteUnchanged(t *testing.T) {
	s := NewSuite(Options{Scale: 0.02, Seed: 7, Workers: 2})
	if _, err := s.Run(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.CacheStats(); ok {
		t.Error("uncached suite reported cache stats")
	}
	if got := s.Simulations(); got != 1 {
		t.Errorf("ran %d simulations, want 1", got)
	}
}

// TestCachedErrorNotPersisted: failed simulations must not be written
// to disk — only successful results persist.
func TestCachedErrorNotPersisted(t *testing.T) {
	dir := t.TempDir()
	s := cachedSuite(t, dir, 1)
	bad := s.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal)
	bad.MaxCycles = 1 // guaranteed to hit the cycle cap mid-run
	if _, err := s.RunConfig(bad); err == nil {
		t.Fatal("cycle-capped simulation succeeded unexpectedly")
	}
	if st, _ := s.CacheStats(); st.Writes != 0 {
		t.Errorf("failed simulation persisted %d cache entries, want 0", st.Writes)
	}
}

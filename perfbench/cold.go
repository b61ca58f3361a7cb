package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mediasmt/internal/cache"
	"mediasmt/internal/core"
	"mediasmt/internal/dist"
	"mediasmt/internal/exp"
	"mediasmt/internal/mem"
	"mediasmt/internal/obs"
	"mediasmt/internal/sim"
)

// scale is the workload size of every simulated config, relative to
// 1/1000 of the paper's instruction counts: large enough that a
// campaign's wall time is simulation, small enough that a run holds
// several campaigns.
const scale = 0.02

// idleSeeds is how many seeds the cold-idle grid simulates per point.
const idleSeeds = 16

// runColdPaper times cold `exps -run all` campaigns.
func runColdPaper(b *bench) error {
	exps := append([]exp.Experiment(nil), exp.Experiments...)
	return runCold(b, exps, exp.Options{Scale: scale, Seed: deriveSeed(b.seed, 0), Workers: 1})
}

// runColdIdle times cold campaigns over the 1-thread points of Figures
// 6, 8 and 9 — {MMX, MOM} x {conventional, decoupled} memory — over
// idleSeeds seeds, the stall-bound corner where the event engine skips
// most cycles.
func runColdIdle(b *bench) error {
	seeds := make([]uint64, idleSeeds)
	for i := range seeds {
		seeds[i] = deriveSeed(b.seed, i)
	}
	return runCold(b, idleExperiments(seeds), exp.Options{Scale: scale, Seed: seeds[0], Workers: 1})
}

// idleExperiments builds one experiment per (ISA, memory) point, each
// simulating every seed at one thread. One fetch policy suffices: with
// one thread every policy is the same simulation, cycle for cycle.
func idleExperiments(seeds []uint64) []exp.Experiment {
	var out []exp.Experiment
	for _, isa := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, mode := range []mem.Mode{mem.ModeConventional, mem.ModeDecoupled} {
			cfgs := make([]sim.Config, len(seeds))
			for i, s := range seeds {
				cfgs[i] = sim.Config{ISA: isa, Threads: 1, Policy: core.PolicyICOUNT, Memory: mode, Scale: scale, Seed: s}
			}
			out = append(out, exp.Experiment{
				ID:      fmt.Sprintf("idle-%v-%v", isa, mode),
				Title:   fmt.Sprintf("1-thread %v, %v memory, %d seeds", isa, mode, len(seeds)),
				Configs: func(*exp.Suite) []sim.Config { return cfgs },
				Run:     func(s *exp.Suite) (string, error) { return renderIdle(s, cfgs) },
			})
		}
	}
	return out
}

// renderIdle tabulates one idle point per seed from the warm suite.
func renderIdle(s *exp.Suite, cfgs []sim.Config) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %6s %8s\n", "seed", "cycles", "ipc", "noissue")
	for _, c := range cfgs {
		r, err := s.RunConfig(c)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-8d %10d %6.3f %7.1f%%\n", c.Seed, r.Cycles, r.IPC,
			100*float64(r.Core.CyclesNoIssue)/float64(max(r.Cycles, 1)))
	}
	return b.String(), nil
}

// campaignConfigs lists the unique configs a campaign declares.
func campaignConfigs(exps []exp.Experiment, opts exp.Options) []sim.Config {
	s := exp.NewSuite(opts)
	seen := map[string]bool{}
	var out []sim.Config
	for _, e := range exps {
		if e.Configs == nil {
			continue
		}
		for _, c := range e.Configs(s) {
			if k := c.Key(); !seen[k] {
				seen[k] = true
				out = append(out, c)
			}
		}
	}
	return out
}

func configKeys(cfgs []sim.Config) []string {
	keys := make([]string, len(cfgs))
	for i, c := range cfgs {
		keys[i] = c.Key()
	}
	return keys
}

// coldRun holds what every cold campaign of a run shares: the
// experiments, and the first campaign's output, which every later
// campaign must reproduce exactly.
type coldRun struct {
	b      *bench
	exps   []exp.Experiment
	opts   exp.Options
	cfgs   []sim.Config
	n      int
	setups []float64
	ref    []byte
	model  *modelled
	kept   string // last traced campaign's cache, for the cache probe
}

// runCold is the cold workloads' driver: each campaign runs the
// experiments through exp.Runner over a one-slot dist.Local, one
// simulation at a time, on a cache that starts empty.
func runCold(b *bench, exps []exp.Experiment, opts exp.Options) error {
	c := &coldRun{b: b, exps: exps, opts: opts}
	b.measure("campaign", c.campaign)
	b.setSetup(c.setups)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d configs per campaign at scale %g\n", b.workload, len(c.cfgs), opts.Scale)
	if c.model != nil {
		b.setModelled(*c.model)
	}
	if b.rec != nil && c.kept != "" {
		store, err := cache.Open(c.kept)
		if err == nil {
			err = b.probeCache(store, configKeys(c.cfgs))
		}
		b.ops.record("cache probe", err)
	}
	return nil
}

// setup prepares one campaign: an empty result cache, the executor
// stack, runner and suite, the campaign's configs, and a warm-up
// simulation outside the campaign so every campaign starts from a warm
// process (heap, code, CPU caches). Set-up is timed before every
// campaign, so setup_s samples the whole run, not its first second.
// The warm-up is the same for every seed; a 2-thread real-memory
// config runs long enough (tens of ms) that its time holds still,
// where a 1-thread ideal-memory one spreads by about a fifth.
func (c *coldRun) setup(rec *recorder) (*exp.Suite, string, error) {
	dir := filepath.Join(c.b.dir, fmt.Sprintf("cold-%d", c.n))
	store, err := cache.Open(dir)
	if err != nil {
		return nil, "", err
	}
	run := obs.SimRunner(nil)
	var exec dist.Executor = dist.NewLocalFunc(1, run)
	if rec != nil {
		parents := &parentsByKey{}
		exec = &tracedExec{inner: dist.NewLocalFunc(1, tracedRun(rec, parents, run)), name: "dist.local", parents: parents}
	}
	suite, err := exp.NewRunnerExecutor(exec, store).NewSuite(c.opts)
	if err != nil {
		return nil, "", err
	}
	c.cfgs = campaignConfigs(c.exps, c.opts)
	warmup := sim.Config{ISA: core.ISAMOM, Threads: 2, Policy: core.PolicyICOUNT, Memory: mem.ModeConventional,
		Scale: c.opts.Scale, Seed: sim.DefaultSeed}
	r, err := dist.NewLocalFunc(1, run).Execute(context.Background(), warmup)
	if err == nil {
		err = checkResult(r)
	}
	return suite, dir, err
}

// campaign sets up and runs one cold campaign, and checks its output.
// It starts from a collected heap: `exps` runs one campaign per
// process, so one campaign's garbage is no part of the next one's cost.
func (c *coldRun) campaign(rec *recorder) (time.Duration, error) {
	c.n++
	runtime.GC()
	t0 := time.Now()
	suite, dir, err := c.setup(rec)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	c.setups = append(c.setups, time.Since(t0).Seconds())

	ph := startPhases(rec, fmt.Sprintf("campaign-%d", c.n))
	t0 = time.Now()
	rs, runErr := suite.RunExperimentListContext(ph.ctx, c.exps, ph.progress())
	ph.returned()
	var csv bytes.Buffer
	if rs != nil {
		runErr = errors.Join(runErr, rs.WriteCSV(&csv))
	}
	d := time.Since(t0)
	ph.finish(runErr != nil)

	err = c.check(suite, rs, runErr, csv.Bytes())
	if rec != nil && err == nil {
		if c.kept != "" {
			_ = os.RemoveAll(c.kept) // scratch; the run directory goes at exit anyway
		}
		c.kept = dir
	} else {
		_ = os.RemoveAll(dir)
	}
	return d, err
}

// check verifies a cold campaign: everything rendered, every config
// simulated exactly once and persisted, every result conserves, and
// the CSV and modelled work match the run's first campaign.
func (c *coldRun) check(suite *exp.Suite, rs *exp.ResultSet, runErr error, csv []byte) error {
	if runErr != nil {
		return runErr
	}
	n := int64(len(c.cfgs))
	var errs []error
	if rs.Failed != 0 || rs.FailedSims != 0 {
		errs = append(errs, fmt.Errorf("%d experiments and %d simulations failed", rs.Failed, rs.FailedSims))
	}
	if rs.Simulations != n || rs.CacheHits != 0 || rs.CacheMisses != n || rs.CacheWrites != n {
		errs = append(errs, fmt.Errorf("%d simulations, cache %d hits / %d misses / %d writes; a cold campaign simulates and persists each of its %d configs once",
			rs.Simulations, rs.CacheHits, rs.CacheMisses, rs.CacheWrites, n))
	}
	errs = append(errs, sameWork(suite, c.cfgs, &c.model))
	if c.ref == nil {
		c.ref = csv
	} else {
		errs = append(errs, compareCSV(csv, c.ref))
	}
	return errors.Join(errs...)
}

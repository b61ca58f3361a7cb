// Command exps regenerates the paper's tables and figures.
//
// Usage:
//
//	exps [-run table3,fig4,...|all] [-scale 1.0] [-seed 12345]
//	     [-j N] [-max-cycles N] [-json|-csv] [-v] [-remote URL[,URL...]]
//	     [-cache-dir DIR] [-no-cache] [-cache-prune] [-fingerprint]
//	     [-metrics] [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile and -memprofile write runtime/pprof profiles covering
// the experiment run (same formats as `go test`); inspect them with
// `go tool pprof exps FILE`. Profile against a cold cache (-no-cache
// or a fresh -cache-dir) — a warm run executes no simulations.
//
// Every simulation the requested experiments need is deduplicated and
// fanned out over -j workers (default GOMAXPROCS) before the artifacts
// render in order, so table-mode stdout is byte-identical whatever the
// worker count (-json embeds the worker count, timing and cache
// counters, so only its simulation results are invariant). Progress
// and timing go to stderr; -v adds a line per simulation. -json emits
// the full structured result set, -csv the per-simulation metrics
// table.
//
// Experiments are isolated failure domains: every simulation is
// attempted even when others fail, each failure marks only the
// experiments referencing it, and every unaffected experiment still
// renders — byte-identical to a fully green run — with an explicit
// "== <id> — FAILED:" block per failed experiment so omission can
// never read as success. Exit codes: 0 all green, 1 total failure,
// 2 usage error, 3 partial failure (some tables rendered, some
// failed).
//
// Results persist across invocations in an on-disk cache (default
// $XDG_CACHE_HOME/mediasmt, override with -cache-dir, disable with
// -no-cache), keyed on the canonical config key plus a simulator
// version fingerprint: a repeated invocation executes zero simulations
// and renders identical tables from the cache. -cache-prune drops
// every entry outside the current fingerprint and exits; -fingerprint
// prints the current fingerprint (CI uses it as its cache key) and
// exits.
//
// With -remote, exps acts as a distributed coordinator over the
// listed worker expsd processes, through the same pool an expsd
// coordinator runs (dist.StealPool): each simulation goes to the
// worker with the fewest requests in flight, and -j bounds how many
// are in flight in all. Workers are health-checked as in expsd; a
// config whose worker is down, times out or stops answering health
// checks runs locally instead, so the run completes with every worker
// gone. The -json "simulations" count covers local executions only: it
// stays 0 while the workers serve every config, because their counters
// own those executions. Everything else is unchanged: the same suite
// dedups configs, the same cache persists fetched results locally,
// the same failure-domain partitioning maps a simulation failure
// onto exactly the experiments referencing that config, and the
// rendered tables are byte-identical to a local run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"mediasmt/internal/cache"
	"mediasmt/internal/cliflags"
	"mediasmt/internal/dist"
	"mediasmt/internal/exp"
	"mediasmt/internal/metrics"
	"mediasmt/internal/obs"
	"mediasmt/internal/prof"
	"mediasmt/internal/sim"
)

func main() {
	runList := flag.String("run", "all", "comma-separated experiment ids or 'all' ("+strings.Join(exp.IDs(), ", ")+")")
	scale := flag.Float64("scale", sim.DefaultScale, "workload scale (1.0 = 1/1000 of the paper's instruction counts; at most 1000)")
	seed := flag.Uint64("seed", sim.DefaultSeed, "simulation seed")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrently running simulations (0 = GOMAXPROCS)")
	maxCycles := flag.Int64("max-cycles", 0, "per-simulation cycle cap; 0 = simulator default (200M). A capped-out simulation fails its experiments")
	jsonOut := flag.Bool("json", false, "emit the structured result set as JSON on stdout")
	csvOut := flag.Bool("csv", false, "emit per-simulation metrics as CSV on stdout")
	verbose := flag.Bool("v", false, "log each completed simulation to stderr")
	remote := flag.String("remote", "", "comma-separated worker expsd URLs; each simulation goes to the worker with the fewest requests in flight and falls back to local execution when that worker fails")
	remoteTimeout := flag.Duration("remote-timeout", dist.DefaultRequestTimeout, "per-request timeout against a -remote worker")
	cacheDir := flag.String("cache-dir", cache.DefaultDir(), "on-disk result cache directory ('' disables)")
	noCache := flag.Bool("no-cache", false, "disable the on-disk result cache")
	cachePrune := flag.Bool("cache-prune", false, "drop all cache entries except the current fingerprint's, then exit")
	fingerprint := flag.Bool("fingerprint", false, "print the cache fingerprint (cache format + simulator version), then exit")
	metricsOut := flag.Bool("metrics", false, "instrument the run (per-simulation stall and memory counters included) and dump the metrics snapshot as JSON to stderr after the summary")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	flag.Parse()

	if *fingerprint {
		fmt.Println(cache.Fingerprint())
		return
	}
	if *cachePrune {
		if *noCache || *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "exps: cache disabled, nothing to prune")
			return
		}
		n, err := cache.Prune(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exps: cache prune: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "exps: pruned %d stale cache entries from %s (kept %s)\n",
			n, *cacheDir, cache.Fingerprint())
		return
	}

	if *jsonOut && *csvOut {
		fmt.Fprintln(os.Stderr, "exps: -json and -csv are mutually exclusive")
		os.Exit(2)
	}
	if err := validateFlags(*scale, *seed, *workers, *maxCycles, *remoteTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "exps: %v\n", err)
		os.Exit(2)
	}

	var ids []string
	if *runList == "all" {
		ids = exp.IDs()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	store, err := cache.OpenIfEnabled(*cacheDir, *noCache)
	if err != nil {
		fmt.Fprintf(os.Stderr, "exps: cache disabled: %v\n", err)
		store = nil
	}

	// The executor is the "where do simulations run" policy: the local
	// worker pool by default; with -remote, a dist.StealPool over the
	// listed workers, health-checked, with that local pool as its
	// failover. Everything downstream — suite, cache, failure
	// domains, emitters — is identical either way.
	// -metrics instruments the whole stack on one registry: each
	// finished simulation's stall and memory totals (obs.SimRunner),
	// pool or peer activity (dist) and engine aggregates (exp). reg
	// stays nil otherwise, and every instrument no-ops.
	var reg *metrics.Registry
	if *metricsOut {
		reg = metrics.New()
	}
	local := dist.NewLocalFunc(*workers, obs.SimRunner(reg)).Instrument(reg)
	var exec dist.Executor = local
	closeExec := func() {}
	if *remote != "" {
		peers, err := cliflags.Peers("-remote", *remote)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exps: %v\n", err)
			os.Exit(2)
		}
		members := dist.NewMembers()
		for _, p := range peers {
			members.Add(p)
		}
		steal := dist.NewStealPool(members, local, dist.StealOptions{
			Remote:  dist.RemoteOptions{Timeout: *remoteTimeout, Metrics: reg},
			Metrics: reg,
		})
		health := dist.NewHealthChecker(members, dist.HealthOptions{})
		health.Start()
		exec = steal
		closeExec = func() {
			health.Stop()
			steal.Close()
		}
	}
	runner := exp.NewRunnerExecutor(exec, store)
	runner.Instrument(reg)
	suite, err := runner.NewSuite(exp.Options{Scale: *scale, Seed: *seed, Workers: *workers, MaxCycles: *maxCycles})
	if err != nil {
		fmt.Fprintf(os.Stderr, "exps: %v\n", err)
		os.Exit(2)
	}

	prog := exp.Progress{
		Experiment: func(done, total int, res exp.ExperimentResult) {
			fmt.Fprintf(os.Stderr, "exps: [%d/%d] %s (%.1fs)\n", done, total, res.ID, res.Seconds)
			if *jsonOut || *csvOut {
				return
			}
			if res.Status == exp.StatusOK {
				fmt.Printf("== %s — %s\n\n%s\n", res.ID, res.Title, res.Output)
				return
			}
			// An explicit failure block: a diff against a green run must
			// never mistake a silently omitted table for a rendered one.
			fmt.Printf("== %s — FAILED: %s\n", res.ID, res.Err)
			for _, ce := range res.ConfigErrors {
				fmt.Printf("   %s: %s\n", ce.Key, ce.Err)
			}
			fmt.Println()
		},
	}
	if *verbose {
		prog.Sim = func(done, total int, key string, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "exps: sim %d/%d %s FAILED: %v\n", done, total, key, err)
				return
			}
			fmt.Fprintf(os.Stderr, "exps: sim %d/%d %s\n", done, total, key)
		}
	}

	// An interrupt cancels simulations not yet started; everything
	// already finished still renders, persists and emits below, so a
	// Ctrl-C'd run degrades to a partial one instead of losing work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// After the first signal cancels ctx, deregister the handler so
		// a second Ctrl-C force-quits instead of being swallowed while
		// non-interruptible simulations drain.
		<-ctx.Done()
		stop()
	}()

	// The profile window covers exactly the experiment run: the setup
	// above and the rendering below would only dilute the samples.
	stopProf, perr := prof.Start(*cpuProfile, *memProfile)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "exps: %v\n", perr)
		os.Exit(2)
	}
	rs, err := suite.RunExperimentsContext(ctx, ids, prog)
	closeExec()
	if perr := stopProf(); perr != nil {
		fmt.Fprintf(os.Stderr, "exps: %v\n", perr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "exps: %v\n", err)
	}
	if rs != nil {
		cacheNote := "cache off"
		if st, ok := suite.CacheStats(); ok {
			cacheNote = fmt.Sprintf("cache %d hits / %d misses / %d writes", st.Hits, st.Misses, st.Writes)
			if st.WriteErrors > 0 {
				// Advisory but not silent: a failing store costs every
				// future run its hits, so the operator must see it.
				cacheNote += fmt.Sprintf(" / %d write errors", st.WriteErrors)
			}
		}
		fmt.Fprintf(os.Stderr, "exps: %d experiments (%d failed), %d simulations (%d failed configs), %d workers, %s, %.1fs total\n",
			len(rs.Experiments), rs.Failed, rs.Simulations, rs.FailedSims, rs.Workers, cacheNote, rs.WallSeconds)
	}
	if reg != nil {
		// The snapshot's counters reconcile exactly with the summary line
		// above: mediasmt_sims_executed_total is rs.Simulations, the
		// cache counters are the cache note's numbers.
		if err := reg.WriteJSON(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "exps: metrics: %v\n", err)
		}
	}

	// A partial result set still emits, so completed simulations
	// survive a late failure; the exit code stays non-zero.
	if rs != nil {
		var emitErr error
		switch {
		case *jsonOut:
			emitErr = rs.WriteJSON(os.Stdout)
		case *csvOut:
			emitErr = rs.WriteCSV(os.Stdout)
		}
		if emitErr != nil {
			fmt.Fprintf(os.Stderr, "exps: emit: %v\n", emitErr)
			os.Exit(1)
		}
	}
	os.Exit(exitCode(err, rs))
}

// Command smtsim runs one multiprogrammed simulation and prints a
// detailed report: throughput (IPC / Equivalent IPC), pipeline
// statistics and memory-system behaviour.
//
// Usage:
//
//	smtsim [-isa mmx|mom] [-threads N] [-policy rr|ic|oc|bl]
//	       [-mem ideal|conventional|decoupled] [-scale F] [-seed N]
//	       [-cache-dir DIR] [-no-cache]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile and -memprofile write runtime/pprof profiles covering
// the simulation (same formats as `go test`); inspect them with
// `go tool pprof smtsim FILE`. Combine with -no-cache, or a cache hit
// will profile nothing but the cache read.
//
// The simulation resolves through the experiment engine (exp.Suite),
// the path cmd/exps and expsd take, so results persist in the same
// on-disk cache (default $XDG_CACHE_HOME/mediasmt): re-running an
// already-simulated configuration reports from the cache instead of
// simulating, noted on stderr. -no-cache forces a fresh simulation.
package main

import (
	"flag"
	"fmt"
	"os"

	"mediasmt/internal/cache"
	"mediasmt/internal/exp"
	"mediasmt/internal/mem"
	"mediasmt/internal/prof"
	"mediasmt/internal/sim"
)

func main() {
	isaFlag := flag.String("isa", "mmx", "media ISA: mmx or mom")
	threads := flag.Int("threads", 4, "hardware contexts (1, 2, 4 or 8)")
	policy := flag.String("policy", "rr", "fetch policy: rr, ic, oc or bl")
	memFlag := flag.String("mem", "conventional", "memory system: ideal, conventional or decoupled")
	scale := flag.Float64("scale", sim.DefaultScale, "workload scale (1.0 = 1/1000 of the paper's run; at most 1000)")
	seed := flag.Uint64("seed", sim.DefaultSeed, "simulation seed")
	cacheDir := flag.String("cache-dir", cache.DefaultDir(), "on-disk result cache directory ('' disables)")
	noCache := flag.Bool("no-cache", false, "disable the on-disk result cache")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memProfile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	flag.Parse()

	cfg, err := buildConfig(*isaFlag, *policy, *memFlag, *threads, *scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtsim: %v\n", err)
		os.Exit(2)
	}

	store, err := cache.OpenIfEnabled(*cacheDir, *noCache)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtsim: cache disabled: %v\n", err)
		store = nil
	}

	suite := exp.NewSuite(exp.Options{Scale: *scale, Seed: *seed, Workers: 1, Cache: store})
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtsim: %v\n", err)
		os.Exit(2)
	}
	r, err := suite.RunConfig(cfg)
	if perr := stopProf(); perr != nil {
		fmt.Fprintf(os.Stderr, "smtsim: %v\n", perr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtsim: %v\n", err)
		os.Exit(1)
	}
	if st, _ := suite.CacheStats(); st.Hits > 0 {
		fmt.Fprintf(os.Stderr, "smtsim: result from cache (%s)\n", store.Dir())
		if *cpuProfile != "" || *memProfile != "" {
			fmt.Fprintln(os.Stderr, "smtsim: cache hit, no simulation to profile; re-run with -no-cache")
		}
	} else if st.WriteErrors > 0 {
		fmt.Fprintf(os.Stderr, "smtsim: cache write failed, result not persisted (%s)\n", store.Dir())
	}

	c, m := r.Core, r.Mem
	fmt.Printf("config: %s, %d threads, %s fetch, %s memory, scale %.2f\n",
		cfg.ISA, cfg.Threads, cfg.Policy, cfg.Memory, *scale)
	fmt.Printf("programs: %d primaries completed, %d instances started\n", r.Completed, r.Started)
	fmt.Printf("cycles: %d\n", r.Cycles)
	fmt.Printf("throughput: IPC %.3f  equivalent-IPC %.3f  EIPC %.3f\n", r.IPC, r.EquivIPC, r.EIPC)
	fmt.Printf("committed: %d (%d stream-expanded)\n", c.Committed, c.CommittedEquiv)
	fmt.Printf("branches: %.1f%% prediction accuracy (%d mispredicts / %d conditional)\n",
		100*c.PredAccuracy(), c.Mispredicts, c.CondBranches)
	fmt.Printf("issue cycles: %.1f%% only-scalar, %.1f%% only-vector, %.1f%% mixed, %.1f%% idle\n",
		pct(c.CyclesOnlyScalar, r.Cycles), pct(c.CyclesOnlyVector, r.Cycles),
		pct(c.CyclesMixed, r.Cycles), pct(c.CyclesNoIssue, r.Cycles))
	fmt.Printf("dispatch stalls: window %d, rename %d, queues %d\n", c.ROBStalls, c.RenameStalls, c.QueueStalls)
	fmt.Printf("I-cache: %.2f%% hit\n", 100*m.ICHitRate())
	fmt.Printf("L1: %.2f%% hit (%d delayed, %d prefetches), avg load latency %.2f cycles\n",
		100*m.L1HitRate(), m.L1DelayedHits, m.L1Prefetches, m.AvgL1LoadLat())
	fmt.Printf("L2: %.2f%% hit; DRAM: %d reads, %d writes, %.1f%% row hits\n",
		100*m.L2HitRate(), m.DRAMReads, m.DRAMWrites, 100*m.DRAMRowHitRate())
	fmt.Printf("contention: %d bank conflicts, %d port rejects, %d MSHR-full, %d WB-full\n",
		m.L1BankConflicts, m.PortRejects, m.MSHRFull, m.WBFull)
	if cfg.Memory == mem.ModeDecoupled {
		fmt.Printf("vector path: %d wide L2 accesses, %d coherence invalidations, avg element latency %.1f\n",
			m.VecL2Direct, m.VecInvalidations, m.AvgVecLoadLat())
	}
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Package exp regenerates every table and figure of the paper's
// evaluation: Table 1 (architectural parameters), Table 2 (workload),
// Table 3 (instruction breakdown), Figure 4 (perfect cache), Figure 5
// (real memory), Table 4 (cache behaviour), Figure 6 (fetch policies),
// Figure 8 (fetch policies under the decoupled hierarchy), Figure 9
// (hierarchy comparison) and the headline speedup numbers, plus the
// ablation studies listed in DESIGN.md.
//
// A Suite resolves each config once, in one function and in sequence:
// read the Runner's store, execute on a miss, then persist and count
// the fresh result before any caller sees it.
package exp

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"mediasmt/internal/cache"
	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

// Options configures a suite run.
type Options struct {
	// Scale is the workload size relative to 1/1000 of the paper's
	// instruction counts. Experiments default to 1.0; benchmarks use
	// smaller values.
	Scale float64
	Seed  uint64
	// Workers caps how many simulations the suite runs concurrently:
	// it fans out to min(Workers, the executor's Workers()), and 0
	// means the executor's bound (GOMAXPROCS for NewSuite's private
	// local pool). Simulations are deterministic per config, so the
	// worker count changes wall clock, never results.
	Workers int
	// MaxCycles caps every simulation the suite builds; 0 keeps the
	// simulator's default safety stop (200M cycles). A capped-out
	// simulation fails with an error, failing exactly the experiments
	// that reference it — the CLI and CI use a tiny cap to exercise the
	// partial-failure path on demand.
	MaxCycles int64
	// Cache, when non-nil, persists simulation results on disk across
	// processes: the suite reads through it before executing and
	// writes each fresh result to it. Results are keyed on the same
	// canonical sim.Config.Key() as the in-memory singleflight map, so
	// a second suite over a warm cache executes zero simulations while
	// rendering byte-identical artifacts. Only the package-level
	// NewSuite consumes it; Runner.NewSuite rejects any store other
	// than the runner's own instead of silently dropping it.
	Cache *cache.Cache
}

// Suite is one job's resolver: simulation results are cached on the
// full configuration key so that experiments sharing configurations
// (Figure 5 and Table 4, for example) pay for each simulation once,
// even when requested concurrently. It runs through its Runner's
// executor, store and metrics, and keeps its own singleflight map and
// tallies.
type Suite struct {
	opts   Options
	runner *Runner

	mu      sync.Mutex
	entries map[string]*entry

	sims  atomic.Int64 // in-process simulations (see run)
	tally cacheTally   // this suite's cache events
}

// NewSuite builds a standalone suite over a private Runner. Zero-valued
// options mean "use the default" (Scale 1.0, Seed 12345, Workers
// GOMAXPROCS, MaxCycles 200M), the same contract as
// sim.Config.Normalize. Front-ends that take these values from user
// input (cmd/exps, internal/serve) must validate before building
// Options: an explicit out-of-range value should be refused there, not
// silently coerced here. Long-lived multi-job callers share one
// Runner and derive a suite per job with Runner.NewSuite instead.
func NewSuite(opts Options) *Suite {
	s, err := NewRunner(opts.Workers, opts.Cache).NewSuite(opts)
	if err != nil {
		// Unreachable: the runner was just built over opts.Cache, so
		// the store-conflict rejection cannot trip.
		panic(err)
	}
	return s
}

// Config builds the full simulation config for the suite's scale and
// seed. Experiments use it both to declare configs up front and to
// fetch results while rendering.
func (s *Suite) Config(isa core.ISAKind, threads int, pol core.Policy, mode mem.Mode) sim.Config {
	return sim.Config{
		ISA:       isa,
		Threads:   threads,
		Policy:    pol,
		Memory:    mode,
		Scale:     s.opts.Scale,
		Seed:      s.opts.Seed,
		MaxCycles: s.opts.MaxCycles,
	}
}

// RunConfig resolves one simulation, deduplicated and cached on the
// canonical config key. A fresh result is persisted and counted before
// the call returns. Safe for concurrent use.
func (s *Suite) RunConfig(cfg sim.Config) (*sim.Result, error) {
	return s.RunConfigContext(context.Background(), cfg)
}

// RunConfigContext is RunConfig honouring ctx: cancellation fails the
// call while waiting for a worker slot or an in-flight duplicate. A
// simulation already executing runs to completion (sim.Run is not
// interruptible) — its result still lands in the cache for the next
// caller.
func (s *Suite) RunConfigContext(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	r, err := s.run(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", cfg.Key(), err)
	}
	return r, nil
}

// Run executes one cached simulation at the suite's scale and seed.
func (s *Suite) Run(isa core.ISAKind, threads int, pol core.Policy, mode mem.Mode) (*sim.Result, error) {
	return s.RunConfig(s.Config(isa, threads, pol, mode))
}

// Simulations reports how many simulations the suite executed
// successfully in this process (cache hits, failed runs and runs on
// remote workers excluded). dist.Local marks each run on its call's
// tally, and the suite counts the marked ones, so the number is exact
// whatever wraps the executor and however many suites share it.
func (s *Suite) Simulations() int64 { return s.sims.Load() }

// CacheStats snapshots this suite's hit/miss/write counters against
// the persistent cache; ok is false when the suite runs uncached. The
// counters are per-suite even when the underlying store is shared
// across jobs through a Runner.
func (s *Suite) CacheStats() (st cache.Stats, ok bool) {
	return s.tally.stats(), s.runner.tier != nil
}

// Workers reports the concurrency bound the suite schedules under:
// min(Options.Workers, the executor's Workers()), or the executor's
// bound when Options.Workers is 0. It is read on every prefetch,
// because a StealPool's bound moves with membership.
func (s *Suite) Workers() int {
	n := s.runner.exec.Workers()
	if s.opts.Workers > 0 && s.opts.Workers < n {
		return s.opts.Workers
	}
	return n
}

// Experiment is one regenerable artifact. Configs, when non-nil,
// declares every simulation the experiment needs so a suite can fan
// them out over the worker pool before Run renders from the warm
// cache; experiments without simulations (the static tables) leave it
// nil.
type Experiment struct {
	ID      string
	Title   string
	Run     func(*Suite) (string, error)
	Configs func(*Suite) []sim.Config
}

// Experiments lists every artifact in paper order.
var Experiments = []Experiment{
	{ID: "table1", Title: "Table 1: architectural parameters vs. thread count", Run: (*Suite).Table1},
	{ID: "table2", Title: "Table 2: multiprogrammed workload description", Run: (*Suite).Table2},
	{ID: "table3", Title: "Table 3: instruction breakdown (%) and counts", Run: (*Suite).Table3},
	{ID: "fig4", Title: "Figure 4: performance with perfect cache", Run: (*Suite).Fig4, Configs: (*Suite).fig4Configs},
	{ID: "fig5", Title: "Figure 5: performance under real memory system", Run: (*Suite).Fig5, Configs: (*Suite).fig5Configs},
	{ID: "table4", Title: "Table 4: cache behaviour vs. thread count", Run: (*Suite).Table4, Configs: (*Suite).table4Configs},
	{ID: "fig6", Title: "Figure 6: impact of fetch policies (conventional L1)", Run: (*Suite).Fig6, Configs: (*Suite).fig6Configs},
	{ID: "fig8", Title: "Figure 8: fetch policies under the decoupled hierarchy", Run: (*Suite).Fig8, Configs: (*Suite).fig8Configs},
	{ID: "fig9", Title: "Figure 9: benefits of bypassing L1 on vector accesses", Run: (*Suite).Fig9, Configs: (*Suite).fig9Configs},
	{ID: "headline", Title: "Headline: speedups over the uni-threaded MMX superscalar", Run: (*Suite).Headline, Configs: (*Suite).headlineConfigs},
	{ID: "issuemix", Title: "Analysis: vector/scalar issue mix (section 5.3 claim)", Run: (*Suite).IssueMix, Configs: (*Suite).issueMixConfigs},
}

// ByID returns an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids in order.
func IDs() []string {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return ids
}

// table is a minimal fixed-width formatter.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func pc(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// threadCounts are the paper's evaluated machine sizes.
var threadCounts = []int{1, 2, 4, 8}

// policies are the paper's fetch policies in presentation order.
var policies = []core.Policy{core.PolicyRR, core.PolicyICOUNT, core.PolicyOCOUNT, core.PolicyBALANCE}

// configSet builds the cross product of the given axes at the suite's
// scale and seed, in a deterministic order.
func (s *Suite) configSet(isas []core.ISAKind, threads []int, pols []core.Policy, modes []mem.Mode) []sim.Config {
	var out []sim.Config
	for _, th := range threads {
		for _, k := range isas {
			for _, p := range pols {
				for _, m := range modes {
					out = append(out, s.Config(k, th, p, m))
				}
			}
		}
	}
	return out
}

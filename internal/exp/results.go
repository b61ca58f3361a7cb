package exp

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"mediasmt/internal/sim"
)

// Experiment statuses. Every ExperimentResult carries exactly one.
const (
	StatusOK     = "ok"     // rendered; Output is the artifact
	StatusFailed = "failed" // Err set; ConfigErrors lists failed simulations
)

// ConfigError records one failed simulation config by canonical key.
type ConfigError struct {
	Key string `json:"key"`
	Err string `json:"error"`
}

// ExperimentResult is one rendered artifact plus its bookkeeping. Each
// experiment is its own failure domain: Status reports whether it
// rendered, and ConfigErrors lists exactly the simulations (of the
// ones it declared) that failed — empty when the failure was in
// rendering itself.
type ExperimentResult struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Status  string  `json:"status"`
	Output  string  `json:"output"`
	Seconds float64 `json:"seconds"`
	Err     string  `json:"error,omitempty"`
	// ConfigErrors lists the experiment's failed simulation configs,
	// sorted by key.
	ConfigErrors []ConfigError `json:"config_errors,omitempty"`
}

// joinKeyErrors flattens a per-key error map into one errors.Join,
// naming every failed key in sorted (deterministic) order.
func joinKeyErrors(errs map[string]error) error {
	if len(errs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(errs))
	for k := range errs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	joined := make([]error, len(keys))
	for i, k := range keys {
		joined[i] = fmt.Errorf("%s: %w", k, errs[k])
	}
	return errors.Join(joined...)
}

// SimRecord is the flattened, emit-friendly summary of one simulation.
type SimRecord struct {
	Key       string  `json:"key"`
	ISA       string  `json:"isa"`
	Threads   int     `json:"threads"`
	Policy    string  `json:"policy"`
	Memory    string  `json:"memory"`
	Scale     float64 `json:"scale"`
	Seed      uint64  `json:"seed"`
	Cycles    int64   `json:"cycles"`
	IPC       float64 `json:"ipc"`
	EquivIPC  float64 `json:"equiv_ipc"`
	EIPC      float64 `json:"eipc"`
	Completed int     `json:"completed"`
	Started   int     `json:"started"`
	ICHitRate float64 `json:"icache_hit_rate"`
	L1HitRate float64 `json:"l1_hit_rate"`
	L2HitRate float64 `json:"l2_hit_rate"`
	AvgL1Lat  float64 `json:"avg_l1_load_latency"`
	// Overrides summarizes any core/memory parameter overrides, so
	// ablation-sweep rows stay distinguishable in structured output.
	Overrides string `json:"overrides,omitempty"`
}

// ResultSet is the structured output of a suite run: every rendered
// experiment plus the per-simulation metrics behind them.
type ResultSet struct {
	Scale       float64 `json:"scale"`
	Seed        uint64  `json:"seed"`
	Workers     int     `json:"workers"`
	Simulations int64   `json:"simulations"`
	// CacheHits/CacheMisses/CacheWrites report the persistent result
	// cache's activity; all zero when the suite ran uncached. Always
	// emitted (no omitempty) so JSON consumers can rely on the keys.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheWrites int64 `json:"cache_writes"`
	// Failed counts experiments whose Status is "failed"; FailedSims
	// counts unique simulation configs that errored. Both zero on a
	// fully green run (no omitempty, so consumers can rely on the keys).
	Failed      int                `json:"failed"`
	FailedSims  int                `json:"failed_sims"`
	WallSeconds float64            `json:"wall_seconds"`
	Experiments []ExperimentResult `json:"experiments"`
	Sims        []SimRecord        `json:"sims"`
}

// WriteJSON emits the full result set as indented JSON.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// csvHeader matches the row layout built inline in WriteCSV.
var csvHeader = []string{
	"key", "isa", "threads", "policy", "memory", "scale", "seed",
	"cycles", "ipc", "equiv_ipc", "eipc", "completed", "started",
	"icache_hit_rate", "l1_hit_rate", "l2_hit_rate", "avg_l1_load_latency",
	"overrides",
}

// WriteCSV emits the per-simulation metrics as CSV, one row per
// simulation, ordered by canonical key.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range rs.Sims {
		row := []string{
			r.Key, r.ISA, strconv.Itoa(r.Threads), r.Policy, r.Memory,
			strconv.FormatFloat(r.Scale, 'g', -1, 64), strconv.FormatUint(r.Seed, 10),
			strconv.FormatInt(r.Cycles, 10),
			strconv.FormatFloat(r.IPC, 'f', 6, 64),
			strconv.FormatFloat(r.EquivIPC, 'f', 6, 64),
			strconv.FormatFloat(r.EIPC, 'f', 6, 64),
			strconv.Itoa(r.Completed), strconv.Itoa(r.Started),
			strconv.FormatFloat(r.ICHitRate, 'f', 6, 64),
			strconv.FormatFloat(r.L1HitRate, 'f', 6, 64),
			strconv.FormatFloat(r.L2HitRate, 'f', 6, 64),
			strconv.FormatFloat(r.AvgL1Lat, 'f', 6, 64),
			r.Overrides,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SimRecords snapshots every completed simulation, ordered by key.
func (s *Suite) SimRecords() []SimRecord {
	results := s.completed()
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SimRecord, 0, len(keys))
	for _, k := range keys {
		r := results[k]
		cfg := r.Cfg.Normalize()
		out = append(out, SimRecord{
			Key:       k,
			ISA:       cfg.ISA.String(),
			Threads:   cfg.Threads,
			Policy:    cfg.Policy.String(),
			Memory:    cfg.Memory.String(),
			Scale:     cfg.Scale,
			Seed:      cfg.Seed,
			Cycles:    r.Cycles,
			IPC:       r.IPC,
			EquivIPC:  r.EquivIPC,
			EIPC:      r.EIPC,
			Completed: r.Completed,
			Started:   r.Started,
			ICHitRate: r.Mem.ICHitRate(),
			L1HitRate: r.Mem.L1HitRate(),
			L2HitRate: r.Mem.L2HitRate(),
			AvgL1Lat:  r.Mem.AvgL1LoadLat(),
			Overrides: strings.Join(cfg.OverrideStrings(), " "),
		})
	}
	return out
}

// Progress carries optional observers for a RunExperimentsContext
// call. Sim fires after each prefetched simulation settles, success or
// failure (err carries the failure); Experiment fires after each
// artifact renders or is marked failed. Both may be nil.
type Progress struct {
	Sim        func(done, total int, key string, err error)
	Experiment func(done, total int, res ExperimentResult)
}

// RunExperimentsContext resolves ids, fans every declared simulation
// out over the suite's worker pool, then renders each experiment in
// order from the warm cache. Rendering order — and therefore output —
// is independent of the worker count. Unknown ids fail up front,
// before any simulation, with a nil result set; see
// RunExperimentListContext for the failure and cancellation semantics.
func (s *Suite) RunExperimentsContext(ctx context.Context, ids []string, prog Progress) (*ResultSet, error) {
	exps := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			return nil, fmt.Errorf("exp: unknown experiment %q (have: %s)", id, strings.Join(IDs(), ", "))
		}
		exps = append(exps, e)
	}
	return s.RunExperimentListContext(ctx, exps, prog)
}

// RunExperimentListContext is the engine's single entry point — the
// CLI and the HTTP service both land here, through
// RunExperimentsContext or with an already-resolved custom artifact
// list. Each experiment is an isolated failure domain: every declared
// simulation is attempted, prefetch errors are partitioned onto
// exactly the experiments whose Configs reference the failed key, and
// every unaffected experiment renders in order, byte-identical to a
// fully green run. On any failure the full partial result set is
// returned alongside an errors.Join of one error per failed
// experiment, each naming its failed keys. Cancellation rides the same
// partition: a cancelled ctx fails every simulation not yet started
// with the context error, failing exactly the experiments that
// reference one, while experiments whose simulations all completed —
// and the config-free static tables — still render, so an interrupted
// run degrades to a partial one instead of losing finished work.
// Every result it executed is already persisted and counted when it
// returns.
func (s *Suite) RunExperimentListContext(ctx context.Context, exps []Experiment, prog Progress) (*ResultSet, error) {
	rs := &ResultSet{Scale: s.opts.Scale, Seed: s.opts.Seed, Workers: s.Workers()}
	start := time.Now()

	// Prefetch dedups by canonical key, so cross-experiment overlap
	// costs nothing and progress done/total counts unique simulations.
	declared := make([][]sim.Config, len(exps))
	var cfgs []sim.Config
	for i, e := range exps {
		if e.Configs != nil {
			declared[i] = e.Configs(s)
			cfgs = append(cfgs, declared[i]...)
		}
	}
	prefErrs := s.prefetch(ctx, cfgs, prog.Sim)
	rs.FailedSims = len(prefErrs)

	var errs []error
	for i, e := range exps {
		t0 := time.Now()
		res := ExperimentResult{ID: e.ID, Title: e.Title, Status: StatusOK}
		// Partition prefetch failures onto this experiment: collect the
		// failed keys among the configs it declared (deduplicated — the
		// declaration may repeat keys that normalize identically).
		uniqueDeclared := 0
		if len(prefErrs) > 0 && len(declared[i]) > 0 {
			seen := make(map[string]bool, len(declared[i]))
			for _, cfg := range declared[i] {
				k := cfg.Key()
				if seen[k] {
					continue
				}
				seen[k] = true
				if err, ok := prefErrs[k]; ok {
					res.ConfigErrors = append(res.ConfigErrors, ConfigError{Key: k, Err: err.Error()})
				}
			}
			uniqueDeclared = len(seen)
		}
		if len(res.ConfigErrors) > 0 {
			// Skip rendering: it would re-request the failed configs
			// (re-executing them, since errors are not cached) only to
			// fail again. The per-config errors are the diagnosis.
			sort.Slice(res.ConfigErrors, func(a, b int) bool { return res.ConfigErrors[a].Key < res.ConfigErrors[b].Key })
			res.Status = StatusFailed
			res.Err = fmt.Sprintf("%d of %d configs failed", len(res.ConfigErrors), uniqueDeclared)
			sub := make(map[string]error, len(res.ConfigErrors))
			for _, ce := range res.ConfigErrors {
				sub[ce.Key] = prefErrs[ce.Key]
			}
			errs = append(errs, fmt.Errorf("exp: %s: %w", e.ID, joinKeyErrors(sub)))
		} else if out, err := e.Run(s); err != nil {
			res.Status = StatusFailed
			res.Err = err.Error()
			errs = append(errs, fmt.Errorf("exp: %s: %w", e.ID, err))
		} else {
			res.Output = out
		}
		res.Seconds = time.Since(t0).Seconds()
		if res.Status == StatusFailed {
			rs.Failed++
			s.runner.met.expFailed.Inc()
		} else {
			s.runner.met.expOK.Inc()
		}
		rs.Experiments = append(rs.Experiments, res)
		if prog.Experiment != nil {
			prog.Experiment(i+1, len(exps), res)
		}
	}
	rs.Simulations = s.Simulations()
	if st, ok := s.CacheStats(); ok {
		rs.CacheHits, rs.CacheMisses, rs.CacheWrites = st.Hits, st.Misses, st.Writes
	}
	rs.Sims = s.SimRecords()
	rs.WallSeconds = time.Since(start).Seconds()
	return rs, errors.Join(errs...)
}

// Package mediasmt is a cycle-level simulator reproducing Corbal,
// Espasa and Valero, "DLP + TLP Processors for the Next Generation of
// Media Workloads" (HPCA 2001): simultaneous multithreading processors
// extended with either a conventional MMX-like μ-SIMD instruction set
// or the MOM streaming vector μ-SIMD instruction set, evaluated on a
// multiprogrammed MPEG-4-style media workload over ideal, conventional
// and decoupled memory hierarchies.
//
// Quickstart:
//
//	go build ./... && go test ./...
//	go run ./cmd/smtsim -isa mom -threads 8 -policy oc -mem decoupled
//	go run ./cmd/exps -run all -j 8 -json
//	go run ./cmd/expsd -addr :8344 -j 8
//
// The simulator is event-driven (sim.Version "mediasmt-sim-v3"): the
// run loop is a plain loop from one wakeup to the next — after each
// executed cycle the processor computes its next wakeup (earliest
// completion, stall horizon, unit-free time, or the memory system's
// NextEvent), and provably idle spans are jumped and accounted in one
// step. The original per-cycle tick loop is retained as
// sim.RunReference, the behavioural oracle: a cross-engine test matrix
// asserts both loops produce identical Results, down to the per-cycle
// issue-census counters, and a golden digest test pins the encoded
// Results of a fixed config matrix. Any change that could alter what a
// simulation produces — including engine restructurings proven
// result-identical — must bump sim.Version so the result cache
// sidelines stale entries.
//
// Simulation results persist across invocations in a content-addressed
// on-disk cache (internal/cache), keyed on the canonical config key
// plus a simulator-version fingerprint and defaulting to
// $XDG_CACHE_HOME/mediasmt: a repeated exps run executes zero
// simulations while rendering byte-identical tables. Disable with
// -no-cache, relocate with -cache-dir, drop entries outside the
// current fingerprint with `exps -cache-prune`; CI restores the same
// directory keyed on `exps -fingerprint`.
//
// Experiments are isolated failure domains: one failing simulation
// fails only the experiments referencing it, every unaffected table
// still renders byte-identical to a green run (failed ones get an
// explicit FAILED block; -json carries per-config error lists), and
// exps exits 0 on success, 1 on total failure, 2 on usage errors and
// 3 on partial failure.
//
// The same engine serves over HTTP: cmd/expsd accepts experiment
// submissions (POST /v1/jobs, validated with the same bounds as the
// exps flags), streams per-simulation progress as server-sent events
// (GET /v1/jobs/{id}/events), and serves finished result sets through
// the exps emitters (GET /v1/jobs/{id}/results) — the CSV is
// byte-identical to exps -csv for the same configs.
// All jobs share one worker pool and the on-disk cache, so an
// identical second submission completes with zero simulations
// executed. Jobs and POST /v1/sims also share the exp.Runner's bounded
// memory tier over that cache (up to 4096 results, about 5 MB, plus up
// to 16 rendered Table 3s), which lives as long as the process: a warm
// repeat reads memory, not disk, and deleting cache files under a
// running expsd no longer forces re-simulation (a restart does).
// Partial failures settle the job as "failed" with the
// offending config keys in its status view while every unaffected
// experiment still renders.
//
// The HTTP surface is versioned as "API v1" (see internal/serve):
// every non-2xx response is the one JSON error envelope
// {"error":{"code":...,"message":...}} with a stable machine code,
// GET /v1/healthz (legacy alias /healthz) and GET /v1/fingerprint
// share one status payload, GET /v1/jobs filters with ?status=, and
// GET /v1/metrics exposes process metrics in Prometheus text or JSON.
//
// Observability is strictly additive (internal/metrics, internal/obs):
// a dependency-free registry of atomic counters/gauges/histograms
// collects each finished simulation's exact cycles, instructions,
// dispatch-stall classes and cache/DRAM events from its sim.Result
// (nothing runs inside the simulation loop, so results do not depend
// on it), plus pool saturation, per-peer request latencies, and engine
// counters that reconcile exactly with the exps summary
// (mediasmt_sims_executed_total is the summary's simulation count):
// exp.Suite.run is the one place any front end resolves a config —
// exps, expsd jobs and /v1/sims, smtsim — and it writes and counts
// each fresh result, and counts each cache event, before any caller
// sees it.
// expsd always serves its registry on /v1/metrics; exps -metrics dumps
// the JSON snapshot to stderr.
//
// Where a simulation runs is a pluggable policy (internal/dist):
// every expsd is a worker (POST /v1/sims executes one config through
// its pool and cache). Both coordinators run one stack, a
// dist.StealPool that sends each simulation to the health-checked
// worker with the fewest requests in flight and runs a config locally
// when its worker fails or leaves: an expsd coordinator over the
// workers that register with it, and `exps -remote URL[,URL...]` over
// the workers it lists. A job counts
// only the simulations dist.Local runs for it, through a tally carried
// on the job's context, so while the workers serve every config the
// coordinator honestly reports 0 local simulations, whatever wraps its
// executor; its tables are byte-identical to a local run either way.
// Version skew is refused (409 on fingerprint mismatch) and fails over
// like any peer failure, and a simulation's own failure is never
// retried — it partitions onto its experiments exactly like a local
// failure.
//
// Performance is profiled and gated, not guessed: smtsim and exps
// take -cpuprofile/-memprofile (runtime/pprof, same formats as
// `go test`; the window covers the run, so profile with the cache
// off), expsd serves net/http/pprof under /debug/pprof/ behind its
// -pprof flag, per-stage microbenchmarks live next to internal/core
// and internal/mem, and CI diffs BenchmarkSimulatorThroughput's
// siminsts/s and allocs/op against a committed baseline with
// cmd/benchdiff. See README.md "Profiling & performance".
//
// The invariants above are enforced at lint time where possible:
// cmd/mediavet (internal/analysis) is a custom analyzer suite run by
// CI through `go vet -vettool` — simulator code must be deterministic
// (no wall clock, no unseeded randomness, no goroutines, no unsorted
// map iteration), internal/serve must speak the v1 error envelope,
// metric registrations must be constant snake_case names with
// conventional suffixes and no cross-package kind clashes, and
// sim.Run/RunReference stay behind the dist.Executor seam (only
// internal/dist and internal/obs call them). Suppress a
// finding with `//mediavet:ignore <reason>`. The analyzers check
// build-time properties only; a behavioural change still needs the
// sim.Version bump above.
//
// See README.md for the package layout, cmd/exps for regenerating
// every table and figure (deduplicated and fanned out over a worker
// pool), cmd/expsd for the HTTP service, and examples/ for runnable
// usage of the public packages.
package mediasmt

// Command perfbench is the repository's benchmark: end-to-end metrics
// of experiment campaigns, cold and warm, in-process and one HTTP hop
// away, plus per-layer metrics from a traced run. It drives only the
// entry points exps and expsd use (exp.Runner, dist executors,
// serve.Server) and hands them generated configs and requests; spans
// are recorded in this package, at the calls into each module.
//
//	bash perfbench/run.sh --workload cold-paper --seed 1 --seconds 20 --trace 0
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). BENCHMARK.json at the repository root documents every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// workloads maps --workload names to their drivers.
var workloads = map[string]func(*bench) error{
	"cold-paper":   runColdPaper,
	"cold-idle":    runColdIdle,
	"warm-service": runWarmService,
	"warm-remote":  runWarmRemote,
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints, in BENCHMARK.json
// order. Every workload measures each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"peak_rss_mb", "MB"},
}

// families are the span names the traced run records; each reports
// its count, busy time and failures.
var families = []string{
	"campaign", "exp.prefetch", "exp.render", "exp.flush",
	"dist.local", "dist.remote", "sim", "cache.get", "cache.put",
	"client.submit", "client.events", "client.results",
	"serve.submit", "serve.events", "serve.results", "serve.sims",
}

// perLayer lists the metrics a traced run prints, in BENCHMARK.json
// order. A layer that does no work in a workload's timed part reports
// 0, and so does a percentile with fewer than ten samples beyond it.
var perLayer = append([]metricDef{
	{"sim.ns_per_inst", "ns"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.share", "fraction"},
	{"sim.insts", "count"},
	{"sim.cycles", "count"},
	{"sim.noissue_frac", "fraction"},
	{"mem.l1_hit_rate", "fraction"},
	{"mem.dram_reads_per_kinst", "count"},
	{"dist.local_wait_us_p50", "us"},
	{"dist.remote_ms_p50", "ms"},
	{"dist.remote_ms_p99", "ms"},
	{"dist.remote_overhead_ms_p50", "ms"},
	{"exp.prefetch_ms", "ms"},
	{"exp.render_ms", "ms"},
	{"exp.flush_ms", "ms"},
	{"cache.get_us_p50", "us"},
	{"cache.get_us_p90", "us"},
	{"cache.put_ms_p50", "ms"},
	{"cache.entry_kb", "KB"},
	{"cache.hit_ratio", "fraction"},
	{"serve.job_ms_p90", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.results_ms_p50", "ms"},
	{"serve.sse_events_per_job", "count"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.sims_ms_p50", "ms"},
	{"serve.sims_ms_p99", "ms"},
	{"trace.ops", "count"},
	{"trace.campaign_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}, familyMetrics()...)

func familyMetrics() []metricDef {
	var out []metricDef
	for _, f := range families {
		out = append(out,
			metricDef{"span." + f + ".count", "count"},
			metricDef{"span." + f + ".busy_ms", "ms"},
			metricDef{"span." + f + ".failures", "count"})
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	dir      string    // scratch space inside the checkout, removed at exit
	rec      *recorder // nil unless --trace 1
	ops      tally
	values   map[string]float64
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// timeSetup runs setup n times and records the median as setup_s.
// Each setup returns the cleanup for what it built; every set-up but
// the last is cleaned up at once, and the last one's cleanup is
// returned for after the timed part.
func (b *bench) timeSetup(n int, setup func() (func(), error)) (func(), error) {
	var ds []float64
	cleanup := func() {}
	for i := 0; i < n; i++ {
		cleanup()
		t0 := time.Now()
		c, err := setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
		cleanup = c
	}
	b.setSetup(ds)
	return cleanup, nil
}

// setSetup records the median of a run's set-up times as setup_s.
func (b *bench) setSetup(ds []float64) {
	b.set("setup_s", median(ds))
	fmt.Fprintf(os.Stderr, "perfbench: set-up %.6g s, median of %.4g s\n", median(ds), ds)
}

// measure runs op back to back (a closed loop) until the run's time is
// up, at least once. op reports how long the operation took from
// submission to rendered output, and an error when it failed or its
// output failed a check. A traced run alternates traced and untraced
// operations, passing the recorder only to the traced ones, so that
// the two medians give the tracing overhead. Failed operations
// contribute no timing.
func (b *bench) measure(what string, op func(rec *recorder) (time.Duration, error)) (plain, traced []float64) {
	minOps := 1
	if b.rec != nil {
		minOps = 2
	}
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < b.seconds; i++ {
		var rec *recorder
		if b.rec != nil && i%2 == 0 {
			rec = b.rec
		}
		d, err := op(rec)
		if !b.ops.record(what, err) {
			continue
		}
		if rec != nil {
			traced = append(traced, d.Seconds())
		} else {
			plain = append(plain, d.Seconds())
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d %ss: median %.6g s untraced (%d), %.6g s traced (%d)\n",
		len(plain)+len(traced), what, median(plain), len(plain), median(traced), len(traced))
	if len(plain)+len(traced) <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: untraced %.4g s, traced %.4g s\n", plain, traced)
	}
	b.set("campaign_s", median(plain))
	if b.rec != nil {
		b.set("trace.ops", float64(len(traced)))
		b.set("trace.campaign_s", median(traced))
		if m := median(plain); m > 0 {
			b.set("trace.overhead_ratio", median(traced)/m)
		}
	}
	return plain, traced
}

// peakRSSMB reports the process's high-water resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run (cold-paper, cold-idle, warm-service, warm-remote)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the timed part runs")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}

	// Scratch space lives in the checkout (the benchmark touches
	// nothing outside it) and goes when the run ends.
	const root = ".bench_build"
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		dir: dir, values: make(map[string]float64)}
	if *trace == 1 {
		b.rec = newRecorder()
	}
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	defs := endToEnd
	if b.rec != nil {
		defs = perLayer
		b.layerMetrics()
		path := filepath.Join(root, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := b.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans in %s\n", path)
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		b.set("peak_rss_mb", rss)
	}
	rep := report{Correct: b.ops.failed == 0, Attempted: b.ops.attempted, Failed: b.ops.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		rep.Metrics[d.name] = metric{Value: b.values[d.name], Unit: d.unit}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

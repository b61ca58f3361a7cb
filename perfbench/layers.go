package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"mediasmt/internal/cache"
	"mediasmt/internal/sim"
)

// setPercentile records a percentile of xs, or leaves the metric at 0
// when percentile refuses it (too few samples beyond it), saying so.
func (b *bench) setPercentile(name string, xs []float64, q float64) {
	if v, ok := percentile(xs, q); ok {
		b.set(name, v)
	} else if len(xs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s refused: %d samples leave fewer than %d beyond it\n", name, len(xs), minBeyond)
	}
}

// layerMetrics derives the per-layer metrics from the recorded spans.
func (b *bench) layerMetrics() {
	spans := b.rec.snapshot()
	byName := make(map[string][]span)
	children := make(map[int64][]interval)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 }
	durs := func(name string, unit func(time.Duration) float64) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, unit(s.dur()))
		}
		return out
	}
	selfs := func(name string, unit func(time.Duration) float64) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, unit(selfTime(interval{s.Start, s.End}, children[s.ID])))
		}
		return out
	}
	// perRoot sums a family's durations under each campaign root, for
	// the roots that have any.
	perRoot := func(name string) []float64 {
		sum := make(map[int64]time.Duration)
		for _, s := range byName[name] {
			sum[s.Parent] += s.dur()
		}
		var out []float64
		for _, root := range byName["campaign"] {
			if d, ok := sum[root.ID]; ok {
				out = append(out, ms(d))
			}
		}
		return out
	}

	for _, f := range families {
		var busy time.Duration
		failures := 0
		for _, s := range byName[f] {
			busy += s.dur()
			if s.Failed {
				failures++
			}
		}
		b.set("span."+f+".count", float64(len(byName[f])))
		b.set("span."+f+".busy_ms", ms(busy))
		b.set("span."+f+".failures", float64(failures))
	}

	var simTime, rootTime time.Duration
	var insts, cycles int64
	for _, s := range byName["sim"] {
		simTime += s.dur()
		insts += s.Insts
		cycles += s.Cycles
	}
	for _, s := range byName["campaign"] {
		rootTime += s.dur()
	}
	if insts > 0 {
		b.set("sim.ns_per_inst", float64(simTime.Nanoseconds())/float64(insts))
	}
	if cycles > 0 {
		b.set("sim.ns_per_cycle", float64(simTime.Nanoseconds())/float64(cycles))
	}
	if rootTime > 0 {
		b.set("sim.share", simTime.Seconds()/rootTime.Seconds())
	}

	b.setPercentile("dist.local_wait_us_p50", selfs("dist.local", us), 0.5)
	b.setPercentile("dist.remote_ms_p50", durs("dist.remote", ms), 0.5)
	b.setPercentile("dist.remote_ms_p99", durs("dist.remote", ms), 0.99)
	b.setPercentile("dist.remote_overhead_ms_p50", selfs("dist.remote", ms), 0.5)

	b.set("exp.prefetch_ms", median(perRoot("exp.prefetch")))
	b.set("exp.render_ms", median(perRoot("exp.render")))
	b.set("exp.flush_ms", median(perRoot("exp.flush")))

	b.setPercentile("cache.get_us_p50", durs("cache.get", us), 0.5)
	b.setPercentile("cache.get_us_p90", durs("cache.get", us), 0.9)
	b.setPercentile("cache.put_ms_p50", durs("cache.put", ms), 0.5)

	b.setPercentile("serve.submit_ms_p50", durs("serve.submit", ms), 0.5)
	b.setPercentile("serve.results_ms_p50", durs("serve.results", ms), 0.5)
	b.setPercentile("serve.sims_ms_p50", durs("serve.sims", ms), 0.5)
	b.setPercentile("serve.sims_ms_p99", durs("serve.sims", ms), 0.99)
}

// probeCache times direct Cache.Get and Cache.Put calls. The engine's
// own calls go through the concrete *cache.Cache inside exp.Runner and
// cannot be wrapped from outside, so the probe repeats them: Gets read
// every key of store several times over, Puts write the results into a
// fresh store, whose entries give the mean entry size.
func (b *bench) probeCache(store *cache.Cache, keys []string) error {
	const passes = 5
	results := make([]*sim.Result, len(keys))
	for p := 0; p < passes; p++ {
		for i, k := range keys {
			sp := b.rec.start("cache.get", 0, k)
			r, ok := store.Get(k)
			sp.finish(!ok)
			if !ok {
				return fmt.Errorf("cache probe: no entry for %s", k)
			}
			results[i] = r
		}
	}
	scratch, err := cache.Open(filepath.Join(b.dir, "probe"))
	if err != nil {
		return err
	}
	for i, k := range keys {
		sp := b.rec.start("cache.put", 0, k)
		err := scratch.Put(k, results[i])
		sp.finish(err != nil)
		if err != nil {
			return err
		}
	}
	var total int64
	var entries int
	err = filepath.WalkDir(scratch.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
			entries++
		}
		return err
	})
	if err != nil {
		return err
	}
	if entries != len(keys) {
		return fmt.Errorf("cache probe: %d entries written for %d keys", entries, len(keys))
	}
	b.set("cache.entry_kb", float64(total)/float64(entries)/1024)
	return nil
}

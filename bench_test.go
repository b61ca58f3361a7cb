// Simulator throughput benchmarks. CI gates BenchmarkSimulatorThroughput
// against BENCH_baseline.json with cmd/benchdiff; the reference-engine
// twin shows what the event engine saves. Campaign-level timings live
// in the repository benchmark (perfbench), and per-stage timings next
// to internal/core and internal/mem.
package mediasmt_test

import (
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

// benchScale keeps every benchmark iteration in the tens of
// milliseconds; the experiment harness defaults to scale 1.0.
const benchScale = 0.04

// BenchmarkSimulatorThroughput measures raw simulation speed
// (simulated instructions per wall second) for profiling the simulator
// itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var insts, cycles int64
	for i := 0; i < b.N; i++ {
		r, err := sim.Run(sim.Config{
			ISA: core.ISAMMX, Threads: 4, Policy: core.PolicyRR,
			Memory: mem.ModeConventional, Scale: benchScale, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		insts += r.Core.Committed
		cycles += r.Cycles
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "siminsts/s")
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkSimulatorThroughputReference runs the same configuration on
// the retained per-cycle reference engine. The gap between this and
// BenchmarkSimulatorThroughput is the event engine's speedup; if it
// ever collapses toward 1×, NextWakeup has stopped finding skippable
// spans.
func BenchmarkSimulatorThroughputReference(b *testing.B) {
	b.ReportAllocs()
	var insts, cycles int64
	for i := 0; i < b.N; i++ {
		r, err := sim.RunReference(sim.Config{
			ISA: core.ISAMMX, Threads: 4, Policy: core.PolicyRR,
			Memory: mem.ModeConventional, Scale: benchScale, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		insts += r.Core.Committed
		cycles += r.Cycles
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "siminsts/s")
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

package sim

// Cross-engine golden equivalence: the event-driven engine (Run) must
// produce bit-identical results to the retained per-cycle reference
// engine (RunReference) — not statistically similar, identical. The
// matrix covers ISA × threads × fetch policy × memory mode at test
// scale, and the comparison covers every field of the Result,
// including the per-cycle issue census (CyclesNoIssue /
// CyclesOnlyVector / CyclesOnlyScalar / CyclesMixed), which is exactly
// where a mis-accounted skipped span would show up.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
)

// assertResultsIdentical compares two results field by field so a
// divergence names the exact counter that drifted.
func assertResultsIdentical(t *testing.T, ref, ev *Result) {
	t.Helper()
	if ref.Cycles != ev.Cycles {
		t.Errorf("Cycles: reference %d, event %d", ref.Cycles, ev.Cycles)
	}
	if ref.Completed != ev.Completed || ref.Started != ev.Started {
		t.Errorf("programs: reference %d/%d, event %d/%d (completed/started)",
			ref.Completed, ref.Started, ev.Completed, ev.Started)
	}
	rc, ec := reflect.ValueOf(ref.Core), reflect.ValueOf(ev.Core)
	for i := 0; i < rc.NumField(); i++ {
		name := rc.Type().Field(i).Name
		if !reflect.DeepEqual(rc.Field(i).Interface(), ec.Field(i).Interface()) {
			t.Errorf("Core.%s: reference %v, event %v", name, rc.Field(i).Interface(), ec.Field(i).Interface())
		}
	}
	rm, em := reflect.ValueOf(ref.Mem), reflect.ValueOf(ev.Mem)
	for i := 0; i < rm.NumField(); i++ {
		name := rm.Type().Field(i).Name
		if !reflect.DeepEqual(rm.Field(i).Interface(), em.Field(i).Interface()) {
			t.Errorf("Mem.%s: reference %v, event %v", name, rm.Field(i).Interface(), em.Field(i).Interface())
		}
	}
	if ref.IPC != ev.IPC || ref.EquivIPC != ev.EquivIPC || ref.EIPC != ev.EIPC {
		t.Errorf("throughput: reference IPC=%v EquivIPC=%v EIPC=%v, event IPC=%v EquivIPC=%v EIPC=%v",
			ref.IPC, ref.EquivIPC, ref.EIPC, ev.IPC, ev.EquivIPC, ev.EIPC)
	}
}

func runBoth(t *testing.T, cfg Config) (*Result, *Result) {
	t.Helper()
	ref, err := RunReference(cfg)
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	ev, err := Run(cfg)
	if err != nil {
		t.Fatalf("event engine: %v", err)
	}
	return ref, ev
}

// TestEngineEquivalenceMatrix is the golden matrix: every combination
// of ISA, thread count, fetch policy and memory mode the experiment
// suite exercises, at a scale small enough to run the slow reference
// engine for each, plus rows whose DRAM controller queue holds one or
// two reads, so that L2 MSHRs wait for room and retry (a path the
// default queue never takes).
func TestEngineEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix runs the per-cycle reference engine; skipped with -short")
	}
	check := func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref, ev := runBoth(t, cfg)
			assertResultsIdentical(t, ref, ev)
		})
	}
	for _, isa := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, mode := range []mem.Mode{mem.ModeConventional, mem.ModeDecoupled} {
			for _, queueCap := range []int{1, 2} {
				mcfg := mem.DefaultConfig(mode)
				mcfg.DRAM.QueueCap = queueCap
				check(fmt.Sprintf("%v-8T-%v-%v-dramq%d", isa, core.PolicyICOUNT, mode, queueCap), Config{
					ISA: isa, Threads: 8, Policy: core.PolicyICOUNT, Memory: mode,
					Scale: 0.02, Seed: 7, MaxCycles: 20_000_000, MemOverride: &mcfg,
				})
			}
		}
	}
	for _, isa := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, threads := range []int{1, 2, 4, 8} {
			for _, pol := range []core.Policy{core.PolicyRR, core.PolicyICOUNT, core.PolicyOCOUNT, core.PolicyBALANCE} {
				for _, mode := range []mem.Mode{mem.ModeIdeal, mem.ModeConventional, mem.ModeDecoupled} {
					// One policy sweep at every (ISA, mode) on 8 threads
					// (policies only differentiate under contention), RR
					// elsewhere: full cross-product costs minutes of
					// reference-engine time without covering more code.
					if pol != core.PolicyRR && threads != 8 {
						continue
					}
					check(fmt.Sprintf("%v-%dT-%v-%v", isa, threads, pol, mode), Config{
						ISA: isa, Threads: threads, Policy: pol, Memory: mode,
						Scale: 0.02, Seed: 7, MaxCycles: 20_000_000,
					})
				}
			}
		}
	}
}

// TestEngineEquivalenceSkippedSpanCensus pins the issue-census
// accounting on a memory-bound configuration, where the event engine
// skips the most cycles: the skipped spans must land in CyclesNoIssue
// and the census categories must sum to the cycle count under both
// engines.
func TestEngineEquivalenceSkippedSpanCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the per-cycle reference engine; skipped with -short")
	}
	cfg := Config{
		ISA: core.ISAMMX, Threads: 4, Policy: core.PolicyRR,
		Memory: mem.ModeConventional, Scale: 0.05, Seed: 42,
	}
	ref, ev := runBoth(t, cfg)
	for _, r := range []*Result{ref, ev} {
		sum := r.Core.CyclesNoIssue + r.Core.CyclesOnlyVector + r.Core.CyclesOnlyScalar + r.Core.CyclesMixed
		if sum != r.Core.Cycles {
			t.Errorf("issue census sums to %d, want Cycles=%d", sum, r.Core.Cycles)
		}
	}
	assertResultsIdentical(t, ref, ev)
	if ev.Core.CyclesNoIssue == 0 {
		t.Error("memory-bound run reports zero no-issue cycles; census accounting is broken")
	}
}

// TestEngineEquivalenceMaxCyclesPath pins the incomplete-run path:
// when the cycle cap trips, both engines must report the same cycle
// count (the cap), the same committed work, and the same error shape.
func TestEngineEquivalenceMaxCyclesPath(t *testing.T) {
	cfg := Config{
		ISA: core.ISAMMX, Threads: 2, Policy: core.PolicyRR,
		Memory: mem.ModeConventional, Scale: 1, Seed: 42, MaxCycles: 30_000,
	}
	ref, errRef := RunReference(cfg)
	ev, errEv := Run(cfg)
	if errRef == nil || errEv == nil {
		t.Fatalf("both engines must hit the cap: reference err=%v, event err=%v", errRef, errEv)
	}
	if ref.Cycles != cfg.MaxCycles || ev.Cycles != cfg.MaxCycles {
		t.Errorf("capped runs must account every cycle up to the cap: reference %d, event %d, cap %d",
			ref.Cycles, ev.Cycles, cfg.MaxCycles)
	}
	assertResultsIdentical(t, ref, ev)
}

// TestEngineEquivalenceCustomProgramList covers the wrap-around
// relaunch path with a short program list and overridden core/memory
// configs (the ablation path).
func TestEngineEquivalenceCustomProgramList(t *testing.T) {
	ccfg := core.ConfigForThreads(core.ISAMOM, 2)
	ccfg.CommitWidth = 4
	mcfg := mem.DefaultConfig(mem.ModeConventional)
	mcfg.WBDepth = 4
	cfg := Config{
		ISA: core.ISAMOM, Threads: 2, Policy: core.PolicyOCOUNT,
		Memory: mem.ModeConventional, Scale: 0.02, Seed: 3,
		CoreOverride: &ccfg, MemOverride: &mcfg,
		Programs: []string{"gsmdec", "jpegdec", "mpeg2dec"},
	}
	ref, ev := runBoth(t, cfg)
	assertResultsIdentical(t, ref, ev)
}

// TestRunRejectsUnknownProgram pins the launch-failure fix: a bad
// Programs override, naming an unknown benchmark or empty (which
// divided by zero choosing the first program), must surface as an
// error from Run — one failure domain in the experiment engine's
// per-key partitioning — never as a panic in a scheduler worker.
func TestRunRejectsUnknownProgram(t *testing.T) {
	for _, progs := range [][]string{{"gsmdec", "no-such-benchmark"}, {}} {
		for _, run := range []func(Config) (*Result, error){Run, RunReference} {
			r, err := run(Config{
				ISA: core.ISAMMX, Threads: 1, Memory: mem.ModeIdeal,
				Programs: progs,
			})
			if err == nil || !strings.Contains(err.Error(), "program list") {
				t.Fatalf("program list %q: err = %v, want a program list error", progs, err)
			}
			if r != nil {
				t.Errorf("failed config must not return a result, got %+v", r)
			}
		}
	}
}

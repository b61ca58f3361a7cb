package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"mediasmt/internal/exp"
	"mediasmt/internal/sim"
	"mediasmt/internal/workload"
)

// tally counts the run's operations (campaigns, jobs, /v1/sims
// requests). An operation that errors, or whose output fails a check,
// counts as failed.
type tally struct{ attempted, failed int }

// record counts one operation and reports whether it succeeded.
func (t *tally) record(what string, err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
	}
	return false
}

// checkResult enforces the conservation laws every sim.Result obeys:
// the issue census partitions the cycles, per-thread commits sum to the
// total, nothing commits that was not fetched, and every program of the
// list completed.
func checkResult(r *sim.Result) error {
	if r == nil {
		return errors.New("nil result")
	}
	c := &r.Core
	var errs []error
	if got := c.CyclesOnlyVector + c.CyclesOnlyScalar + c.CyclesMixed + c.CyclesNoIssue; got != c.Cycles {
		errs = append(errs, fmt.Errorf("issue census sums to %d cycles, want %d", got, c.Cycles))
	}
	var perThread int64
	for _, n := range c.PerThreadCommitted {
		perThread += n
	}
	if perThread != c.Committed {
		errs = append(errs, fmt.Errorf("per-thread commits sum to %d, want %d", perThread, c.Committed))
	}
	if c.Committed > c.Fetched {
		errs = append(errs, fmt.Errorf("committed %d > fetched %d", c.Committed, c.Fetched))
	}
	programs := len(r.Cfg.Programs)
	if r.Cfg.Programs == nil {
		programs = len(workload.RunOrder)
	}
	if r.Completed != programs {
		errs = append(errs, fmt.Errorf("completed %d of %d programs", r.Completed, programs))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("%s: %w", r.Cfg.Key(), err)
	}
	return nil
}

// compareCSV requires got to be byte-identical to want.
func compareCSV(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	at := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			at = i
			break
		}
	}
	return fmt.Errorf("CSV differs from the reference at byte %d (%d bytes, want %d)", at, len(got), len(want))
}

// modelled is a campaign's simulated work, summed over its results. It
// depends only on the configs, so it must repeat exactly across
// campaigns, runs and tracing; a speed-only change that moves it has
// changed the model.
type modelled struct {
	Insts, Cycles, NoIssue, L1Accesses, L1Hits, DRAMReads int64
}

func (m *modelled) add(r *sim.Result) {
	m.Insts += r.Core.Committed
	m.Cycles += r.Cycles
	m.NoIssue += r.Core.CyclesNoIssue
	m.L1Accesses += r.Mem.L1Accesses
	m.L1Hits += r.Mem.L1Hits + r.Mem.L1DelayedHits + r.Mem.L1WBForwards
	m.DRAMReads += r.Mem.DRAMReads
}

// checkResults checks every result and sums their modelled work.
func checkResults(results []*sim.Result) (modelled, error) {
	var m modelled
	var errs []error
	for _, r := range results {
		if err := checkResult(r); err != nil {
			errs = append(errs, err)
			continue
		}
		m.add(r)
	}
	return m, errors.Join(errs...)
}

// sameWork reads a campaign's results back from its suite (executing
// nothing), checks each one, and requires their modelled work to equal
// the first campaign's, which *first records.
func sameWork(s *exp.Suite, cfgs []sim.Config, first **modelled) error {
	before := s.Simulations()
	results := make([]*sim.Result, 0, len(cfgs))
	for _, c := range cfgs {
		r, err := s.RunConfig(c)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	if s.Simulations() != before {
		return errors.New("reading results back executed simulations")
	}
	m, err := checkResults(results)
	if err != nil {
		return err
	}
	if *first == nil {
		*first = &m
	} else if m != **first {
		return fmt.Errorf("modelled work %+v differs from the first campaign's %+v", m, **first)
	}
	return nil
}

// setModelled reports a campaign's modelled work.
func (b *bench) setModelled(m modelled) {
	b.set("sim.insts", float64(m.Insts))
	b.set("sim.cycles", float64(m.Cycles))
	if m.Cycles > 0 {
		b.set("sim.noissue_frac", float64(m.NoIssue)/float64(m.Cycles))
	}
	if m.L1Accesses > 0 {
		b.set("mem.l1_hit_rate", float64(m.L1Hits)/float64(m.L1Accesses))
	}
	if m.Insts > 0 {
		b.set("mem.dram_reads_per_kinst", float64(m.DRAMReads)/(float64(m.Insts)/1000))
	}
}

package core

import (
	"fmt"
	"testing"

	"mediasmt/internal/mem"
	"mediasmt/internal/workload"
)

// checkSummaries recomputes every summary the pipeline maintains
// incrementally from the structures underneath it and reports the
// first that disagrees.
func (p *Processor) checkSummaries() error {
	var headDone, fetchable uint64
	for i := range p.threads {
		th := &p.threads[i]
		if th.robCount > 0 && th.rob[th.robHead].completed {
			headDone |= 1 << i
		}
		if !th.idle && th.hasPend && !th.fetchBlocked && th.fqCount < p.cfg.FetchQCap {
			fetchable |= 1 << i
		}
		if e := th.fqFront(); th.fqCount > 0 && (e.qid != th.headQid || e.in.Dst != th.headDst) {
			return fmt.Errorf("thread %d fetch-queue head copy (queue %d, dst %v), head entry says (%d, %v)",
				i, th.headQid, th.headDst, e.qid, e.in.Dst)
		}
	}
	if headDone != p.headDone {
		return fmt.Errorf("ROB-head mask %b, ROB heads say %b", p.headDone, headDone)
	}
	if fetchable != p.fetchable {
		return fmt.Errorf("fetchable mask %b, thread states say %b", p.fetchable, fetchable)
	}
	nextDone := NoWakeup
	for _, u := range p.inflight {
		nextDone = min(nextDone, u.doneAt)
	}
	if nextDone != p.nextDone {
		return fmt.Errorf("earliest completion %d, inflight says %d", p.nextDone, nextDone)
	}
	var fullQ uint8
	for qid, q := range p.q {
		if len(q) >= p.qCap[qid] {
			fullQ |= 1 << qid
		}
		ready := 0
		for _, u := range q {
			if u.waitCount == 0 {
				ready++
			}
		}
		if ready != p.readyCount[qid] {
			return fmt.Errorf("queue %d ready count %d, queue says %d", qid, p.readyCount[qid], ready)
		}
	}
	if fullQ != p.fullQ {
		return fmt.Errorf("full-queue mask %04b, queue lengths say %04b", p.fullQ, fullQ)
	}
	return nil
}

// TestSummariesMatchStructures steps processors running the paper's
// programs one cycle at a time and, after every Cycle, checks each
// maintained summary against a recomputation from scratch.
func TestSummariesMatchStructures(t *testing.T) {
	for _, isa := range []struct {
		kind ISAKind
		v    workload.Variant
	}{{ISAMMX, workload.MMX}, {ISAMOM, workload.MOM}} {
		for _, threads := range []int{1, 8} {
			for _, mode := range []mem.Mode{mem.ModeIdeal, mem.ModeConventional, mem.ModeDecoupled} {
				t.Run(fmt.Sprintf("%v-%dT-%v", isa.kind, threads, mode), func(t *testing.T) {
					t.Parallel()
					p, err := New(ConfigForThreads(isa.kind, threads), mem.New(mem.DefaultConfig(mode)))
					if err != nil {
						t.Fatal(err)
					}
					for ctx := 0; ctx < threads; ctx++ {
						b := workload.MustGet(workload.RunOrder[ctx])
						p.SetProgram(ctx, b.Program(isa.v, uint64(ctx+1), uint64(ctx+1)<<33, 0.1), 1)
					}
					for p.Busy() && p.Now() < 2_000_000 {
						p.Cycle()
						if err := p.checkSummaries(); err != nil {
							t.Fatalf("after cycle %d: %v", p.Now()-1, err)
						}
					}
					if p.Busy() {
						t.Fatal("programs did not drain")
					}
				})
			}
		}
	}
}

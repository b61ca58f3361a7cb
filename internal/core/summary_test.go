package core_test

import (
	"fmt"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/workload"
)

// TestSummariesMatchStructures steps processors running the paper's
// programs one cycle at a time and, after every Cycle, checks each
// maintained summary against a recomputation from scratch.
func TestSummariesMatchStructures(t *testing.T) {
	for _, isa := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, threads := range []int{1, 8} {
			for _, mode := range []mem.Mode{mem.ModeIdeal, mem.ModeConventional, mem.ModeDecoupled} {
				t.Run(fmt.Sprintf("%v-%dT-%v", isa, threads, mode), func(t *testing.T) {
					t.Parallel()
					p, err := core.New(core.ConfigForThreads(isa, threads), mem.New(mem.DefaultConfig(mode)))
					if err != nil {
						t.Fatal(err)
					}
					for ctx := 0; ctx < threads; ctx++ {
						b := workload.MustGet(workload.RunOrder[ctx])
						p.SetProgram(ctx, b.Program(isa, uint64(ctx+1), uint64(ctx+1)<<33, 0.1), 1)
					}
					for p.Busy() && p.Now() < 2_000_000 {
						p.Cycle()
						if err := core.CheckSummaries(p); err != nil {
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

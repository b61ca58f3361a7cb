package mem_test

import (
	"fmt"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/workload"
)

// TestHorizonsMatchQueues steps processors running the paper's
// programs one cycle at a time over every memory organization and,
// after every Cycle, checks the memory system's maintained horizons
// against a recomputation from its queues.
func TestHorizonsMatchQueues(t *testing.T) {
	for _, isa := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, threads := range []int{1, 8} {
			for _, mode := range []mem.Mode{mem.ModeIdeal, mem.ModeConventional, mem.ModeDecoupled} {
				t.Run(fmt.Sprintf("%v-%dT-%v", isa, threads, mode), func(t *testing.T) {
					t.Parallel()
					msys := mem.New(mem.DefaultConfig(mode))
					p, err := core.New(core.ConfigForThreads(isa, threads), msys)
					if err != nil {
						t.Fatal(err)
					}
					for ctx := 0; ctx < threads; ctx++ {
						b := workload.MustGet(workload.RunOrder[ctx])
						p.SetProgram(ctx, b.Program(isa, uint64(ctx+1), uint64(ctx+1)<<33, 0.1), 1)
					}
					for p.Busy() && p.Now() < 2_000_000 {
						p.Cycle()
						if err := mem.CheckHorizons(msys); err != nil {
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

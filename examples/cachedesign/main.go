// cachedesign explores the decoupled cache hierarchy of section 5.4:
// vector memory accesses bypass L1 into a banked L2 through dedicated
// ports, with an exclusive-bit coherence policy. The example compares
// the conventional and decoupled hierarchies at 8 threads and then runs
// an ablation over the number of vector ports — one of the design
// knobs DESIGN.md calls out.
package main

import (
	"fmt"
	"log"

	"mediasmt/internal/core"
	"mediasmt/internal/exp"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

var suite = exp.NewSuite(exp.Options{Scale: 0.5})

func main() {
	fmt.Println("hierarchy comparison at 8 threads (best fetch policies):")
	for _, k := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		pol := core.PolicyICOUNT
		if k == core.ISAMOM {
			pol = core.PolicyOCOUNT
		}
		conv := run(k, pol, mem.ModeConventional, nil)
		dec := run(k, pol, mem.ModeDecoupled, nil)
		fmt.Printf("  %-4s conventional %6.2f | decoupled %6.2f (%+5.1f%%)\n",
			k, metric(conv), metric(dec), 100*(metric(dec)/metric(conv)-1))
	}

	fmt.Println()
	fmt.Println("ablation: vector ports into L2 (SMT+MOM, 8 threads, OCOUNT):")
	for _, ports := range []int{1, 2, 4} {
		mcfg := mem.DefaultConfig(mem.ModeDecoupled)
		mcfg.VectorPorts = ports
		r := run(core.ISAMOM, core.PolicyOCOUNT, mem.ModeDecoupled, &mcfg)
		fmt.Printf("  %d ports: EIPC %6.2f (avg vector element latency %.1f cycles)\n",
			ports, r.EIPC, r.Mem.AvgVecLoadLat())
	}
}

func run(k core.ISAKind, pol core.Policy, mode mem.Mode, mcfg *mem.Config) *sim.Result {
	cfg := suite.Config(k, 8, pol, mode)
	cfg.MemOverride = mcfg
	r, err := suite.RunConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func metric(r *sim.Result) float64 {
	if r.Cfg.ISA == core.ISAMOM {
		return r.EIPC
	}
	return r.IPC
}

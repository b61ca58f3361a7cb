// Quickstart: run the paper's multiprogrammed media workload on a
// 4-thread SMT processor with the MOM streaming μ-SIMD extension and a
// realistic memory hierarchy, then print the throughput metrics.
package main

import (
	"fmt"
	"log"

	"mediasmt/internal/core"
	"mediasmt/internal/exp"
	"mediasmt/internal/mem"
)

func main() {
	suite := exp.NewSuite(exp.Options{Scale: 0.5}) // half of the default workload for a fast demo
	res, err := suite.Run(core.ISAMOM, 4, core.PolicyICOUNT, mem.ModeConventional)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %d cycles, committed %d instructions (%d stream-expanded)\n",
		res.Cycles, res.Core.Committed, res.Core.CommittedEquiv)
	fmt.Printf("throughput: %.2f IPC, %.2f EIPC (MMX-equivalent work per cycle)\n",
		res.IPC, res.EIPC)
	fmt.Printf("caches: I$ %.1f%%, L1 %.1f%% hit, %.2f cycles average load latency\n",
		100*res.Mem.ICHitRate(), 100*res.Mem.L1HitRate(), res.Mem.AvgL1LoadLat())
	fmt.Printf("branch prediction: %.1f%%\n", 100*res.Core.PredAccuracy())
}

// mpeg4station models the paper's motivating scenario: a desktop
// receiving an MPEG-4 composite session (video + still image + speech +
// 3D) and decoding/encoding every stream concurrently. It runs the full
// eight-program workload on 1..8 hardware contexts for both media ISAs
// and prints the throughput scaling — the data behind the paper's
// figures 4 and 5.
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
	fmt.Println("MPEG-4 station: 8 concurrent media streams (Table 2 workload)")
	fmt.Println()
	fmt.Printf("%-8s %-10s %12s %12s %14s\n", "threads", "ISA", "ideal", "real memory", "degradation")
	for _, isaKind := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, threads := range []int{1, 2, 4, 8} {
			ideal := run(isaKind, threads, mem.ModeIdeal)
			real := run(isaKind, threads, mem.ModeConventional)
			vi, vr := metric(ideal), metric(real)
			fmt.Printf("%-8d %-10s %12.2f %12.2f %13.1f%%\n",
				threads, isaKind, vi, vr, 100*(1-vr/vi))
		}
	}
	fmt.Println()
	fmt.Println("values are IPC for SMT+MMX and Equivalent IPC for SMT+MOM (paper section 5.1)")
}

func run(k core.ISAKind, threads int, mode mem.Mode) *sim.Result {
	r, err := suite.Run(k, threads, core.PolicyRR, mode)
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

// Command exps is an experiment CLI: it must go through the Executor
// seam, not the sim entry points.
package main

import "mediasmt/internal/sim"

func main() {
	res, err := sim.Run(sim.Config{Threads: 2}) // want `sim.Run bypasses the dist.Executor seam`
	if err != nil {
		panic(err)
	}
	_ = res
}

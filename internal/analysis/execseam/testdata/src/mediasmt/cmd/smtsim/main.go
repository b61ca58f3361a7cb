// Command smtsim is the single-simulation CLI: like every other
// command it resolves through the engine, not the sim entry points.
package main

import "mediasmt/internal/sim"

func main() {
	if _, err := sim.Run(sim.Config{Threads: 1}); err != nil { // want `sim.Run bypasses the dist.Executor seam`
		panic(err)
	}
}

// Package obs is the instrumented runner: it may call sim.Run
// directly.
package obs

import "mediasmt/internal/sim"

// Run wraps the simulator's entry point.
func Run(cfg sim.Config) (*sim.Result, error) {
	return sim.Run(cfg)
}

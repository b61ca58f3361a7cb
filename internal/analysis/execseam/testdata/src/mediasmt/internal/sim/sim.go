// Package sim is a fixture mirror of the simulator's entry points:
// the analyzer matches Run/RunReference by this package path.
package sim

// Config mirrors the real simulation config.
type Config struct{ Threads int }

// Result mirrors the real simulation result.
type Result struct{ Cycles int64 }

// Run executes one simulation.
func Run(cfg Config) (*Result, error) { return &Result{}, nil }

// RunReference is the tick-loop oracle.
func RunReference(cfg Config) (*Result, error) { return Run(cfg) }

package main

import (
	"time"

	"mediasmt/internal/cliflags"
	"mediasmt/internal/exp"
)

// validateFlags rejects flag values that NewSuite, sim.Normalize or the
// dist options would otherwise silently coerce to their defaults: a run must either do
// what the flags say or refuse, never mislabel itself. The bounds live
// in internal/cliflags, shared with smtsim and the expsd request
// decoder; only the flag names are local.
func validateFlags(scale float64, seed uint64, workers int, maxCycles int64, remoteTimeout time.Duration) error {
	if err := cliflags.Scale("-scale", scale); err != nil {
		return err
	}
	if err := cliflags.Seed("-seed", seed); err != nil {
		return err
	}
	if err := cliflags.Workers("-j", workers); err != nil {
		return err
	}
	if err := cliflags.MaxCycles("-max-cycles", maxCycles); err != nil {
		return err
	}
	return cliflags.Duration("-remote-timeout", remoteTimeout)
}

// exitCode maps a finished run onto the process exit code:
//
//	0 — every experiment rendered
//	1 — total failure: no experiment rendered (or the result set could
//	    not be produced at all)
//	3 — partial failure: some experiments rendered, some failed; their
//	    tables are on stdout, byte-identical to a fully green run
//
// 2 is reserved for usage errors (bad flags, unknown experiment ids)
// detected before any simulation.
func exitCode(err error, rs *exp.ResultSet) int {
	if err == nil {
		return 0
	}
	if rs == nil {
		return 2
	}
	for _, e := range rs.Experiments {
		if e.Status == exp.StatusOK {
			return 3
		}
	}
	return 1
}

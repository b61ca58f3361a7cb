package main

import (
	"fmt"

	"mediasmt/internal/cliflags"
	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

// parseISA maps the -isa flag to the core enum.
func parseISA(s string) (core.ISAKind, error) {
	switch s {
	case "mmx":
		return core.ISAMMX, nil
	case "mom":
		return core.ISAMOM, nil
	}
	return 0, fmt.Errorf("unknown isa %q (want mmx or mom)", s)
}

// parsePolicy maps the -policy flag to the core enum.
func parsePolicy(s string) (core.Policy, error) {
	switch s {
	case "rr":
		return core.PolicyRR, nil
	case "ic":
		return core.PolicyICOUNT, nil
	case "oc":
		return core.PolicyOCOUNT, nil
	case "bl":
		return core.PolicyBALANCE, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want rr, ic, oc or bl)", s)
}

// parseMemMode maps the -mem flag to the mem enum.
func parseMemMode(s string) (mem.Mode, error) {
	switch s {
	case "ideal":
		return mem.ModeIdeal, nil
	case "conventional":
		return mem.ModeConventional, nil
	case "decoupled":
		return mem.ModeDecoupled, nil
	}
	return 0, fmt.Errorf("unknown memory mode %q (want ideal, conventional or decoupled)", s)
}

// buildConfig assembles a simulation config from the raw flag values.
// The flag bounds live in internal/cliflags, shared with exps and the
// expsd request decoder; sim.Config.Validate, the one gate every front
// end shares, checks the machine they describe.
func buildConfig(isaFlag, policyFlag, memFlag string, threads int, scale float64, seed uint64) (sim.Config, error) {
	if err := cliflags.Scale("-scale", scale); err != nil {
		return sim.Config{}, err
	}
	if err := cliflags.Seed("-seed", seed); err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{Threads: threads, Scale: scale, Seed: seed}
	var err error
	if cfg.ISA, err = parseISA(isaFlag); err != nil {
		return sim.Config{}, err
	}
	if cfg.Policy, err = parsePolicy(policyFlag); err != nil {
		return sim.Config{}, err
	}
	if cfg.Memory, err = parseMemMode(memFlag); err != nil {
		return sim.Config{}, err
	}
	return cfg, cfg.Validate()
}

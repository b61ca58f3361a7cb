package sim

import (
	"math"
	"strings"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
)

func quickRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	if cfg.Scale == 0 {
		cfg.Scale = 0.05
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 50_000_000
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return r
}

func TestRunCompletesAllPrimaries(t *testing.T) {
	for _, th := range []int{1, 4} {
		r := quickRun(t, Config{ISA: core.ISAMMX, Threads: th, Memory: mem.ModeIdeal})
		if r.Completed != 8 {
			t.Errorf("%dT: completed %d primaries, want 8", th, r.Completed)
		}
		if r.Started < 8 {
			t.Errorf("%dT: started %d instances, want >= 8", th, r.Started)
		}
		if r.IPC <= 0 {
			t.Errorf("%dT: IPC %f", th, r.IPC)
		}
	}
}

func TestRunFillerKeepsMachineFull(t *testing.T) {
	// At 8 threads, fillers must start beyond the 8 primaries so no
	// context idles while others finish (section 5.1 methodology).
	r := quickRun(t, Config{ISA: core.ISAMMX, Threads: 8, Memory: mem.ModeIdeal})
	if r.Started <= 8 {
		t.Errorf("started %d program instances at 8 threads, want fillers beyond the 8 primaries", r.Started)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{ISA: core.ISAMOM, Threads: 2, Memory: mem.ModeConventional, Seed: 99}
	a := quickRun(t, cfg)
	b := quickRun(t, cfg)
	if a.Cycles != b.Cycles || a.Core.Committed != b.Core.Committed {
		t.Errorf("same seed diverged: %d/%d cycles, %d/%d committed",
			a.Cycles, b.Cycles, a.Core.Committed, b.Core.Committed)
	}
}

func TestRunSeedChangesOutcome(t *testing.T) {
	a := quickRun(t, Config{ISA: core.ISAMMX, Threads: 2, Memory: mem.ModeConventional, Seed: 1})
	b := quickRun(t, Config{ISA: core.ISAMMX, Threads: 2, Memory: mem.ModeConventional, Seed: 2})
	if a.Cycles == b.Cycles {
		t.Log("note: different seeds gave identical cycles (possible but unlikely)")
	}
}

func TestRunMaxCyclesError(t *testing.T) {
	_, err := Run(Config{ISA: core.ISAMMX, Threads: 1, Memory: mem.ModeIdeal, Scale: 1, MaxCycles: 100})
	if err == nil {
		t.Fatal("want error when MaxCycles is hit")
	}
}

func TestEIPCEqualsIPCForMMX(t *testing.T) {
	r := quickRun(t, Config{ISA: core.ISAMMX, Threads: 1, Memory: mem.ModeIdeal})
	if r.EIPC != r.IPC {
		t.Errorf("MMX EIPC %f != IPC %f", r.EIPC, r.IPC)
	}
}

func TestEIPCExceedsIPCForMOM(t *testing.T) {
	r := quickRun(t, Config{ISA: core.ISAMOM, Threads: 1, Memory: mem.ModeIdeal})
	if r.EIPC <= r.IPC {
		t.Errorf("MOM EIPC %f must exceed raw IPC %f (fewer instructions for the same work)", r.EIPC, r.IPC)
	}
}

func TestMOMBeatsMMXSingleThread(t *testing.T) {
	mmx := quickRun(t, Config{ISA: core.ISAMMX, Threads: 1, Memory: mem.ModeIdeal, Scale: 0.2})
	mom := quickRun(t, Config{ISA: core.ISAMOM, Threads: 1, Memory: mem.ModeIdeal, Scale: 0.2})
	if mom.EIPC <= mmx.IPC {
		t.Errorf("1T ideal: MOM EIPC %.2f must beat MMX IPC %.2f (paper: +20%%)", mom.EIPC, mmx.IPC)
	}
}

func TestSMTScalesWithThreads(t *testing.T) {
	one := quickRun(t, Config{ISA: core.ISAMMX, Threads: 1, Memory: mem.ModeIdeal, Scale: 0.2})
	eight := quickRun(t, Config{ISA: core.ISAMMX, Threads: 8, Memory: mem.ModeIdeal, Scale: 0.2})
	if eight.IPC < 1.5*one.IPC {
		t.Errorf("8T ideal IPC %.2f is not meaningfully above 1T %.2f", eight.IPC, one.IPC)
	}
}

func TestDecoupledHelpsMOMAt8Threads(t *testing.T) {
	conv := quickRun(t, Config{ISA: core.ISAMOM, Threads: 8, Policy: core.PolicyOCOUNT, Memory: mem.ModeConventional, Scale: 0.4})
	dec := quickRun(t, Config{ISA: core.ISAMOM, Threads: 8, Policy: core.PolicyOCOUNT, Memory: mem.ModeDecoupled, Scale: 0.4})
	if dec.EIPC <= conv.EIPC {
		t.Errorf("decoupled EIPC %.2f must beat conventional %.2f at 8 threads (paper section 5.4)", dec.EIPC, conv.EIPC)
	}
}

func TestCoreAndMemOverrides(t *testing.T) {
	ccfg := core.ConfigForThreads(core.ISAMMX, 2)
	ccfg.CommitWidth = 4
	mcfg := mem.DefaultConfig(mem.ModeConventional)
	mcfg.WBDepth = 4
	r := quickRun(t, Config{
		ISA: core.ISAMMX, Threads: 2, Memory: mem.ModeConventional,
		CoreOverride: &ccfg, MemOverride: &mcfg,
	})
	if r.Completed != 8 {
		t.Errorf("override run completed %d, want 8", r.Completed)
	}
}

func TestCustomProgramList(t *testing.T) {
	r := quickRun(t, Config{
		ISA: core.ISAMMX, Threads: 1, Memory: mem.ModeIdeal,
		Programs: []string{"gsmdec", "gsmenc"},
	})
	if r.Completed != 2 {
		t.Errorf("completed %d, want 2", r.Completed)
	}
}

// TestValidate: the gate accepts every paper machine and refuses, by
// the field name a /v1/sims body carries, a thread count
// ConfigForThreads cannot build, an enum value past its last constant
// and a scale that would run mislabelled. A zero or negative scale
// means the default (Normalize), so it passes.
func TestValidate(t *testing.T) {
	for _, isa := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, th := range []int{1, 2, 4, 8} {
			for _, sc := range []float64{0, -1, 0.001, 1, MaxScale} {
				cfg := Config{ISA: isa, Threads: th, Policy: core.PolicyBALANCE, Memory: mem.ModeDecoupled, Scale: sc}
				if err := cfg.Validate(); err != nil {
					t.Errorf("%v %dT scale %g: %v", isa, th, sc, err)
				}
			}
		}
	}
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"Threads", func(c *Config) { c.Threads = 0 }},
		{"Threads", func(c *Config) { c.Threads = 3 }},
		{"Threads", func(c *Config) { c.Threads = 5 }},
		{"Threads", func(c *Config) { c.Threads = 16 }},
		{"Threads", func(c *Config) { c.Threads = -1 }},
		{"ISA", func(c *Config) { c.ISA = core.ISAMOM + 1 }},
		{"Policy", func(c *Config) { c.Policy = core.PolicyBALANCE + 1 }},
		{"Memory", func(c *Config) { c.Memory = mem.ModeDecoupled + 1 }},
		{"Scale", func(c *Config) { c.Scale = math.NaN() }},
		{"Scale", func(c *Config) { c.Scale = math.Inf(1) }},
		{"Scale", func(c *Config) { c.Scale = MaxScale + 0.5 }},
		{"Scale", func(c *Config) { c.Scale = 1e300 }},
	} {
		cfg := Config{ISA: core.ISAMMX, Threads: 1, Scale: 0.01}
		c.set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("bad %s: Validate() = %v, want an error naming it", c.field, err)
		}
	}
}

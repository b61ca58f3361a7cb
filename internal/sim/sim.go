// Package sim drives multiprogrammed simulations using the paper's
// §5.1 methodology: the eight-program list (Table 2, with mpeg2dec
// twice) starts on as many hardware contexts as the machine has; when
// a program completes, the next from the list starts on the freed
// context, wrapping around with filler copies so the machine never
// runs below its thread count; the run ends when the eighth primary
// program finishes. The resulting IPC (MMX) and Equivalent IPC (MOM)
// are the paper's throughput metrics.
package sim

import (
	"fmt"
	"strings"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/workload"
)

// Config selects one simulation run.
type Config struct {
	ISA     core.ISAKind
	Threads int
	Policy  core.Policy
	Memory  mem.Mode
	Scale   float64 // workload size relative to 1/1000 of the paper's
	Seed    uint64
	// MaxCycles is a safety stop; 0 means the default (200M cycles).
	MaxCycles int64
	// CoreOverride and MemOverride replace the Table 1 / §3 defaults
	// for ablation studies. Threads/ISA/Policy (and Mode) still come
	// from this Config.
	CoreOverride *core.Config
	MemOverride  *mem.Config
	// Programs overrides the paper's RunOrder when non-nil.
	Programs []string
}

// Defaults Normalize applies to zero-valued fields. Every front-end
// that refuses explicit out-of-range values instead of coercing them
// (cmd/exps, cmd/smtsim, internal/serve) echoes these, so they live
// here, next to Normalize, rather than as drifting copies.
const (
	DefaultScale     = 1.0
	DefaultSeed      = 12345
	DefaultMaxCycles = 200_000_000
)

// MaxScale is the largest workload scale Validate accepts: the paper's
// full instruction counts. A NaN, infinite or huge scale would convert
// to a nonsense round count (workload.Benchmark.Rounds) and run one
// round under the bogus label.
const MaxScale = 1000

// Normalize returns the config with the same defaults Run applies
// (Scale, MaxCycles, Seed), so that two configs describing the same
// simulation compare and key identically.
func (c Config) Normalize() Config {
	if c.Scale <= 0 {
		c.Scale = DefaultScale
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = DefaultMaxCycles
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// Key returns a canonical cache key covering every field that affects
// the simulation outcome: ISA, threads, policy and memory mode, but
// also scale, seed, the cycle cap, core/memory overrides and any
// program-list override. Configs that normalize identically share a
// key.
func (c Config) Key() string {
	n := c.Normalize()
	var b strings.Builder
	fmt.Fprintf(&b, "%v/%d/%v/%v/scale=%g/seed=%d/max=%d",
		n.ISA, n.Threads, n.Policy, n.Memory, n.Scale, n.Seed, n.MaxCycles)
	for _, p := range n.OverrideStrings() {
		b.WriteByte('/')
		b.WriteString(p)
	}
	if n.Programs != nil {
		b.WriteString("/progs=")
		for i, p := range n.Programs {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%q", p)
		}
	}
	return b.String()
}

// OverrideStrings returns the canonical rendering of any core/memory
// overrides, shared by Key and structured result emitters.
func (c Config) OverrideStrings() []string {
	var parts []string
	if c.CoreOverride != nil {
		parts = append(parts, fmt.Sprintf("core={%+v}", *c.CoreOverride))
	}
	if c.MemOverride != nil {
		parts = append(parts, fmt.Sprintf("mem={%+v}", *c.MemOverride))
	}
	return parts
}

// Result summarizes one run.
type Result struct {
	Cfg       Config
	Cycles    int64
	IPC       float64
	EquivIPC  float64
	EIPC      float64 // == IPC for MMX runs
	Core      core.Stats
	Mem       mem.Stats
	Completed int // primary programs finished
	Started   int // total program instances (primaries + fillers)
}

// Run executes one multiprogrammed simulation on the event-driven
// engine: the processor runs pipeline cycles only at cycles where work
// can exist and jumps over provably idle spans (see core.NextWakeup).
// The win scales with the fraction of idle cycles in the run — largest
// on single-thread memory-bound configurations, smaller at high thread
// counts where some context nearly always has work. Results are
// identical to the retained per-cycle reference engine (RunReference);
// the equivalence is enforced by the cross-engine test matrix in this
// package.
func Run(cfg Config) (*Result, error) { return run(cfg, engineEvent) }

// RunReference executes the same simulation on the original per-cycle
// tick loop. It is retained as the behavioural oracle for the event
// engine: slow, but every cycle is explicit. Use it in tests and when
// bisecting a suspected event-scheduling bug; production paths should
// call Run.
func RunReference(cfg Config) (*Result, error) { return run(cfg, engineTick) }

// engineKind selects the run loop; results must not depend on it.
type engineKind uint8

const (
	// engineEvent jumps from one processor wakeup to the next.
	engineEvent engineKind = iota
	// engineTick executes every cycle explicitly (the reference).
	engineTick
)

// machine returns the core and memory configs a run builds: the Table 1
// and §3 defaults or the overrides, with this config's threads, ISA,
// fetch policy and memory mode.
func (c Config) machine() (core.Config, mem.Config) {
	ccfg := core.ConfigForThreads(c.ISA, c.Threads)
	if c.CoreOverride != nil {
		ccfg = *c.CoreOverride
		ccfg.Threads = c.Threads
		ccfg.ISA = c.ISA
	}
	ccfg.Policy = c.Policy
	mcfg := mem.DefaultConfig(c.Memory)
	if c.MemOverride != nil {
		mcfg = *c.MemOverride
		mcfg.Mode = c.Memory
	}
	return ccfg, mcfg
}

// Validate is the one gate a simulation config passes. It reports why
// the config cannot run, naming the field: a thread count
// ConfigForThreads cannot build, an enum value past its last constant,
// a normalized scale that is NaN or past MaxScale, a core or memory
// config (overrides applied) the machine cannot model, or an empty or
// unknown program list. Run refuses such a config as an error, never a
// panic or a stalled worker.
func (c Config) Validate() error {
	if err := core.CheckThreads(c.Threads); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Memory > mem.ModeDecoupled {
		return fmt.Errorf("sim: Memory is %d, want 0..%d", c.Memory, mem.ModeDecoupled)
	}
	if s := c.Normalize().Scale; !(s > 0 && s <= MaxScale) {
		return fmt.Errorf("sim: Scale is %g, want 0 < Scale <= %d", s, MaxScale)
	}
	ccfg, mcfg := c.machine()
	if err := ccfg.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := mcfg.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Programs != nil && len(c.Programs) == 0 {
		return fmt.Errorf("sim: program list is empty")
	}
	for _, name := range c.Programs {
		if _, err := workload.Get(name); err != nil {
			return fmt.Errorf("sim: program list: %w", err)
		}
	}
	return nil
}

func run(cfg Config, kind engineKind) (*Result, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	order := cfg.Programs
	if order == nil {
		order = workload.RunOrder
	}
	benches := make([]*workload.Benchmark, len(order))
	for i, name := range order {
		benches[i] = workload.MustGet(name)
	}
	ccfg, mcfg := cfg.machine()
	msys := mem.New(mcfg)
	p, err := core.New(ccfg, msys)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	started := 0
	primaries := len(order)
	completedPrimary := 0
	// primaryOn[ctx] is >= 0 while the context runs one of the first
	// len(order) program instances.
	primaryOn := make([]int, cfg.Threads)

	launch := func(ctx int) {
		b := benches[started%len(order)]
		base := uint64(started+1) << 33 // private address space per instance
		prog := b.Program(cfg.ISA, cfg.Seed+uint64(started)*7919, base, cfg.Scale)
		p.SetProgram(ctx, prog, b.EIPCFactor(cfg.ISA))
		if started < primaries {
			primaryOn[ctx] = started
		} else {
			primaryOn[ctx] = -1
		}
		started++
	}

	// relaunchDrained is the §5.1 wrap-around scan the tick loop ran
	// after every cycle: count finished primaries and start the next
	// program of the list on each freed context. It reports whether a
	// context is still drained afterwards (a zero-length program), in
	// which case the caller must scan again next cycle, exactly as the
	// per-cycle loop would.
	relaunchDrained := func() (stillDrained bool) {
		for t := 0; t < cfg.Threads; t++ {
			if !p.ContextDrained(t) {
				continue
			}
			if primaryOn[t] >= 0 {
				completedPrimary++
				primaryOn[t] = -1
			}
			if completedPrimary < primaries {
				launch(t)
				if p.ContextDrained(t) {
					stillDrained = true
				}
			}
		}
		return stillDrained
	}

	for t := 0; t < cfg.Threads; t++ {
		launch(t)
	}

	switch kind {
	case engineTick:
		for p.Now() < cfg.MaxCycles && completedPrimary < primaries {
			p.Cycle()
			relaunchDrained()
		}
	case engineEvent:
		scanPending := false
		for now := int64(0); now < cfg.MaxCycles; {
			p.AdvanceTo(now)
			p.Cycle()
			if p.TakeDrainSignal() || scanPending {
				scanPending = relaunchDrained()
			}
			if completedPrimary >= primaries {
				break
			}
			if scanPending {
				now = p.Now() // a drained context relaunches per cycle
			} else {
				now = p.NextWakeup()
			}
		}
		if completedPrimary < primaries {
			// The tick loop burns idle cycles up to the cap before
			// giving up; account them so both engines report the same
			// cycle counts on the incomplete path.
			p.AdvanceTo(cfg.MaxCycles)
		}
	}

	st := *p.Stats()
	res := &Result{
		Cfg:       cfg,
		Cycles:    st.Cycles,
		IPC:       st.IPC(),
		EquivIPC:  st.EquivIPC(),
		EIPC:      st.EIPC(),
		Core:      st,
		Mem:       *msys.Stats(),
		Completed: completedPrimary,
		Started:   started,
	}
	if completedPrimary < primaries {
		return res, fmt.Errorf("sim: hit MaxCycles=%d with %d/%d programs complete (ipc %.3f)",
			cfg.MaxCycles, completedPrimary, primaries, res.IPC)
	}
	return res, nil
}

package exp

import (
	"fmt"
	"strings"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

func init() {
	Experiments = append(Experiments,
		Experiment{ID: "ablate-wb", Title: "Ablation: write-buffer depth (8-thread MMX, conventional)",
			Run: (*Suite).AblateWriteBuffer, Configs: (*Suite).ablateWriteBufferConfigs},
		Experiment{ID: "ablate-mshr", Title: "Ablation: L1 MSHR count (8-thread MOM, conventional)",
			Run: (*Suite).AblateMSHRs, Configs: (*Suite).ablateMSHRConfigs},
		Experiment{ID: "ablate-vports", Title: "Ablation: vector ports into L2 (8-thread MOM, decoupled)",
			Run: (*Suite).AblateVectorPorts, Configs: (*Suite).ablateVectorPortConfigs},
		Experiment{ID: "ablate-window", Title: "Ablation: graduation window per thread (8-thread MMX)",
			Run: (*Suite).AblateWindow, Configs: (*Suite).ablateWindowConfigs},
	)
}

// overrideConfig builds a full config with core/memory overrides. The
// canonical key covers the overrides, so these share the suite's
// cache without colliding with the default-parameter runs. An override
// equal to the defaults is dropped so the sweep point at the paper's
// value keys identically to — and dedups against — the corresponding
// main-experiment simulation.
func (s *Suite) overrideConfig(isa core.ISAKind, threads int, pol core.Policy, mode mem.Mode,
	ccfg *core.Config, mcfg *mem.Config) sim.Config {
	cfg := s.Config(isa, threads, pol, mode)
	if ccfg != nil && *ccfg != core.ConfigForThreads(isa, threads) {
		cfg.CoreOverride = ccfg
	}
	if mcfg != nil && *mcfg != mem.DefaultConfig(mode) {
		cfg.MemOverride = mcfg
	}
	return cfg
}

// wbDepths, mshrCounts, vectorPortCounts and windowSizes are the swept
// ablation axes.
var (
	wbDepths         = []int{2, 4, 8, 16}
	mshrCounts       = []int{2, 4, 8, 16}
	vectorPortCounts = []int{1, 2, 4}
	windowSizes      = []int{16, 32, 48, 96}
)

func (s *Suite) wbConfig(depth int) sim.Config {
	mcfg := mem.DefaultConfig(mem.ModeConventional)
	mcfg.WBDepth = depth
	return s.overrideConfig(core.ISAMMX, 8, core.PolicyICOUNT, mem.ModeConventional, nil, &mcfg)
}

// sweep builds one config per swept value.
func sweep(vals []int, point func(int) sim.Config) []sim.Config {
	out := make([]sim.Config, len(vals))
	for i, v := range vals {
		out[i] = point(v)
	}
	return out
}

func (s *Suite) ablateWriteBufferConfigs() []sim.Config { return sweep(wbDepths, s.wbConfig) }

// AblateWriteBuffer sweeps the coalescing write-buffer depth. The paper
// fixes it at 8 entries with a selective-flush policy; this shows what
// that sizing buys.
func (s *Suite) AblateWriteBuffer() (string, error) {
	t := &table{header: []string{"WB depth", "IPC", "WB-full rejects", "coalesces"}}
	for _, depth := range wbDepths {
		r, err := s.RunConfig(s.wbConfig(depth))
		if err != nil {
			return "", err
		}
		t.add(fmt.Sprint(depth), f3(r.IPC), fmt.Sprint(r.Mem.WBFull), fmt.Sprint(r.Mem.WBCoalesces))
	}
	return t.String(), nil
}

func (s *Suite) mshrConfig(n int) sim.Config {
	mcfg := mem.DefaultConfig(mem.ModeConventional)
	mcfg.L1MSHRs = n
	return s.overrideConfig(core.ISAMOM, 8, core.PolicyOCOUNT, mem.ModeConventional, nil, &mcfg)
}

func (s *Suite) ablateMSHRConfigs() []sim.Config { return sweep(mshrCounts, s.mshrConfig) }

// AblateMSHRs sweeps the L1 miss-handling registers, the structure the
// MOM element streams stress hardest under the conventional hierarchy.
func (s *Suite) AblateMSHRs() (string, error) {
	t := &table{header: []string{"L1 MSHRs", "EIPC", "MSHR-full rejects"}}
	for _, n := range mshrCounts {
		r, err := s.RunConfig(s.mshrConfig(n))
		if err != nil {
			return "", err
		}
		t.add(fmt.Sprint(n), f3(r.EIPC), fmt.Sprint(r.Mem.MSHRFull))
	}
	return t.String(), nil
}

func (s *Suite) vportConfig(n int) sim.Config {
	mcfg := mem.DefaultConfig(mem.ModeDecoupled)
	mcfg.VectorPorts = n
	return s.overrideConfig(core.ISAMOM, 8, core.PolicyOCOUNT, mem.ModeDecoupled, nil, &mcfg)
}

func (s *Suite) ablateVectorPortConfigs() []sim.Config { return sweep(vectorPortCounts, s.vportConfig) }

// AblateVectorPorts sweeps the decoupled hierarchy's dedicated vector
// ports (the paper uses 2).
func (s *Suite) AblateVectorPorts() (string, error) {
	t := &table{header: []string{"vector ports", "EIPC", "avg element latency"}}
	for _, n := range vectorPortCounts {
		r, err := s.RunConfig(s.vportConfig(n))
		if err != nil {
			return "", err
		}
		t.add(fmt.Sprint(n), f3(r.EIPC), f1(r.Mem.AvgVecLoadLat()))
	}
	return t.String(), nil
}

func (s *Suite) windowConfig(w int) sim.Config {
	ccfg := core.ConfigForThreads(core.ISAMMX, 8)
	ccfg.ROBPerThread = w
	return s.overrideConfig(core.ISAMMX, 8, core.PolicyICOUNT, mem.ModeConventional, &ccfg, nil)
}

func (s *Suite) ablateWindowConfigs() []sim.Config { return sweep(windowSizes, s.windowConfig) }

// AblateWindow sweeps the per-thread graduation window around the
// Table 1 value (48 at 8 threads), validating the near-saturation
// sizing claim.
func (s *Suite) AblateWindow() (string, error) {
	t := &table{header: []string{"window/thread", "IPC"}}
	var lines []string
	for _, w := range windowSizes {
		r, err := s.RunConfig(s.windowConfig(w))
		if err != nil {
			return "", err
		}
		t.add(fmt.Sprint(w), f3(r.IPC))
		lines = append(lines, fmt.Sprintf("%d:%0.3f", w, r.IPC))
	}
	return t.String() + "sweep: " + strings.Join(lines, " ") + "\n", nil
}

package exp

import (
	"fmt"
	"strings"

	"mediasmt/internal/core"
	"mediasmt/internal/isa"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
	"mediasmt/internal/trace"
	"mediasmt/internal/workload"
)

// The *Configs methods declare, per experiment, exactly the simulation
// set its Run method fetches, so a suite can fan the whole set out over
// the worker pool before rendering. TestConfigsCoverExperiments keeps
// the declarations honest.

var bothISAs = []core.ISAKind{core.ISAMMX, core.ISAMOM}

func (s *Suite) fig4Configs() []sim.Config {
	return s.configSet(bothISAs, threadCounts, []core.Policy{core.PolicyRR}, []mem.Mode{mem.ModeIdeal})
}

func (s *Suite) fig5Configs() []sim.Config {
	return s.configSet(bothISAs, threadCounts, []core.Policy{core.PolicyRR},
		[]mem.Mode{mem.ModeIdeal, mem.ModeConventional})
}

func (s *Suite) table4Configs() []sim.Config {
	return s.configSet(bothISAs, threadCounts, []core.Policy{core.PolicyRR}, []mem.Mode{mem.ModeConventional})
}

func (s *Suite) policyTableConfigs(mode mem.Mode) []sim.Config {
	modes := []mem.Mode{mode}
	return append(
		s.configSet([]core.ISAKind{core.ISAMMX}, threadCounts,
			[]core.Policy{core.PolicyRR, core.PolicyICOUNT, core.PolicyBALANCE}, modes),
		s.configSet([]core.ISAKind{core.ISAMOM}, threadCounts, policies, modes)...)
}

func (s *Suite) fig6Configs() []sim.Config { return s.policyTableConfigs(mem.ModeConventional) }

func (s *Suite) fig8Configs() []sim.Config { return s.policyTableConfigs(mem.ModeDecoupled) }

func (s *Suite) fig9Configs() []sim.Config {
	modes := []mem.Mode{mem.ModeIdeal, mem.ModeConventional, mem.ModeDecoupled}
	return append(
		s.configSet([]core.ISAKind{core.ISAMMX}, threadCounts, []core.Policy{core.PolicyICOUNT}, modes),
		s.configSet([]core.ISAKind{core.ISAMOM}, threadCounts, []core.Policy{core.PolicyOCOUNT}, modes)...)
}

func (s *Suite) headlineConfigs() []sim.Config {
	modes := []mem.Mode{mem.ModeConventional, mem.ModeDecoupled}
	cfgs := []sim.Config{s.Config(core.ISAMMX, 1, core.PolicyRR, mem.ModeConventional)}
	cfgs = append(cfgs, s.configSet([]core.ISAKind{core.ISAMMX}, threadCounts, []core.Policy{core.PolicyICOUNT}, modes)...)
	return append(cfgs, s.configSet([]core.ISAKind{core.ISAMOM}, threadCounts, []core.Policy{core.PolicyOCOUNT}, modes)...)
}

func (s *Suite) issueMixConfigs() []sim.Config {
	return s.configSet(bothISAs, []int{1, 8}, []core.Policy{core.PolicyRR}, []mem.Mode{mem.ModeConventional})
}

// Table1 prints the architectural parameters per thread count (the
// paper's Table 1: physical registers and window sizes chosen for
// near-saturation performance).
func (s *Suite) Table1() (string, error) {
	t := &table{header: []string{"threads", "int regs", "fp regs", "mmx regs", "mom regs", "acc regs", "window/thread", "IQ", "MQ", "FQ", "SQ"}}
	for _, th := range threadCounts {
		c := core.ConfigForThreads(core.ISAMOM, th)
		cm := core.ConfigForThreads(core.ISAMMX, th)
		t.add(fmt.Sprint(th),
			fmt.Sprint(c.PhysInt), fmt.Sprint(c.PhysFP), fmt.Sprint(cm.PhysMMX),
			fmt.Sprint(c.PhysMOM), fmt.Sprint(c.PhysAcc), fmt.Sprint(c.ROBPerThread),
			fmt.Sprint(c.IQSize), fmt.Sprint(c.MQSize), fmt.Sprint(c.FQSize), fmt.Sprint(c.SQSize))
	}
	note := "MMX: SIMD issue width 2, two media units; MOM: SIMD issue width 1, one media unit with two vector pipes.\n"
	return t.String() + note, nil
}

// Table2 prints the workload description.
func (s *Suite) Table2() (string, error) {
	t := &table{header: []string{"program", "instances", "description", "data set", "MPEG-4 profile"}}
	inst := map[string]int{}
	for _, n := range workload.RunOrder {
		inst[n]++
	}
	for _, b := range workload.Registry {
		t.add(b.Name, fmt.Sprint(inst[b.Name]), b.Description, b.DataSet, b.Profile)
	}
	return t.String(), nil
}

// table3Key is what Table 3's text depends on.
type table3Key struct {
	seed  uint64
	scale float64
}

// Table3 regenerates the instruction breakdown for both ISAs; MOM
// counts are stream-expanded equivalents, per the paper's accounting.
// Building and walking the 14 programs makes it the one render that
// does real work, so the Runner memoizes its text per seed and scale.
func (s *Suite) Table3() (string, error) {
	k := table3Key{s.opts.Seed, s.opts.Scale}
	if out, ok := s.runner.table3.get(k); ok {
		return out, nil
	}
	out := s.renderTable3()
	s.runner.table3.put(k, out)
	return out, nil
}

// renderTable3 builds Table 3's text from the suite's seed and scale.
func (s *Suite) renderTable3() string {
	t := &table{header: []string{"program", "ISA", "int%", "fp%", "simd%", "mem%", "Kinst(eq)", "paper Minst"}}
	var aggMMX, aggMOM trace.Mix
	for _, b := range workload.Registry {
		mm := trace.CountMix(b.Program(core.ISAMMX, s.opts.Seed, 0, s.opts.Scale))
		mo := trace.CountMix(b.Program(core.ISAMOM, s.opts.Seed, 0, s.opts.Scale))
		t.add(b.Name, "mmx", f1(mm.Pct(isa.ClassInt)), f1(mm.Pct(isa.ClassFP)),
			f1(mm.Pct(isa.ClassSIMD)), f1(mm.Pct(isa.ClassMem)),
			fmt.Sprint(mm.TotalEq/1000), f1(b.PaperMMX))
		t.add("", "mom", f1(mo.Pct(isa.ClassInt)), f1(mo.Pct(isa.ClassFP)),
			f1(mo.Pct(isa.ClassSIMD)), f1(mo.Pct(isa.ClassMem)),
			fmt.Sprint(mo.TotalEq/1000), f1(b.PaperMOM))
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			aggMMX.Equiv[c] += mm.Equiv[c]
			aggMOM.Equiv[c] += mo.Equiv[c]
		}
		aggMMX.TotalEq += mm.TotalEq
		aggMOM.TotalEq += mo.TotalEq
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\naggregate mmx: int %s fp %s simd %s mem %s (paper: ~62 / ~2 / ~16 / ~20)\n",
		f1(aggMMX.Pct(isa.ClassInt)), f1(aggMMX.Pct(isa.ClassFP)), f1(aggMMX.Pct(isa.ClassSIMD)), f1(aggMMX.Pct(isa.ClassMem)))
	fmt.Fprintf(&b, "MOM vs MMX deltas: int %+.1f%% mem %+.1f%% simd %+.1f%% total %+.1f%% (paper: -20, -7, -62, -24)\n",
		100*(float64(aggMOM.Equiv[isa.ClassInt])/float64(aggMMX.Equiv[isa.ClassInt])-1),
		100*(float64(aggMOM.Equiv[isa.ClassMem])/float64(aggMMX.Equiv[isa.ClassMem])-1),
		100*(float64(aggMOM.Equiv[isa.ClassSIMD])/float64(aggMMX.Equiv[isa.ClassSIMD])-1),
		100*(float64(aggMOM.TotalEq)/float64(aggMMX.TotalEq)-1))
	return b.String()
}

// Fig4 is performance with a perfect cache: IPC (MMX) and EIPC (MOM)
// versus thread count under round-robin fetch.
func (s *Suite) Fig4() (string, error) {
	t := &table{header: []string{"threads", "SMT+MMX IPC", "SMT+MOM EIPC", "MOM/MMX"}}
	var base float64
	for _, th := range threadCounts {
		rm, err := s.Run(core.ISAMMX, th, core.PolicyRR, mem.ModeIdeal)
		if err != nil {
			return "", err
		}
		ro, err := s.Run(core.ISAMOM, th, core.PolicyRR, mem.ModeIdeal)
		if err != nil {
			return "", err
		}
		if th == 1 {
			base = rm.IPC
		}
		t.add(fmt.Sprint(th), f2(rm.IPC), f2(ro.EIPC), f2(ro.EIPC/rm.IPC))
	}
	rm8, _ := s.Run(core.ISAMMX, 8, core.PolicyRR, mem.ModeIdeal)
	ro8, _ := s.Run(core.ISAMOM, 8, core.PolicyRR, mem.ModeIdeal)
	note := fmt.Sprintf("\nSMT speedup at 8 threads: MMX %.2fx, MOM %.2fx over 1-thread MMX (paper: 2.02x and 2.5x)\n",
		rm8.IPC/base, ro8.EIPC/base)
	return t.String() + note, nil
}

// Fig5 compares ideal and real (conventional) memory under round-robin
// fetch; the paper's two observations are diminishing returns past 4
// threads and MOM's higher robustness.
func (s *Suite) Fig5() (string, error) {
	t := &table{header: []string{"threads", "MMX ideal", "MMX real", "MMX degr", "MOM ideal", "MOM real", "MOM degr"}}
	for _, th := range threadCounts {
		mi, err := s.Run(core.ISAMMX, th, core.PolicyRR, mem.ModeIdeal)
		if err != nil {
			return "", err
		}
		mr, err := s.Run(core.ISAMMX, th, core.PolicyRR, mem.ModeConventional)
		if err != nil {
			return "", err
		}
		oi, err := s.Run(core.ISAMOM, th, core.PolicyRR, mem.ModeIdeal)
		if err != nil {
			return "", err
		}
		or, err := s.Run(core.ISAMOM, th, core.PolicyRR, mem.ModeConventional)
		if err != nil {
			return "", err
		}
		t.add(fmt.Sprint(th), f2(mi.IPC), f2(mr.IPC), pc(1-mr.IPC/mi.IPC),
			f2(oi.EIPC), f2(or.EIPC), pc(1-or.EIPC/oi.EIPC))
	}
	return t.String(), nil
}

// Table4 reports instruction-cache hit rate, L1 hit rate and average
// L1 load latency versus thread count (conventional hierarchy, RR).
func (s *Suite) Table4() (string, error) {
	t := &table{header: []string{"metric", "ISA", "1 thread", "2 threads", "4 threads", "8 threads"}}
	rows := map[string][]string{}
	for _, k := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, th := range threadCounts {
			r, err := s.Run(k, th, core.PolicyRR, mem.ModeConventional)
			if err != nil {
				return "", err
			}
			m := r.Mem
			rows["ic."+k.String()] = append(rows["ic."+k.String()], pc(m.ICHitRate()))
			rows["l1."+k.String()] = append(rows["l1."+k.String()], pc(m.L1HitRate()))
			rows["lat."+k.String()] = append(rows["lat."+k.String()], f2(m.AvgL1LoadLat()))
		}
	}
	add := func(metric, isaName, key string) {
		t.add(append([]string{metric, isaName}, rows[key]...)...)
	}
	add("I-cache hit rate", "mmx", "ic.mmx")
	add("", "mom", "ic.mom")
	add("L1 hit rate", "mmx", "l1.mmx")
	add("", "mom", "l1.mom")
	add("L1 load latency", "mmx", "lat.mmx")
	add("", "mom", "lat.mom")
	note := "paper: I$ 99.0->93.7%; L1 mmx 98.7->86.8%, mom 98.4->93.7%; latency mmx 1.39->6.81, mom 1.74->4.51\n"
	return t.String() + note, nil
}

func (s *Suite) policyTable(mode mem.Mode) (string, error) {
	t := &table{header: []string{"threads", "MMX RR", "MMX IC", "MMX BL", "MOM RR", "MOM IC", "MOM OC", "MOM BL"}}
	for _, th := range threadCounts {
		row := []string{fmt.Sprint(th)}
		for _, p := range []core.Policy{core.PolicyRR, core.PolicyICOUNT, core.PolicyBALANCE} {
			r, err := s.Run(core.ISAMMX, th, p, mode)
			if err != nil {
				return "", err
			}
			row = append(row, f2(r.IPC))
		}
		for _, p := range policies {
			r, err := s.Run(core.ISAMOM, th, p, mode)
			if err != nil {
				return "", err
			}
			row = append(row, f2(r.EIPC))
		}
		t.add(row...)
	}
	return t.String(), nil
}

// Fig6 evaluates the four fetch policies on the conventional
// hierarchy. The paper matches MMX with RR/IC/BL and MOM with all
// four (OCOUNT uses the stream-length register, so it is MOM-only).
func (s *Suite) Fig6() (string, error) {
	return s.policyTable(mem.ModeConventional)
}

// Fig8 evaluates the fetch policies under the decoupled hierarchy.
func (s *Suite) Fig8() (string, error) {
	return s.policyTable(mem.ModeDecoupled)
}

// Fig9 compares the three memory organizations using each model's best
// policy (ICOUNT for MMX, OCOUNT for MOM, per the paper).
func (s *Suite) Fig9() (string, error) {
	t := &table{header: []string{"threads", "MMX ideal", "MMX conv L1", "MMX decoupled", "MOM ideal", "MOM conv L1", "MOM decoupled"}}
	for _, th := range threadCounts {
		row := []string{fmt.Sprint(th)}
		for _, mode := range []mem.Mode{mem.ModeIdeal, mem.ModeConventional, mem.ModeDecoupled} {
			r, err := s.Run(core.ISAMMX, th, core.PolicyICOUNT, mode)
			if err != nil {
				return "", err
			}
			row = append(row, f2(r.IPC))
		}
		for _, mode := range []mem.Mode{mem.ModeIdeal, mem.ModeConventional, mem.ModeDecoupled} {
			r, err := s.Run(core.ISAMOM, th, core.PolicyOCOUNT, mode)
			if err != nil {
				return "", err
			}
			row = append(row, f2(r.EIPC))
		}
		t.add(row...)
	}
	mi, _ := s.Run(core.ISAMMX, 8, core.PolicyICOUNT, mem.ModeIdeal)
	md, _ := s.Run(core.ISAMMX, 8, core.PolicyICOUNT, mem.ModeDecoupled)
	oi, _ := s.Run(core.ISAMOM, 8, core.PolicyOCOUNT, mem.ModeIdeal)
	od, _ := s.Run(core.ISAMOM, 8, core.PolicyOCOUNT, mem.ModeDecoupled)
	note := fmt.Sprintf("\n8-thread degradation vs ideal, decoupled: MMX %s, MOM %s (paper: 30%% and 15%%)\n",
		pc(1-md.IPC/mi.IPC), pc(1-od.EIPC/oi.EIPC))
	return t.String() + note, nil
}

// Headline reports the summary speedups: the best SMT+MMX and SMT+MOM
// configurations against a uni-threaded out-of-order superscalar with
// MMX under the realistic memory system.
func (s *Suite) Headline() (string, error) {
	base, err := s.Run(core.ISAMMX, 1, core.PolicyRR, mem.ModeConventional)
	if err != nil {
		return "", err
	}
	bestMMX, bestMOM := 0.0, 0.0
	var mmxCfg, momCfg string
	for _, th := range threadCounts {
		for _, mode := range []mem.Mode{mem.ModeConventional, mem.ModeDecoupled} {
			rm, err := s.Run(core.ISAMMX, th, core.PolicyICOUNT, mode)
			if err != nil {
				return "", err
			}
			if rm.IPC > bestMMX {
				bestMMX, mmxCfg = rm.IPC, fmt.Sprintf("%dT %v IC", th, mode)
			}
			ro, err := s.Run(core.ISAMOM, th, core.PolicyOCOUNT, mode)
			if err != nil {
				return "", err
			}
			if ro.EIPC > bestMOM {
				bestMOM, momCfg = ro.EIPC, fmt.Sprintf("%dT %v OC", th, mode)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "baseline: 1-thread MMX superscalar, real memory: IPC %.2f\n", base.IPC)
	fmt.Fprintf(&b, "best SMT+MMX: %.2f (%s)  -> speedup %.2fx (paper: 2.1x)\n", bestMMX, mmxCfg, bestMMX/base.IPC)
	fmt.Fprintf(&b, "best SMT+MOM: %.2f (%s)  -> speedup %.2fx (paper: 3.3x)\n", bestMOM, momCfg, bestMOM/base.IPC)
	return b.String(), nil
}

// IssueMix reports the fraction of execution cycles issuing only
// vector instructions (the section 5.3 motivation for the BALANCE
// policy: 1% for MMX vs 4% for MOM at 8 threads under RR).
func (s *Suite) IssueMix() (string, error) {
	t := &table{header: []string{"ISA", "threads", "only-vector", "only-scalar", "mixed", "no-issue"}}
	for _, k := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, th := range []int{1, 8} {
			r, err := s.Run(k, th, core.PolicyRR, mem.ModeConventional)
			if err != nil {
				return "", err
			}
			cy := float64(r.Cycles)
			t.add(k.String(), fmt.Sprint(th),
				pc(float64(r.Core.CyclesOnlyVector)/cy), pc(float64(r.Core.CyclesOnlyScalar)/cy),
				pc(float64(r.Core.CyclesMixed)/cy), pc(float64(r.Core.CyclesNoIssue)/cy))
		}
	}
	return t.String(), nil
}

package core

import (
	"testing"
	"testing/quick"

	"mediasmt/internal/isa"
	"mediasmt/internal/mem"
	"mediasmt/internal/trace"
)

func TestConfigForThreads(t *testing.T) {
	for _, th := range []int{1, 2, 4, 8} {
		for _, k := range []ISAKind{ISAMMX, ISAMOM} {
			c := ConfigForThreads(k, th)
			if err := c.Validate(); err != nil {
				t.Errorf("ConfigForThreads(%v, %d): %v", k, th, err)
			}
		}
	}
	// Table 1 scaling: total window grows sub-linearly.
	w1 := ConfigForThreads(ISAMMX, 1).ROBPerThread
	w8 := ConfigForThreads(ISAMMX, 8).ROBPerThread
	if 8*w8 <= w1 {
		t.Error("total window must grow with threads")
	}
	if w8 >= w1 {
		t.Error("per-thread window must shrink with threads (Table 1)")
	}
	// Media configuration per the paper.
	if c := ConfigForThreads(ISAMMX, 4); c.IssueSIMD != 2 || c.MediaUnits != 2 {
		t.Error("MMX: SIMD issue width 2 with two media units")
	}
	if c := ConfigForThreads(ISAMOM, 4); c.IssueSIMD != 1 || c.MediaUnits != 1 || c.MediaPipes != 2 {
		t.Error("MOM: SIMD issue width 1, one media unit with two vector pipes")
	}
}

func TestConfigForThreadsPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for 3 threads")
		}
	}()
	ConfigForThreads(ISAMMX, 3)
}

func TestConfigValidateErrors(t *testing.T) {
	base := ConfigForThreads(ISAMMX, 2)
	bad := base
	bad.PhysInt = 10
	if bad.Validate() == nil {
		t.Error("too few int registers must fail validation")
	}
	bad = base
	bad.IssueInt = 0
	if bad.Validate() == nil {
		t.Error("zero issue width must fail validation")
	}
	bad = base
	bad.ROBPerThread = 2
	if bad.Validate() == nil {
		t.Error("tiny window must fail validation")
	}
}

func TestPredictorLearnsBias(t *testing.T) {
	p := NewPredictor(12, 0, 1)
	miss := 0
	for i := 0; i < 1000; i++ {
		if p.PredictAndTrain(0, 0x4000, true) != true {
			miss++
		}
	}
	if miss > 5 {
		t.Errorf("always-taken branch mispredicted %d/1000 times", miss)
	}
}

func TestPredictorThreadIsolationOfHistory(t *testing.T) {
	p := NewPredictor(12, 8, 2)
	// Train thread 0 on taken; thread 1's history must stay its own.
	for i := 0; i < 100; i++ {
		p.PredictAndTrain(0, 0x1000, true)
		p.PredictAndTrain(1, 0x2000, false)
	}
	if p.hist[0] == p.hist[1] {
		t.Error("per-thread histories must diverge")
	}
}

func TestPredictorBoundsProperty(t *testing.T) {
	p := NewPredictor(10, 4, 1)
	f := func(pc uint64, taken bool) bool {
		p.PredictAndTrain(0, pc, taken)
		for _, c := range p.table {
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPhysFileAllocRelease(t *testing.T) {
	f := newPhysFile(4)
	seen := map[int32]bool{}
	for i := 0; i < 4; i++ {
		r, ok := f.alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[r] {
			t.Fatalf("duplicate register %d", r)
		}
		seen[r] = true
	}
	if _, ok := f.alloc(); ok {
		t.Fatal("alloc from empty pool must fail")
	}
	f.release(2)
	r, ok := f.alloc()
	if !ok || r != 2 {
		t.Fatalf("re-alloc got (%d, %v), want (2, true)", r, ok)
	}
}

// aluProgram builds n independent integer adds.
func aluProgram(n int64) *trace.Script {
	body := []trace.Slot{
		{Op: isa.ADDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(2), Src2: isa.IntReg(3)},
		{Op: isa.ADDQ, Dst: isa.IntReg(4), Src1: isa.IntReg(5), Src2: isa.IntReg(6)},
		{Op: isa.ADDQ, Dst: isa.IntReg(7), Src1: isa.IntReg(8), Src2: isa.IntReg(9)},
		{Op: isa.ADDQ, Dst: isa.IntReg(10), Src1: isa.IntReg(11), Src2: isa.IntReg(12)},
	}
	return trace.MustScript("alu", 1, n, []trace.Phase{{Name: "p", Body: body, Iters: 1, PCBase: 0x1000}})
}

// chainProgram builds a serial dependency chain of length 4*n.
func chainProgram(n int64) *trace.Script {
	body := []trace.Slot{
		{Op: isa.ADDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(1), Src2: isa.IntReg(2)},
		{Op: isa.ADDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(1), Src2: isa.IntReg(2)},
		{Op: isa.ADDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(1), Src2: isa.IntReg(2)},
		{Op: isa.ADDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(1), Src2: isa.IntReg(2)},
	}
	return trace.MustScript("chain", 1, n, []trace.Phase{{Name: "p", Body: body, Iters: 1, PCBase: 0x1000}})
}

func newTestCPU(t *testing.T, kind ISAKind, threads int) (*Processor, mem.System) {
	t.Helper()
	msys := mem.NewIdeal(mem.DefaultConfig(mem.ModeIdeal))
	p, err := New(ConfigForThreads(kind, threads), msys)
	if err != nil {
		t.Fatal(err)
	}
	return p, msys
}

func runToDrain(t *testing.T, p *Processor, maxCycles int64) {
	t.Helper()
	for p.Busy() {
		if p.Now() > maxCycles {
			t.Fatalf("processor did not drain in %d cycles (committed %d)", maxCycles, p.Stats().Committed)
		}
		p.Cycle()
	}
}

func TestPipelineCommitsEverything(t *testing.T) {
	p, _ := newTestCPU(t, ISAMMX, 1)
	p.SetProgram(0, aluProgram(100), 1)
	runToDrain(t, p, 10000)
	if got := p.Stats().Committed; got != 400 {
		t.Errorf("committed %d, want 400", got)
	}
	if !p.ContextDrained(0) {
		t.Error("context must be drained")
	}
}

func TestPipelineIndependentOpsBeatChain(t *testing.T) {
	pi, _ := newTestCPU(t, ISAMMX, 1)
	pi.SetProgram(0, aluProgram(200), 1)
	runToDrain(t, pi, 100000)
	indep := pi.Stats().Cycles

	pc, _ := newTestCPU(t, ISAMMX, 1)
	pc.SetProgram(0, chainProgram(200), 1)
	runToDrain(t, pc, 100000)
	chain := pc.Stats().Cycles

	if chain <= indep {
		t.Errorf("serial chain (%d cycles) must be slower than independent ops (%d)", chain, indep)
	}
	// The chain is one add per cycle at best: 800 instructions need
	// at least 800 cycles.
	if chain < 800 {
		t.Errorf("chain finished in %d cycles; RAW dependences not enforced", chain)
	}
}

func TestPipelineLoadUse(t *testing.T) {
	body := []trace.Slot{
		{Op: isa.LDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(2),
			Addr: func(c *trace.Ctx) uint64 { return 0x1000 + uint64(c.Iter)*8 }},
		{Op: isa.ADDQ, Dst: isa.IntReg(3), Src1: isa.IntReg(1), Src2: isa.IntReg(3)},
	}
	prog := trace.MustScript("ld", 1, 1, []trace.Phase{{Name: "p", Body: body, Iters: 50, PCBase: 0x1000}})
	p, _ := newTestCPU(t, ISAMMX, 1)
	p.SetProgram(0, prog, 1)
	runToDrain(t, p, 10000)
	if got := p.Stats().Committed; got != 100 {
		t.Errorf("committed %d, want 100", got)
	}
}

func TestPipelineStoresDrainBeforeCompletion(t *testing.T) {
	body := []trace.Slot{
		{Op: isa.STQ, Src1: isa.IntReg(1), Src2: isa.IntReg(2),
			Addr: func(c *trace.Ctx) uint64 { return 0x2000 + uint64(c.Iter)*64 }},
	}
	prog := trace.MustScript("st", 1, 1, []trace.Phase{{Name: "p", Body: body, Iters: 30, PCBase: 0x1000}})
	p, _ := newTestCPU(t, ISAMMX, 1)
	p.SetProgram(0, prog, 1)
	runToDrain(t, p, 10000)
	if got := p.Stats().StoreElemSent; got != 30 {
		t.Errorf("store elements sent = %d, want 30", got)
	}
}

func TestPipelineMispredictCostsCycles(t *testing.T) {
	mk := func(taken trace.TakenFn) *trace.Script {
		body := []trace.Slot{
			{Op: isa.ADDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(2), Src2: isa.IntReg(3)},
			{Op: isa.CMPEQ, Dst: isa.IntReg(4), Src1: isa.IntReg(1), Src2: isa.IntReg(5)},
			{Op: isa.BEQ, Src1: isa.IntReg(4), TargetOff: 1, Taken: taken},
		}
		return trace.MustScript("br", 1, 1, []trace.Phase{{Name: "p", Body: body, Iters: 500, PCBase: 0x1000}})
	}
	// Predictable: never taken. Unpredictable: 50/50.
	pPred, _ := newTestCPU(t, ISAMMX, 1)
	pPred.SetProgram(0, mk(func(*trace.Ctx) bool { return false }), 1)
	runToDrain(t, pPred, 100000)

	pRand, _ := newTestCPU(t, ISAMMX, 1)
	pRand.SetProgram(0, mk(func(c *trace.Ctx) bool { return c.RNG.Bool(0.5) }), 1)
	runToDrain(t, pRand, 100000)

	if pRand.Stats().Mispredicts <= pPred.Stats().Mispredicts {
		t.Error("random branches must mispredict more")
	}
	if pRand.Stats().Cycles <= pPred.Stats().Cycles {
		t.Errorf("mispredicts must cost cycles: random %d <= predictable %d",
			pRand.Stats().Cycles, pPred.Stats().Cycles)
	}
}

func momStreamProgram(n int64, slen uint8) *trace.Script {
	body := []trace.Slot{
		{Op: isa.VPADDW, Dst: isa.MOMReg(1), Src1: isa.MOMReg(2), Src2: isa.MOMReg(3)},
	}
	return trace.MustScript("mom", 1, n, []trace.Phase{{Name: "p", Body: body, Iters: 1, VL: slen, PCBase: 0x1000}})
}

func TestMOMStreamOccupiesMediaUnit(t *testing.T) {
	// 100 stream adds of length 16 on a 2-pipe unit: >= 100*8 cycles.
	p, _ := newTestCPU(t, ISAMOM, 1)
	p.SetProgram(0, momStreamProgram(100, 16), 1)
	runToDrain(t, p, 100000)
	if got := p.Stats().Cycles; got < 800 {
		t.Errorf("100 SL16 streams finished in %d cycles, want >= 800 (2 pipes)", got)
	}
	// Short streams are cheaper.
	p2, _ := newTestCPU(t, ISAMOM, 1)
	p2.SetProgram(0, momStreamProgram(100, 2), 1)
	runToDrain(t, p2, 100000)
	if p2.Stats().Cycles >= p.Stats().Cycles {
		t.Error("SL2 streams must run faster than SL16 streams")
	}
}

func TestMOMEquivalentCounting(t *testing.T) {
	p, _ := newTestCPU(t, ISAMOM, 1)
	p.SetProgram(0, momStreamProgram(10, 16), 1)
	runToDrain(t, p, 10000)
	st := p.Stats()
	if st.Committed != 10 {
		t.Errorf("committed %d, want 10", st.Committed)
	}
	if st.CommittedEquiv != 160 {
		t.Errorf("committed equivalents %d, want 160", st.CommittedEquiv)
	}
}

func TestEIPCWeighting(t *testing.T) {
	p, _ := newTestCPU(t, ISAMMX, 1)
	p.SetProgram(0, aluProgram(25), 2.5)
	runToDrain(t, p, 10000)
	st := p.Stats()
	want := 2.5 * float64(st.Committed)
	if st.Weighted < want-0.001 || st.Weighted > want+0.001 {
		t.Errorf("weighted = %f, want %f", st.Weighted, want)
	}
	if st.EIPC() <= st.IPC() {
		t.Error("EIPC with factor 2.5 must exceed IPC")
	}
}

func TestSMTTwoThreadsBothProgress(t *testing.T) {
	p, _ := newTestCPU(t, ISAMMX, 2)
	p.SetProgram(0, aluProgram(200), 1)
	p.SetProgram(1, chainProgram(200), 1)
	runToDrain(t, p, 100000)
	st := p.Stats()
	if st.PerThreadCommitted[0] != 800 || st.PerThreadCommitted[1] != 800 {
		t.Errorf("per-thread committed = %v, want 800 each", st.PerThreadCommitted)
	}
}

func TestSMTSharedPoolSingleThreadUsesWholeMachine(t *testing.T) {
	// One thread on an 8-context machine must still run (shared pools).
	p, _ := newTestCPU(t, ISAMMX, 8)
	p.SetProgram(3, aluProgram(100), 1)
	runToDrain(t, p, 10000)
	if p.Stats().Committed != 400 {
		t.Errorf("committed %d, want 400", p.Stats().Committed)
	}
}

func TestContextReuse(t *testing.T) {
	p, _ := newTestCPU(t, ISAMMX, 1)
	p.SetProgram(0, aluProgram(50), 1)
	runToDrain(t, p, 10000)
	first := p.Stats().Committed
	p.SetProgram(0, aluProgram(50), 1)
	runToDrain(t, p, 20000)
	if p.Stats().Committed != 2*first {
		t.Errorf("second program on same context: committed %d, want %d", p.Stats().Committed, 2*first)
	}
}

func TestSetProgramOnBusyContextPanics(t *testing.T) {
	p, _ := newTestCPU(t, ISAMMX, 1)
	p.SetProgram(0, aluProgram(100), 1)
	for i := 0; i < 10; i++ {
		p.Cycle()
	}
	defer func() {
		if recover() == nil {
			t.Error("SetProgram on a busy context must panic")
		}
	}()
	p.SetProgram(0, aluProgram(1), 1)
}

func TestAllPoliciesComplete(t *testing.T) {
	for _, pol := range []Policy{PolicyRR, PolicyICOUNT, PolicyOCOUNT, PolicyBALANCE} {
		cfg := ConfigForThreads(ISAMOM, 2)
		cfg.Policy = pol
		msys := mem.NewIdeal(mem.DefaultConfig(mem.ModeIdeal))
		p, err := New(cfg, msys)
		if err != nil {
			t.Fatal(err)
		}
		p.SetProgram(0, momStreamProgram(50, 8), 1)
		p.SetProgram(1, aluProgram(100), 1)
		for p.Busy() && p.Now() < 100000 {
			p.Cycle()
		}
		if p.Busy() {
			t.Errorf("policy %v: did not drain", pol)
		}
	}
}

func TestRealMemoryEndToEnd(t *testing.T) {
	// Loads and stores through the detailed hierarchy must drain.
	body := []trace.Slot{
		{Op: isa.LDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(2),
			Addr: func(c *trace.Ctx) uint64 { return 0x10000 + uint64(c.Iter%256)*32 }},
		{Op: isa.ADDQ, Dst: isa.IntReg(3), Src1: isa.IntReg(1), Src2: isa.IntReg(3)},
		{Op: isa.STQ, Src1: isa.IntReg(3), Src2: isa.IntReg(2),
			Addr: func(c *trace.Ctx) uint64 { return 0x40000 + uint64(c.Iter%256)*32 }},
	}
	prog := trace.MustScript("mem", 1, 1, []trace.Phase{{Name: "p", Body: body, Iters: 500, PCBase: 0x1000}})
	msys := mem.NewReal(mem.DefaultConfig(mem.ModeConventional))
	p, err := New(ConfigForThreads(ISAMMX, 1), msys)
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(0, prog, 1)
	for p.Busy() {
		if p.Now() > 1_000_000 {
			t.Fatalf("wedged: committed %d of 1500", p.Stats().Committed)
		}
		p.Cycle()
	}
	if p.Stats().Committed != 1500 {
		t.Errorf("committed %d, want 1500", p.Stats().Committed)
	}
}

func TestVectorMemoryEndToEnd(t *testing.T) {
	// MOM stream loads/stores through both real hierarchies.
	for _, mode := range []mem.Mode{mem.ModeConventional, mem.ModeDecoupled} {
		body := []trace.Slot{
			{Op: isa.VLD, Dst: isa.MOMReg(0), Src1: isa.IntReg(2),
				Addr: func(c *trace.Ctx) uint64 { return 0x10000 + uint64(c.Iter%64)*128 }},
			{Op: isa.VPADDW, Dst: isa.MOMReg(1), Src1: isa.MOMReg(0), Src2: isa.MOMReg(1)},
			{Op: isa.VST, Src1: isa.MOMReg(1), Src2: isa.IntReg(2),
				Addr: func(c *trace.Ctx) uint64 { return 0x80000 + uint64(c.Iter%64)*128 }},
		}
		prog := trace.MustScript("vmem", 1, 1, []trace.Phase{{Name: "p", Body: body, Iters: 100, VL: 16, PCBase: 0x1000}})
		msys := mem.NewReal(mem.DefaultConfig(mode))
		p, err := New(ConfigForThreads(ISAMOM, 1), msys)
		if err != nil {
			t.Fatal(err)
		}
		p.SetProgram(0, prog, 1)
		for p.Busy() {
			if p.Now() > 1_000_000 {
				t.Fatalf("%v: wedged at %d committed", mode, p.Stats().Committed)
			}
			p.Cycle()
		}
		if p.Stats().Committed != 300 {
			t.Errorf("%v: committed %d, want 300", mode, p.Stats().Committed)
		}
	}
}

func TestStatsAccessors(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.EquivIPC() != 0 || s.EIPC() != 0 {
		t.Error("zero-cycle stats must report zero rates")
	}
	if s.PredAccuracy() != 1 {
		t.Error("no branches means perfect accuracy")
	}
	s.Cycles, s.Committed, s.CommittedEquiv, s.Weighted = 100, 200, 400, 300
	if s.IPC() != 2 || s.EquivIPC() != 4 || s.EIPC() != 3 {
		t.Errorf("rates: ipc=%v eq=%v eipc=%v", s.IPC(), s.EquivIPC(), s.EIPC())
	}
}

func TestISAKindPolicyStrings(t *testing.T) {
	if ISAMMX.String() != "mmx" || ISAMOM.String() != "mom" {
		t.Error("ISAKind strings")
	}
	for p, want := range map[Policy]string{PolicyRR: "RR", PolicyICOUNT: "IC", PolicyOCOUNT: "OC", PolicyBALANCE: "BL"} {
		if p.String() != want {
			t.Errorf("policy %d = %q, want %q", p, p.String(), want)
		}
	}
}

package core

import (
	"testing"

	"mediasmt/internal/isa"
	"mediasmt/internal/mem"
	"mediasmt/internal/trace"
)

func TestFPDivideUnpipelined(t *testing.T) {
	// Back-to-back independent divides must serialize on the single
	// divide unit (II == latency), unlike independent FP adds.
	mkProg := func(op isa.Opcode) *trace.Script {
		body := []trace.Slot{
			{Op: op, Dst: isa.FPReg(1), Src1: isa.FPReg(2), Src2: isa.FPReg(3)},
			{Op: op, Dst: isa.FPReg(4), Src1: isa.FPReg(5), Src2: isa.FPReg(6)},
		}
		return trace.MustScript("fp", 1, 100, []trace.Phase{{Name: "p", Body: body, Iters: 1, PCBase: 0x1000}})
	}
	pd, _ := newTestCPU(t, ISAMMX, 1)
	pd.SetProgram(0, mkProg(isa.DIVT), 1)
	runToDrain(t, pd, 100000)

	pa, _ := newTestCPU(t, ISAMMX, 1)
	pa.SetProgram(0, mkProg(isa.ADDT), 1)
	runToDrain(t, pa, 100000)

	// 200 divides at II=16 need >= 3200 cycles; adds are pipelined.
	if pd.Stats().Cycles < 3200 {
		t.Errorf("unpipelined divides finished in %d cycles, want >= 3200", pd.Stats().Cycles)
	}
	if pa.Stats().Cycles >= pd.Stats().Cycles/4 {
		t.Errorf("pipelined adds (%d cycles) should be far faster than divides (%d)",
			pa.Stats().Cycles, pd.Stats().Cycles)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A load from the line a just-executed store wrote must forward
	// from the store queue instead of accessing memory.
	body := []trace.Slot{
		{Op: isa.STQ, Src1: isa.IntReg(1), Src2: isa.IntReg(2),
			Addr: trace.Addr{Base: 0x5000, Size: 1, Win: 1}},
		{Op: isa.LDQ, Dst: isa.IntReg(3), Src1: isa.IntReg(2),
			Addr: trace.Addr{Base: 0x5008, Size: 1, Win: 1}},
	}
	prog := trace.MustScript("fwd", 1, 1, []trace.Phase{{Name: "p", Body: body, Iters: 50, PCBase: 0x1000}})
	p, _ := newTestCPU(t, ISAMMX, 1)
	p.SetProgram(0, prog, 1)
	runToDrain(t, p, 10000)
	if p.Stats().LoadsForwarded == 0 {
		t.Error("same-line load after store must forward from the store queue")
	}
}

func TestVectorLoadsDoNotForward(t *testing.T) {
	// Stream loads always go to memory (no element-level forwarding).
	body := []trace.Slot{
		{Op: isa.VST, Src1: isa.MOMReg(1), Src2: isa.IntReg(2),
			Addr: trace.Addr{Base: 0x5000, Size: 1, Win: 1}},
		{Op: isa.VLD, Dst: isa.MOMReg(3), Src1: isa.IntReg(2),
			Addr: trace.Addr{Base: 0x5000, Size: 1, Win: 1}},
	}
	prog := trace.MustScript("vfwd", 1, 1, []trace.Phase{{Name: "p", Body: body, Iters: 10, VL: 8, PCBase: 0x1000}})
	p, _ := newTestCPU(t, ISAMOM, 1)
	p.SetProgram(0, prog, 1)
	runToDrain(t, p, 100000)
	if p.Stats().LoadsForwarded != 0 {
		t.Error("vector loads must not use scalar store forwarding")
	}
	if p.Stats().LoadElemSent != 80 {
		t.Errorf("load elements = %d, want 80", p.Stats().LoadElemSent)
	}
}

func TestWindowStallAccounting(t *testing.T) {
	// A tiny graduation window behind a long-latency chain must report
	// window-full dispatch stalls and still complete.
	cfg := ConfigForThreads(ISAMMX, 1)
	cfg.ROBPerThread = 8
	msys := mem.NewIdeal(mem.DefaultConfig(mem.ModeIdeal))
	p, err := New(cfg, msys)
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(0, chainProgram(100), 1)
	for p.Busy() && p.Now() < 100000 {
		p.Cycle()
	}
	if p.Busy() {
		t.Fatal("did not drain with a tiny window")
	}
	if p.Stats().ROBStalls == 0 {
		t.Error("tiny window must cause window-full stalls")
	}
}

func TestRenameStallAccounting(t *testing.T) {
	// A near-empty physical pool forces rename stalls without deadlock.
	cfg := ConfigForThreads(ISAMMX, 1)
	cfg.PhysInt = 32 + 2 // architected state plus two rename registers
	msys := mem.NewIdeal(mem.DefaultConfig(mem.ModeIdeal))
	p, err := New(cfg, msys)
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(0, aluProgram(100), 1)
	for p.Busy() && p.Now() < 100000 {
		p.Cycle()
	}
	if p.Busy() {
		t.Fatal("did not drain with a tiny rename pool")
	}
	if p.Stats().RenameStalls == 0 {
		t.Error("tiny rename pool must cause rename stalls")
	}
}

func TestICOUNTFavorsFastThread(t *testing.T) {
	// Under ICOUNT, a thread stuck on a serial chain accumulates queue
	// occupancy and loses fetch priority; the independent-op thread
	// must finish well before it would under strict alternation.
	cfg := ConfigForThreads(ISAMMX, 2)
	cfg.Policy = PolicyICOUNT
	msys := mem.NewIdeal(mem.DefaultConfig(mem.ModeIdeal))
	p, err := New(cfg, msys)
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(0, chainProgram(2000), 1)
	p.SetProgram(1, aluProgram(2000), 1)
	var fastDone int64 = -1
	for p.Busy() && p.Now() < 1_000_000 {
		p.Cycle()
		if fastDone < 0 && p.ContextDrained(1) {
			fastDone = p.Now()
		}
	}
	if p.Busy() {
		t.Fatal("did not drain")
	}
	if fastDone < 0 || fastDone >= p.Now() {
		t.Errorf("independent thread finished at %d of %d; ICOUNT should favour it", fastDone, p.Now())
	}
}

func TestBalancePolicyTracksVectorFetch(t *testing.T) {
	cfg := ConfigForThreads(ISAMOM, 2)
	cfg.Policy = PolicyBALANCE
	msys := mem.NewIdeal(mem.DefaultConfig(mem.ModeIdeal))
	p, err := New(cfg, msys)
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(0, momStreamProgram(300, 16), 1)
	p.SetProgram(1, aluProgram(600), 1)
	for p.Busy() && p.Now() < 1_000_000 {
		p.Cycle()
	}
	if p.Busy() {
		t.Fatal("BALANCE did not drain a scalar/vector thread mix")
	}
	st := p.Stats()
	if st.PerThreadCommitted[0] == 0 || st.PerThreadCommitted[1] == 0 {
		t.Error("both threads must commit under BALANCE")
	}
}

func TestUnconditionalBranchesNoPenalty(t *testing.T) {
	// Unconditional branches terminate fetch groups but never stall
	// fetch: a BR-heavy program must mispredict nothing.
	body := []trace.Slot{
		{Op: isa.ADDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(2), Src2: isa.IntReg(3)},
		{Op: isa.BR, TargetOff: 1},
	}
	prog := trace.MustScript("br", 1, 1, []trace.Phase{{Name: "p", Body: body, Iters: 200, PCBase: 0x1000}})
	p, _ := newTestCPU(t, ISAMMX, 1)
	p.SetProgram(0, prog, 1)
	runToDrain(t, p, 100000)
	if p.Stats().Mispredicts != 0 {
		t.Errorf("unconditional branches mispredicted %d times", p.Stats().Mispredicts)
	}
	if p.Stats().CondBranches != 0 {
		t.Error("BR must not count as a conditional branch")
	}
}

func TestAccumulatorSerialization(t *testing.T) {
	// Accumulator ops (VSADA into acc0) form a serial chain through
	// the accumulator; they must take at least occupancy * count.
	body := []trace.Slot{
		{Op: isa.VSADA, Dst: isa.AccReg(0), Src1: isa.MOMReg(1), Src2: isa.MOMReg(2), Src3: isa.AccReg(0)},
	}
	prog := trace.MustScript("acc", 1, 100, []trace.Phase{{Name: "p", Body: body, Iters: 1, VL: 16, PCBase: 0x1000}})
	p, _ := newTestCPU(t, ISAMOM, 1)
	p.SetProgram(0, prog, 1)
	runToDrain(t, p, 100000)
	if got := p.Stats().Cycles; got < 800 {
		t.Errorf("100 serial SL16 accumulator ops in %d cycles, want >= 800", got)
	}
}

func TestCommitWidthBounds(t *testing.T) {
	// Committed instructions per cycle never exceed CommitWidth; with
	// plenty of parallel work the average should approach a healthy
	// fraction of it.
	p, _ := newTestCPU(t, ISAMMX, 4)
	for i := 0; i < 4; i++ {
		p.SetProgram(i, aluProgram(500), 1)
	}
	runToDrain(t, p, 100000)
	st := p.Stats()
	ipc := st.IPC()
	if ipc > float64(p.cfg.CommitWidth) {
		t.Errorf("IPC %.2f exceeds commit width %d", ipc, p.cfg.CommitWidth)
	}
	if ipc < 2 {
		t.Errorf("IPC %.2f too low for four independent ALU threads", ipc)
	}
}

func TestFetchQueueBounded(t *testing.T) {
	p, _ := newTestCPU(t, ISAMMX, 1)
	p.SetProgram(0, chainProgram(1000), 1)
	for i := 0; i < 2000 && p.Busy(); i++ {
		p.Cycle()
		if n := len(p.threads[0].fq); n > p.cfg.FetchQCap {
			t.Fatalf("fetch queue grew to %d, cap %d", n, p.cfg.FetchQCap)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := ConfigForThreads(ISAMMX, 1)
	cfg.IssueMem = 0
	if _, err := New(cfg, mem.NewIdeal(mem.DefaultConfig(mem.ModeIdeal))); err == nil {
		t.Error("New must reject invalid configurations")
	}
}

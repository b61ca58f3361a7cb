package core

import (
	"reflect"
	"testing"

	"mediasmt/internal/isa"
	"mediasmt/internal/mem"
	"mediasmt/internal/trace"
)

// loadProgram builds n load-use pairs with cache-missing strides, so a
// single-thread run has long provably idle spans for the event path to
// skip.
func loadProgram(n int64, base uint64) *trace.Script {
	pages := uint32(n) * 4096
	body := []trace.Slot{
		{Op: isa.LDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(2),
			Addr: trace.Addr{Base: base, Size: pages, Win: pages, PerIter: 4096}},
		{Op: isa.ADDQ, Dst: isa.IntReg(3), Src1: isa.IntReg(1), Src2: isa.IntReg(3)},
	}
	return trace.MustScript("ldmiss", 1, 1, []trace.Phase{{Name: "p", Body: body, Iters: n, PCBase: 0x1000}})
}

// driveEvent runs the processor with the event discipline — Cycle only
// at NextWakeup times, AdvanceTo across the gaps — invoking onCycle
// after every executed cycle (mirroring the tick loop's per-cycle
// scan). It returns when onCycle reports done or the cap trips.
func driveEvent(t *testing.T, p *Processor, maxCycles int64, onCycle func(now int64) bool) {
	t.Helper()
	for now := int64(0); now < maxCycles; {
		p.AdvanceTo(now)
		p.Cycle()
		if onCycle(now) {
			return
		}
		wake := p.NextWakeup()
		if wake == NoWakeup {
			t.Fatalf("NextWakeup reported quiescence at cycle %d with work outstanding", now)
		}
		if wake <= now {
			wake = now + 1
		}
		now = wake
	}
	t.Fatalf("did not finish in %d cycles", maxCycles)
}

// TestEventDrainedRelaunchMatchesTick is the §5.1 wrap-around contract
// under the event engine: a drained context must be detected — and a
// successor program launched — at exactly the cycle the tick loop
// would have used, or the successor's start skews every downstream
// stat.
func TestEventDrainedRelaunchMatchesTick(t *testing.T) {
	type runOut struct {
		drainCycle  int64 // cycle ContextDrained(0) first reported true
		finalCycles int64
		committed   int64
	}
	run := func(event bool) runOut {
		msys := mem.New(mem.DefaultConfig(mem.ModeConventional))
		p, err := New(ConfigForThreads(ISAMMX, 1), msys)
		if err != nil {
			t.Fatal(err)
		}
		p.SetProgram(0, loadProgram(40, 0x10_0000), 1)
		var out runOut
		out.drainCycle = -1
		second := false
		onCycle := func(now int64) bool {
			if !p.ContextDrained(0) {
				return false
			}
			if !second {
				out.drainCycle = now
				p.SetProgram(0, loadProgram(40, 0x20_0000), 1)
				second = true
				return false
			}
			return true
		}
		if event {
			driveEvent(t, p, 1_000_000, onCycle)
		} else {
			for !onCycle(p.Now() - 1) {
				p.Cycle()
			}
		}
		if p.Busy() {
			t.Fatal("run finished with Busy() still true")
		}
		out.finalCycles = p.Stats().Cycles
		out.committed = p.Stats().Committed
		return out
	}

	tick := run(false)
	ev := run(true)
	if tick.drainCycle < 0 || ev.drainCycle < 0 {
		t.Fatalf("drain never observed: tick %d, event %d", tick.drainCycle, ev.drainCycle)
	}
	if ev.drainCycle != tick.drainCycle {
		t.Errorf("event engine relaunched at cycle %d, tick loop at %d", ev.drainCycle, tick.drainCycle)
	}
	if ev.finalCycles != tick.finalCycles || ev.committed != tick.committed {
		t.Errorf("after relaunch: event %d cycles/%d committed, tick %d cycles/%d committed",
			ev.finalCycles, ev.committed, tick.finalCycles, tick.committed)
	}
}

// TestAdvanceToAccountsIdleSpan pins the skipped-span accounting: each
// jumped cycle is one Cycles and one CyclesNoIssue, nothing else, and
// the round-robin pointer stays in step with a tick-loop twin.
func TestAdvanceToAccountsIdleSpan(t *testing.T) {
	mk := func() *Processor {
		p, err := New(ConfigForThreads(ISAMMX, 4), mem.NewIdeal(mem.DefaultConfig(mem.ModeIdeal)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	jump, tick := mk(), mk()
	jump.AdvanceTo(1000)
	for i := 0; i < 1000; i++ {
		tick.Cycle()
	}
	js, ts := jump.Stats(), tick.Stats()
	if js.Cycles != 1000 || js.CyclesNoIssue != 1000 {
		t.Errorf("jumped span: Cycles=%d CyclesNoIssue=%d, want 1000/1000", js.Cycles, js.CyclesNoIssue)
	}
	if !reflect.DeepEqual(*js, *ts) {
		t.Errorf("idle stats diverge:\n jump: %+v\n tick: %+v", *js, *ts)
	}
	if jump.rr != tick.rr {
		t.Errorf("round-robin pointer: jump %d, tick %d", jump.rr, tick.rr)
	}
	if jump.Now() != tick.Now() {
		t.Errorf("clock: jump %d, tick %d", jump.Now(), tick.Now())
	}
}

// TestAdvanceToChargesFrozenDispatchStalls: a span is skippable even
// while a thread holds undispatchable instructions (e.g. its queue
// target is full behind a long miss); the tick loop charges that
// thread one stall per cycle, so AdvanceTo must too.
func TestAdvanceToChargesFrozenDispatchStalls(t *testing.T) {
	msys := mem.New(mem.DefaultConfig(mem.ModeConventional))
	p, err := New(ConfigForThreads(ISAMMX, 1), msys)
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(0, loadProgram(200, 0x10_0000), 1)
	// Run until a wakeup gap opens while instructions sit in the fetch
	// queue — the frozen-stall situation.
	for now := int64(0); now < 100_000; {
		p.AdvanceTo(now)
		p.Cycle()
		wake := p.NextWakeup()
		if wake <= now {
			now++
			continue
		}
		if gap := wake - p.Now(); gap > 0 && p.threads[0].fqCount > 0 {
			before := p.st.ROBStalls + p.st.QueueStalls + p.st.RenameStalls
			p.AdvanceTo(wake)
			after := p.st.ROBStalls + p.st.QueueStalls + p.st.RenameStalls
			if after-before != gap {
				t.Fatalf("skipped %d-cycle span with a blocked thread charged %d stalls", gap, after-before)
			}
			return
		}
		now = wake
	}
	t.Skip("workload never produced a skippable span with a blocked dispatch; nothing to pin")
}

// TestNextWakeupQuiescent: with no programs installed the processor
// must report no wakeup at all — the property that lets the run loop
// terminate without spinning to MaxCycles.
func TestNextWakeupQuiescent(t *testing.T) {
	p, err := New(ConfigForThreads(ISAMMX, 2), mem.NewIdeal(mem.DefaultConfig(mem.ModeIdeal)))
	if err != nil {
		t.Fatal(err)
	}
	if p.Busy() {
		t.Fatal("fresh processor must not be busy")
	}
	if w := p.NextWakeup(); w != NoWakeup {
		t.Errorf("quiescent NextWakeup = %d, want NoWakeup", w)
	}
	p.SetProgram(0, aluProgram(1), 1)
	if w := p.NextWakeup(); w != 0 {
		t.Errorf("NextWakeup with fetchable work = %d, want 0 (now)", w)
	}
	runToDrain(t, p, 1000)
	if w := p.NextWakeup(); w != NoWakeup {
		t.Errorf("drained NextWakeup = %d, want NoWakeup", w)
	}
}

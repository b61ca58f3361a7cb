package trace

import (
	"testing"
	"testing/quick"

	"mediasmt/internal/isa"
)

func constAddr(a uint64) AddrFn { return func(*Ctx) uint64 { return a } }

func simpleLoop(iters int64, rounds int64) *Script {
	body := []Slot{
		{Op: isa.LDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(2), Addr: constAddr(0x1000)},
		{Op: isa.ADDQ, Dst: isa.IntReg(3), Src1: isa.IntReg(1), Src2: isa.IntReg(3)},
		{Op: isa.STQ, Src1: isa.IntReg(3), Src2: isa.IntReg(2), Addr: constAddr(0x2000)},
		{Op: isa.BNE, Src1: isa.IntReg(3), TargetOff: -3},
	}
	return MustScript("loop", 7, rounds, []Phase{{Name: "l", Body: body, Iters: iters, PCBase: 0x10000}})
}

func TestScriptInstructionCount(t *testing.T) {
	s := simpleLoop(10, 3)
	var in Inst
	n := 0
	for s.Next(&in) {
		n++
	}
	if want := 4 * 10 * 3; n != want {
		t.Errorf("emitted %d instructions, want %d", n, want)
	}
	// After exhaustion, Next must keep returning false.
	if s.Next(&in) {
		t.Error("Next returned true after completion")
	}
}

func TestScriptBackEdgeSemantics(t *testing.T) {
	s := simpleLoop(3, 1)
	var in Inst
	var outcomes []bool
	for s.Next(&in) {
		if in.Op == isa.BNE {
			outcomes = append(outcomes, in.Taken)
		}
	}
	want := []bool{true, true, false}
	if len(outcomes) != len(want) {
		t.Fatalf("got %d branch outcomes, want %d", len(outcomes), len(want))
	}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Errorf("back-edge %d taken=%v, want %v (loop must exit on last iteration)", i, outcomes[i], want[i])
		}
	}
}

func TestScriptDeterminism(t *testing.T) {
	collect := func() []Inst {
		s := simpleLoop(5, 2)
		var out []Inst
		var in Inst
		for s.Next(&in) {
			out = append(out, in)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs between identical scripts: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScriptResetReplays(t *testing.T) {
	s := simpleLoop(5, 2)
	var first []Inst
	var in Inst
	for s.Next(&in) {
		first = append(first, in)
	}
	s.Reset()
	i := 0
	for s.Next(&in) {
		if in != first[i] {
			t.Fatalf("after Reset, instruction %d differs: %+v vs %+v", i, in, first[i])
		}
		i++
	}
	if i != len(first) {
		t.Errorf("after Reset emitted %d, want %d", i, len(first))
	}
}

func TestScriptPCsAndTargets(t *testing.T) {
	s := simpleLoop(2, 1)
	var in Inst
	pcs := map[uint64]bool{}
	for s.Next(&in) {
		pcs[in.PC] = true
		if in.Op == isa.BNE {
			if in.Target != 0x10000 {
				t.Errorf("back-edge target = %#x, want %#x", in.Target, 0x10000)
			}
		}
	}
	for i := 0; i < 4; i++ {
		pc := uint64(0x10000 + 4*i)
		if !pcs[pc] {
			t.Errorf("missing PC %#x", pc)
		}
	}
}

func TestScriptStreamLengthResolution(t *testing.T) {
	body := []Slot{
		{Op: isa.VLD, Dst: isa.MOMReg(0), Addr: constAddr(0x100)},
		{Op: isa.VPADDW, Dst: isa.MOMReg(1), Src1: isa.MOMReg(0), Src2: isa.MOMReg(1), SLen: 5},
		{Op: isa.VZERO, Dst: isa.MOMReg(2)}, // non-stream MOM op
	}
	s := MustScript("vl", 1, 1, []Phase{{Name: "k", Body: body, Iters: 1, VL: 11}})
	var in Inst
	var got []uint8
	for s.Next(&in) {
		got = append(got, in.SLen)
	}
	want := []uint8{11, 5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slot %d SLen = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScriptValidation(t *testing.T) {
	mem := Slot{Op: isa.LDQ, Dst: isa.IntReg(1)}
	if _, err := NewScript("bad", 1, 1, []Phase{{Body: []Slot{mem}, Iters: 1}}); err == nil {
		t.Error("memory slot without Addr must be rejected")
	}
	far := Slot{Op: isa.BR, TargetOff: 10}
	if _, err := NewScript("bad", 1, 1, []Phase{{Body: []Slot{far}, Iters: 1}}); err == nil {
		t.Error("branch target outside body must be rejected")
	}
	if _, err := NewScript("bad", 1, 0, nil); err == nil {
		t.Error("zero rounds must be rejected")
	}
	if _, err := NewScript("bad", 1, 1, []Phase{{Body: nil, Iters: 1}}); err == nil {
		t.Error("empty body must be rejected")
	}
	if _, err := NewScript("bad", 1, 1, []Phase{{Body: []Slot{{Op: isa.ADDQ}}}}); err == nil {
		t.Error("phase without iterations must be rejected")
	}
}

func TestEquivCounting(t *testing.T) {
	in := Inst{Op: isa.VPADDW, SLen: 11}
	if in.Equiv() != 11 {
		t.Errorf("stream equiv = %d, want 11 (paper: 'a MOM instruction that operates with a stream length of 11 counts as eleven instructions')", in.Equiv())
	}
	in = Inst{Op: isa.PADDW, SLen: 1}
	if in.Equiv() != 1 {
		t.Errorf("mmx equiv = %d, want 1", in.Equiv())
	}
	in = Inst{Op: isa.VZERO, SLen: 1}
	if in.Equiv() != 1 {
		t.Errorf("non-stream mom equiv = %d, want 1", in.Equiv())
	}
}

func TestCountMix(t *testing.T) {
	s := simpleLoop(10, 1)
	m := CountMix(s)
	if m.Total != 40 {
		t.Errorf("total = %d, want 40", m.Total)
	}
	if m.Counts[isa.ClassMem] != 20 {
		t.Errorf("mem = %d, want 20", m.Counts[isa.ClassMem])
	}
	if m.Counts[isa.ClassInt] != 20 {
		t.Errorf("int = %d, want 20", m.Counts[isa.ClassInt])
	}
	if m.Branches != 10 {
		t.Errorf("branches = %d, want 10", m.Branches)
	}
	// CountMix must leave the program rewound.
	var in Inst
	n := 0
	for s.Next(&in) {
		n++
	}
	if n != 40 {
		t.Errorf("program not rewound after CountMix: %d", n)
	}
	// Percentages sum to 100.
	sum := 0.0
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		sum += m.Pct(c)
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("percentages sum to %f", sum)
	}
}

func TestMixEquivExpansion(t *testing.T) {
	body := []Slot{
		{Op: isa.VLD, Dst: isa.MOMReg(0), Addr: constAddr(0)},
		{Op: isa.VPADDW, Dst: isa.MOMReg(0), Src1: isa.MOMReg(0), Src2: isa.MOMReg(0)},
	}
	s := MustScript("v", 1, 1, []Phase{{Body: body, Iters: 4, VL: 16}})
	m := CountMix(s)
	if m.Total != 8 {
		t.Errorf("raw total = %d, want 8", m.Total)
	}
	if m.TotalEq != 8*16 {
		t.Errorf("equiv total = %d, want %d", m.TotalEq, 8*16)
	}
	if m.MemElems != 4*16 {
		t.Errorf("mem elems = %d, want %d", m.MemElems, 4*16)
	}
}

func TestRNGDeterminismAndRanges(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Error("zero seed must be remapped")
	}
	f := func(seed uint64, n uint16) bool {
		r := NewRNG(seed)
		k := int(n%1000) + 1
		v := r.Intn(k)
		fl := r.Float64()
		return v >= 0 && v < k && fl >= 0 && fl < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFootprint(t *testing.T) {
	s := simpleLoop(1, 1)
	if s.Footprint() != 16 {
		t.Errorf("footprint = %d, want 16", s.Footprint())
	}
}

func TestItersF(t *testing.T) {
	body := []Slot{{Op: isa.ADDQ, Dst: isa.IntReg(1)}}
	ph := Phase{Body: body, ItersF: func(round int64, rng *RNG) int64 { return round + 1 }}
	s := MustScript("vf", 3, 3, []Phase{ph})
	var in Inst
	n := 0
	for s.Next(&in) {
		n++
	}
	if n != 1+2+3 {
		t.Errorf("ItersF total = %d, want 6", n)
	}
}

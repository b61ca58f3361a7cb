package workload

import (
	"reflect"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/isa"
	"mediasmt/internal/trace"
)

// collect drains a single phase wrapped in a script.
func collect(t *testing.T, ph trace.Phase, vl uint8) []trace.Inst {
	t.Helper()
	s, err := trace.NewScript("k", 1, 2, []trace.Phase{ph})
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Inst
	var in trace.Inst
	for s.Next(&in) {
		out = append(out, in)
	}
	return out
}

func regionFor(size uint32) region { return region{base: 0x100000, size: size} }

func TestKernelPhasesBothVariantsValid(t *testing.T) {
	r := regionFor(32 << 10)
	tb := regionFor(4 << 10)
	builders := map[string]func(k core.ISAKind) trace.Phase{
		"sad":    func(k core.ISAKind) trace.Phase { return sadPhase(k, 0x1000, 32, r, r) },
		"dct":    func(k core.ISAKind) trace.Phase { return dctPhase(k, 0x2000, 32, r, r, tb) },
		"quant":  func(k core.ISAKind) trace.Phase { return quantPhase(k, 0x3000, 32, r, tb) },
		"fir":    func(k core.ISAKind) trace.Phase { return firPhase(k, 0x4000, 32, r, tb) },
		"interp": func(k core.ISAKind) trace.Phase { return interpPhase(k, 0x5000, 32, r, r, r) },
	}
	for name, build := range builders {
		mmxInsts := collect(t, build(core.ISAMMX), 0)
		momInsts := collect(t, build(core.ISAMOM), 16)
		if len(mmxInsts) == 0 || len(momInsts) == 0 {
			t.Fatalf("%s: empty kernel", name)
		}
		// MMX kernels must not contain MOM opcodes and vice versa.
		for _, in := range mmxInsts {
			if in.Op.IsMOM() {
				t.Fatalf("%s: MOM opcode %v in MMX build", name, in.Op)
			}
		}
		momHasStream := false
		for _, in := range momInsts {
			if in.Op.IsMMX() {
				t.Fatalf("%s: MMX opcode %v in MOM build", name, in.Op)
			}
			if in.Op.Info().Stream && in.SLen > 1 {
				momHasStream = true
			}
		}
		if !momHasStream {
			t.Errorf("%s: MOM build has no stream instructions", name)
		}
		// The MOM build does the same work in fewer raw instructions.
		if len(momInsts) >= len(mmxInsts) {
			t.Errorf("%s: MOM raw count %d >= MMX %d", name, len(momInsts), len(mmxInsts))
		}
	}
}

func TestKernelAddressesStayInRegions(t *testing.T) {
	r := region{base: 0x100000, size: 32 << 10}
	tb := region{base: 0x200000, size: 4 << 10}
	for _, k := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, in := range collect(t, dctPhase(k, 0x1000, 64, r, r, tb), 16) {
			if in.Op.Info().Mem == isa.MemNone {
				continue
			}
			last := in.Addr + uint64(in.Equiv()-1)*uint64(in.Stride)
			inR := in.Addr >= r.base && last < r.base+uint64(r.size)
			inT := in.Addr >= tb.base && last < tb.base+uint64(tb.size)
			if !inR && !inT {
				t.Fatalf("%v: address %#x (last %#x) outside both regions", k, in.Addr, last)
			}
		}
	}
}

func TestProtocolPhaseShape(t *testing.T) {
	p := protocolPhase(protoParams{
		name: "proto", pc: 0x1000, iters: 3, slots: 300, seed: 9,
		tbl: regionFor(4 << 10), strm: region{base: 0x300000, size: 8 << 10},
		local: region{base: 0x400000, size: 1 << 10},
	})
	// The generator stops adding picks at slots-3 and appends the loop
	// tail, so the body lands within a few slots of the request.
	if len(p.Body) < 290 || len(p.Body) > 305 {
		t.Errorf("protocol body has %d slots, want about 300", len(p.Body))
	}
	var m trace.Mix
	s := trace.MustScript("p", 1, 1, []trace.Phase{p})
	var in trace.Inst
	for s.Next(&in) {
		m.Add(&in)
	}
	if got := m.Pct(isa.ClassMem); got < 12 || got > 30 {
		t.Errorf("protocol mem%% = %.1f, want ~20", got)
	}
	if got := m.Pct(isa.ClassInt); got < 65 {
		t.Errorf("protocol int%% = %.1f, want integer-dominated", got)
	}
	if got := 100 * float64(m.Branches) / float64(m.Total); got < 5 || got > 20 {
		t.Errorf("protocol branch density %.1f%%, want 5-20%%", got)
	}
	if m.Counts[isa.ClassSIMD] != 0 {
		t.Error("protocol code must not contain SIMD")
	}
}

func TestMMXTailHeavierThanMOMTail(t *testing.T) {
	// The MMX per-iteration loop overhead must exceed the shared tail:
	// that difference is the scalar work MOM folds into its stream
	// registers.
	if len(mmxTail(nil)) <= len(loopTail(nil)) {
		t.Error("mmxTail must carry more loop overhead than loopTail")
	}
}

func TestStaggerSpreadsLayouts(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(1); i <= 16; i++ {
		seen[stagger(i<<33)] = true
	}
	if len(seen) < 8 {
		t.Errorf("stagger produced only %d distinct offsets for 16 instances", len(seen))
	}
}

// addrs drives one load slot with address a through Script.Next for
// rounds rounds of iters iterations and returns each round's addresses.
func addrs(t *testing.T, a trace.Addr, iters, rounds int64) [][]uint64 {
	t.Helper()
	body := []trace.Slot{{Op: isa.LDQ, Dst: rr(1), Addr: a}}
	s, err := trace.NewScript("addr", 1, rounds, []trace.Phase{{Body: body, Iters: iters}})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]uint64, rounds)
	var in trace.Inst
	for i := int64(0); s.Next(&in); i++ {
		out[i/iters] = append(out[i/iters], in.Addr)
	}
	return out
}

// TestAddressPatterns drives the three address constructors through
// the script engine and checks the access patterns they stand for.
func TestAddressPatterns(t *testing.T) {
	r := region{base: 0x1000, size: 64 << 10}
	distinct := func(what string, as []uint64) int {
		t.Helper()
		seen := map[uint64]bool{}
		for _, a := range as {
			if a < r.base || a >= r.base+uint64(r.size) {
				t.Fatalf("%s: address %#x outside the region", what, a)
			}
			seen[a] = true
		}
		return len(seen)
	}

	// A window walk: 1000 iterations at 16 bytes/iter wrap inside the
	// 2 KB window, and the window moves with the round.
	win := addrs(t, winAddr(r, 2048, 16, 0, 512), 1000, 2)
	for round, as := range win {
		if n := distinct("window", as); n != 2048/16 {
			t.Errorf("round %d: window walk touched %d distinct addresses, want %d", round, n, 2048/16)
		}
		if as[2048/16] != as[0] {
			t.Errorf("round %d: window walk did not wrap after %d iterations", round, 2048/16)
		}
	}
	if win[1][0] == win[0][0] {
		t.Error("window must move across rounds")
	}

	// A sequential walk is the window walk with the window the size of
	// the region: one pass touches every 8-byte word once.
	seq := addrs(t, seqAddr(r, 8, 24, 512), 10000, 3)
	if !reflect.DeepEqual(seq, addrs(t, winAddr(r, r.size, 8, 24, 512), 10000, 3)) {
		t.Error("sequential walk differs from a region-sized window walk")
	}
	if n := distinct("sequential", seq[0][:r.size/8]); n != int(r.size/8) {
		t.Errorf("one pass of the sequential walk touched %d distinct words, want %d", n, r.size/8)
	}

	// A random pick lands inside the region on Align boundaries and
	// spreads over it.
	rnd := addrs(t, randAddr(r, 64), 5000, 1)[0]
	for _, a := range rnd {
		if (a-r.base)%64 != 0 {
			t.Fatalf("random pick %#x is not 64-byte aligned within the region", a)
		}
	}
	if n := distinct("random", rnd); n < int(r.size/64)/2 {
		t.Errorf("5000 random picks touched only %d of %d aligned slots", n, r.size/64)
	}
}

func TestMomItersCoversWork(t *testing.T) {
	for _, c := range []struct{ mmx, want int64 }{{1, 1}, {16, 1}, {17, 2}, {160, 10}} {
		if got := momIters(c.mmx); got != c.want {
			t.Errorf("momIters(%d) = %d, want %d", c.mmx, got, c.want)
		}
	}
}

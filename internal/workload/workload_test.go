package workload

import (
	"math"
	"reflect"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/isa"
	"mediasmt/internal/trace"
)

func TestRegistryAndRunOrder(t *testing.T) {
	if len(Registry) != 7 {
		t.Fatalf("registry has %d programs, want 7 (Table 2)", len(Registry))
	}
	if len(RunOrder) != 8 {
		t.Fatalf("run order has %d entries, want 8 (section 5.1)", len(RunOrder))
	}
	// The most significant program (mpeg2dec) is included twice.
	n := 0
	for _, name := range RunOrder {
		if name == "mpeg2dec" {
			n++
		}
		if _, err := Get(name); err != nil {
			t.Errorf("run order references unknown program %q", name)
		}
	}
	if n != 2 {
		t.Errorf("mpeg2dec appears %d times, want 2", n)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("Get of unknown benchmark must fail")
	}
}

// TestProgramsDeterministic checks that a program is plain data: two
// builds with the same arguments are deeply equal values, slot for
// slot, for every benchmark and media ISA.
func TestProgramsDeterministic(t *testing.T) {
	for _, b := range Registry {
		for _, k := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
			if !reflect.DeepEqual(b.Program(k, 7, 1<<33, 0.05), b.Program(k, 7, 1<<33, 0.05)) {
				t.Errorf("%s.%v: identical builds are not equal", b.Name, k)
			}
		}
	}
}

func TestSeedsChangeDynamicBehaviourNotStructure(t *testing.T) {
	b := MustGet("mpeg2enc")
	m1 := trace.CountMix(b.Program(core.ISAMMX, 1, 0, 0.05))
	m2 := trace.CountMix(b.Program(core.ISAMMX, 2, 0, 0.05))
	// Same static structure: totals match exactly unless a jittered
	// phase differs; allow 10%.
	ratio := float64(m1.Total) / float64(m2.Total)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("seed changed instruction count by %.1f%%", 100*math.Abs(ratio-1))
	}
}

// TestTable3Calibration pins the workload models to the paper's
// Table 3 within tolerances: this is the core substitution argument of
// the reproduction (see DESIGN.md section 5).
func TestTable3Calibration(t *testing.T) {
	var aggMMX, aggMOM trace.Mix
	for _, b := range Registry {
		mm := trace.CountMix(b.Program(core.ISAMMX, 1, 0, 1))
		mo := trace.CountMix(b.Program(core.ISAMOM, 1, 0, 1))

		// Per-benchmark equivalent-count ratio tracks the paper's.
		got := float64(mo.TotalEq) / float64(mm.Total)
		want := b.PaperMOM / b.PaperMMX
		if math.Abs(got-want) > 0.06 {
			t.Errorf("%s: MOM/MMX equivalent ratio %.3f, paper %.3f (tolerance 0.06)", b.Name, got, want)
		}
		// Scaled instruction counts approximate paper/1000.
		if ratio := float64(mm.Total) / (b.PaperMMX * 1000); ratio < 0.8 || ratio > 1.2 {
			t.Errorf("%s: MMX count %d is %.2fx the scaled paper count", b.Name, mm.Total, ratio)
		}
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			aggMMX.Equiv[c] += mm.Equiv[c]
			aggMOM.Equiv[c] += mo.Equiv[c]
		}
		aggMMX.TotalEq += mm.TotalEq
		aggMOM.TotalEq += mo.TotalEq
	}

	// Aggregate MMX mix: int ~62%, simd ~16%, mem ~20% (Table 3).
	if got := aggMMX.Pct(isa.ClassInt); got < 57 || got > 68 {
		t.Errorf("aggregate MMX int%% = %.1f, paper ~62", got)
	}
	if got := aggMMX.Pct(isa.ClassSIMD); got < 12 || got > 20 {
		t.Errorf("aggregate MMX simd%% = %.1f, paper ~16", got)
	}
	if got := aggMMX.Pct(isa.ClassMem); got < 16 || got > 25 {
		t.Errorf("aggregate MMX mem%% = %.1f, paper ~20", got)
	}

	// MOM deltas: int around -20%, mem around -7%, simd around -62%.
	intDelta := 100 * (float64(aggMOM.Equiv[isa.ClassInt])/float64(aggMMX.Equiv[isa.ClassInt]) - 1)
	memDelta := 100 * (float64(aggMOM.Equiv[isa.ClassMem])/float64(aggMMX.Equiv[isa.ClassMem]) - 1)
	simdDelta := 100 * (float64(aggMOM.Equiv[isa.ClassSIMD])/float64(aggMMX.Equiv[isa.ClassSIMD]) - 1)
	if intDelta > -8 || intDelta < -30 {
		t.Errorf("MOM int delta %.1f%%, paper ~-20%%", intDelta)
	}
	if memDelta > -1 || memDelta < -20 {
		t.Errorf("MOM mem delta %.1f%%, paper ~-7%%", memDelta)
	}
	if simdDelta > -50 || simdDelta < -80 {
		t.Errorf("MOM simd delta %.1f%%, paper ~-62%%", simdDelta)
	}
	// Total: 1429 -> 1087 M (-24%).
	total := 100 * (float64(aggMOM.TotalEq)/float64(aggMMX.TotalEq) - 1)
	if total > -15 || total < -33 {
		t.Errorf("MOM total delta %.1f%%, paper ~-24%%", total)
	}
}

func TestMesaNotVectorized(t *testing.T) {
	b := MustGet("mesa")
	mm := trace.CountMix(b.Program(core.ISAMMX, 1, 0, 0.1))
	mo := trace.CountMix(b.Program(core.ISAMOM, 1, 0, 0.1))
	if mm.Total != mo.Total {
		t.Errorf("mesa builds differ: %d vs %d (not vectorized, must be identical)", mm.Total, mo.Total)
	}
	if mm.Counts[isa.ClassSIMD] != 0 {
		t.Errorf("mesa has %d SIMD instructions, want 0", mm.Counts[isa.ClassSIMD])
	}
	if mm.Pct(isa.ClassFP) < 5 {
		t.Errorf("mesa FP%% = %.1f, want the workload's FP share", mm.Pct(isa.ClassFP))
	}
}

func TestEIPCFactor(t *testing.T) {
	for _, b := range Registry {
		f := b.EIPCFactor(core.ISAMOM)
		if f < 1 {
			t.Errorf("%s: EIPC factor %.3f < 1 (MOM raw count must not exceed MMX)", b.Name, f)
		}
		if b.EIPCFactor(core.ISAMMX) != 1 {
			t.Errorf("%s: MMX factor must be 1", b.Name)
		}
	}
	// mpeg2enc collapses the most.
	if MustGet("mpeg2enc").EIPCFactor(core.ISAMOM) < MustGet("gsmdec").EIPCFactor(core.ISAMOM) {
		t.Error("mpeg2enc must have a larger EIPC factor than gsmdec")
	}
}

func TestAddressSpacesDisjoint(t *testing.T) {
	// Two instances at different bases must emit disjoint data
	// addresses (they model separate processes).
	b := MustGet("gsmdec")
	seen := map[uint64]uint8{}
	for i, base := range []uint64{1 << 33, 2 << 33} {
		p := b.Program(core.ISAMMX, 1, base, 0.02)
		var in trace.Inst
		for p.Next(&in) {
			if in.Op.Info().Mem != isa.MemNone {
				seen[in.Addr] |= 1 << i
			}
		}
	}
	for a, mask := range seen {
		if mask == 3 {
			t.Fatalf("address %#x used by both instances", a)
		}
	}
}

func TestCodeFootprints(t *testing.T) {
	// The combined I-footprint must stress a 64 KB I-cache at 8
	// threads but fit comfortably for 1-2 threads (Table 4 behaviour).
	// A program's footprint is the code it runs: its distinct PCs at 4
	// bytes each.
	var total int64
	for _, name := range RunOrder {
		pcs := map[uint64]bool{}
		s := MustGet(name).Program(core.ISAMMX, 1, 0, 0.01)
		var in trace.Inst
		for s.Next(&in) {
			pcs[in.PC] = true
		}
		fp := int64(len(pcs)) * 4
		if fp < 2<<10 || fp > 32<<10 {
			t.Errorf("%s: footprint %d bytes outside [2KB, 32KB]", name, fp)
		}
		total += fp
	}
	// The eight concurrent programs must pressure the 64 KB two-way
	// I-cache (conflict misses at 8 threads) without single programs
	// thrashing it alone.
	if total < 40<<10 {
		t.Errorf("aggregate footprint %d bytes is too small to pressure the I-cache", total)
	}
}

func TestRoundsScaleLinearly(t *testing.T) {
	b := MustGet("jpegenc")
	r1 := b.Rounds(1)
	r2 := b.Rounds(2)
	if r2 < 2*r1-2 || r2 > 2*r1+2 {
		t.Errorf("rounds at scale 2 = %d, want about %d", r2, 2*r1)
	}
	if b.Rounds(0.0001) != 1 {
		t.Error("rounds must floor at 1")
	}
}

// BenchmarkProgramBuild builds the eight RunOrder programs for both
// media ISAs at scale 0.02; allocs/op and B/op are what building
// programs costs the collector.
func BenchmarkProgramBuild(b *testing.B) {
	for _, name := range RunOrder {
		MustGet(name).Rounds(1) // measure each benchmark before the timer starts
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ctx, name := range RunOrder {
			for _, k := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
				MustGet(name).Program(k, uint64(ctx+1), uint64(ctx+1)<<33, 0.02)
			}
		}
	}
}

package workload

import (
	"mediasmt/internal/core"
	"mediasmt/internal/isa"
	"mediasmt/internal/trace"
)

// Register shorthands. Kernels use a fixed convention: integer r8/r9
// are the loop index and limit, r10 the exit condition, r11-r13 address
// registers, r14 the step; MMX code uses m0-m15; MOM code uses stream
// registers v0-v7 and packed accumulator a0.
func rr(i int) isa.Reg { return isa.IntReg(i) }
func fr(i int) isa.Reg { return isa.FPReg(i) }
func mr(i int) isa.Reg { return isa.MMXReg(i) }
func vr(i int) isa.Reg { return isa.MOMReg(i) }
func ar(i int) isa.Reg { return isa.AccReg(i) }

// region is one data buffer in a benchmark's address space.
type region struct {
	base uint64
	size uint32
}

// arena lays out a benchmark's data regions after its code region. The
// layout is staggered by a base-derived offset: different program
// instances are different processes whose physical pages would never
// align, so their buffers must not fall onto identical cache sets.
type arena struct{ next uint64 }

func stagger(base uint64) uint64 {
	return (base >> 33) % 61 * 0x5000
}

func newArena(base uint64) *arena {
	return &arena{next: base + 0x10000000 + stagger(base)}
}

func (a *arena) alloc(size uint32) region {
	r := region{base: a.next, size: size}
	a.next += (uint64(size) + 0xfff) &^ uint64(0xfff)
	return r
}

// codeAt returns the PC base for the idx-th phase of a program: each
// phase occupies its own 16 KB code region, which is what the
// instruction cache footprint is made of.
func codeAt(base uint64, idx int) uint64 {
	return base + stagger(base) + uint64(idx)*0x4000
}

// seqAddr walks a region sequentially: perIter bytes per iteration plus
// a per-round skip, wrapping at the region size.
func seqAddr(r region, perIter, off, roundSkip uint32) trace.Addr {
	return winAddr(r, r.size, perIter, off, roundSkip)
}

// winAddr walks a small reuse window inside a region: the window holds
// one macroblock / search range / speech frame that the kernel revisits
// many times, and the window itself advances once per round. This is
// the paper's "stream-like patterns at kernel level but high locality
// at the algorithm level" (§2).
func winAddr(r region, win, perIter, off, roundSkip uint32) trace.Addr {
	return trace.Addr{Base: r.base, Size: r.size, Win: win, PerIter: perIter, Off: off, RoundSkip: roundSkip}
}

// randAddr picks a uniformly random aligned address in the region
// (table lookups).
func randAddr(r region, align uint32) trace.Addr {
	return trace.Addr{Base: r.base, Size: r.size, Align: align}
}

// loopTail appends the canonical loop overhead: index update, compare,
// backward conditional branch to slot 0.
func loopTail(body []trace.Slot) []trace.Slot {
	n := len(body)
	return append(body,
		trace.Slot{Op: isa.ADDQ, Dst: rr(8), Src1: rr(8), Src2: rr(14)},
		trace.Slot{Op: isa.CMPLT, Dst: rr(10), Src1: rr(8), Src2: rr(9)},
		trace.Slot{Op: isa.BNE, Src1: rr(10), TargetOff: int32(-(n + 2))},
	)
}

// mmxTail is the loop overhead of an MMX media kernel: the per-8-bytes
// loop must advance every pointer it uses and test the bound, which is
// exactly the scalar loop-control work a MOM stream instruction folds
// into its stream-length and stride registers.
func mmxTail(body []trace.Slot) []trace.Slot {
	n := len(body)
	return append(body,
		trace.Slot{Op: isa.ADDQ, Dst: rr(11), Src1: rr(11), Src2: rr(14)},
		trace.Slot{Op: isa.ADDQ, Dst: rr(12), Src1: rr(12), Src2: rr(14)},
		trace.Slot{Op: isa.ADDQ, Dst: rr(8), Src1: rr(8), Src2: rr(14)},
		trace.Slot{Op: isa.CMPLT, Dst: rr(10), Src1: rr(8), Src2: rr(9)},
		trace.Slot{Op: isa.BNE, Src1: rr(10), TargetOff: int32(-(n + 4))},
	)
}

// momPrelude is the stream setup executed once before a MOM kernel:
// stream length and stride registers (renamed through the integer
// pool) and accumulator reset.
func momPrelude(pc uint64) trace.Phase {
	body := []trace.Slot{
		{Op: isa.SETVL, Dst: rr(15), Src1: rr(9)},
		{Op: isa.SETSTR, Dst: rr(24), Src1: rr(14)},
		{Op: isa.LDA, Dst: rr(8), Src1: rr(15)},
		{Op: isa.VZERO, Dst: vr(7)},
		{Op: isa.WACW, Dst: ar(0), Src1: vr(7)},
	}
	return trace.Phase{Name: "vprelude", Body: body, Iters: 1, PCBase: pc}
}

// sadPhase is block-matching motion estimation: sum of absolute
// differences between a current and a reference macroblock row. One
// MMX iteration covers 16 bytes; one MOM iteration covers 16 packed
// registers (256 bytes) per stream pair, with the SAD accumulating
// into the packed accumulator (no paddw merge chain, no reduction
// tree).
func sadPhase(k core.ISAKind, pc uint64, mmxIters int64, cur, ref region) trace.Phase {
	if k == core.ISAMMX {
		body := []trace.Slot{
			{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
			{Op: isa.MOVQLD, Dst: mr(0), Src1: rr(11), Addr: winAddr(cur, 2048, 16, 0, 512)},
			{Op: isa.MOVQLD, Dst: mr(1), Src1: rr(11), Addr: winAddr(cur, 2048, 16, 8, 512)},
			// The reference block is unaligned: every 8 bytes costs two
			// aligned loads plus a shift/shift/or merge. MOM's vldu does
			// this in hardware.
			{Op: isa.MOVQLD, Dst: mr(2), Src1: rr(12), Addr: winAddr(ref, 4096, 48, 0, 512)},
			{Op: isa.MOVQLD, Dst: mr(3), Src1: rr(12), Addr: winAddr(ref, 4096, 48, 8, 512)},
			{Op: isa.MOVQLD, Dst: mr(8), Src1: rr(12), Addr: winAddr(ref, 4096, 48, 16, 512)},
			{Op: isa.PSRLQ, Dst: mr(9), Src1: mr(2), Src2: mr(14)},
			{Op: isa.PSLLQ, Dst: mr(10), Src1: mr(3), Src2: mr(14)},
			{Op: isa.POR, Dst: mr(9), Src1: mr(9), Src2: mr(10)},
			{Op: isa.PSRLQ, Dst: mr(13), Src1: mr(3), Src2: mr(14)},
			{Op: isa.PSLLQ, Dst: mr(10), Src1: mr(8), Src2: mr(14)},
			{Op: isa.POR, Dst: mr(13), Src1: mr(13), Src2: mr(10)},
			{Op: isa.PSADBW, Dst: mr(4), Src1: mr(0), Src2: mr(9)},
			{Op: isa.PSADBW, Dst: mr(5), Src1: mr(1), Src2: mr(13)},
			{Op: isa.PADDW, Dst: mr(6), Src1: mr(6), Src2: mr(4)},
			{Op: isa.PADDW, Dst: mr(7), Src1: mr(7), Src2: mr(5)},
			// Early-termination check against the best SAD so far: the
			// packed accumulator makes this unnecessary under MOM.
			{Op: isa.PCMPGTW, Dst: mr(11), Src1: mr(6), Src2: mr(15)},
			{Op: isa.PMOVMSKB, Dst: mr(12), Src1: mr(11)},
		}
		return trace.Phase{Name: "sad", Body: mmxTail(body), Iters: mmxIters, PCBase: pc}
	}
	// The current block stays resident in stream registers v0/v1 across
	// the whole candidate search (16 packed registers hold a full
	// macroblock row strip); only the reference candidates stream in.
	// The MMX build cannot keep the block resident: the unaligned-merge
	// temporaries exhaust its register budget, so it reloads per step.
	body := []trace.Slot{
		{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
		{Op: isa.VLDU, Dst: vr(2), Src1: rr(11), Addr: winAddr(ref, 4096, 768, 0, 512)},
		{Op: isa.VLDU, Dst: vr(3), Src1: rr(11), Addr: winAddr(ref, 4096, 768, 128, 512)},
		{Op: isa.VSADA, Dst: ar(0), Src1: vr(0), Src2: vr(2), Src3: ar(0)},
		{Op: isa.VSADA, Dst: ar(0), Src1: vr(1), Src2: vr(3), Src3: ar(0)},
	}
	return trace.Phase{Name: "sad", Body: loopTail(body), Iters: momIters(mmxIters), VL: 16, PCBase: pc}
}

// sadLoadCur loads the current block strip into resident stream
// registers once per search (MOM only).
func sadLoadCur(pc uint64, cur region) trace.Phase {
	body := []trace.Slot{
		{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
		{Op: isa.VLD, Dst: vr(0), Src1: rr(11), Addr: winAddr(cur, 2048, 256, 0, 512)},
		{Op: isa.VLD, Dst: vr(1), Src1: rr(11), Addr: winAddr(cur, 2048, 256, 128, 512)},
	}
	return trace.Phase{Name: "sadcur", Body: body, Iters: 1, VL: 16, PCBase: pc}
}

// sadFlush reads the accumulated SAD back to the scalar core at the end
// of a block: a reduction tree under MMX, a single accumulator read
// under MOM.
func sadFlush(k core.ISAKind, pc uint64) trace.Phase {
	if k == core.ISAMMX {
		body := []trace.Slot{
			{Op: isa.PADDW, Dst: mr(6), Src1: mr(6), Src2: mr(7)},
			{Op: isa.PSHUFW, Dst: mr(8), Src1: mr(6), Src2: mr(6)},
			{Op: isa.PADDW, Dst: mr(6), Src1: mr(6), Src2: mr(8)},
			{Op: isa.PSUMW, Dst: mr(9), Src1: mr(6)},
			{Op: isa.PEXTRW, Dst: mr(10), Src1: mr(9)},
			{Op: isa.PXOR, Dst: mr(6), Src1: mr(6), Src2: mr(6)},
			{Op: isa.PXOR, Dst: mr(7), Src1: mr(7), Src2: mr(7)},
			{Op: isa.CMPLT, Dst: rr(16), Src1: rr(8), Src2: rr(9)},
		}
		return trace.Phase{Name: "sadflush", Body: body, Iters: 1, PCBase: pc}
	}
	body := []trace.Slot{
		{Op: isa.RACW, Dst: vr(6), Src1: ar(0)},
		{Op: isa.VSUMW, Dst: vr(5), Src1: vr(6), SLen: 1},
		{Op: isa.WACW, Dst: ar(0), Src1: vr(7)},
		{Op: isa.CMPLT, Dst: rr(16), Src1: rr(8), Src2: rr(9)},
	}
	return trace.Phase{Name: "sadflush", Body: body, Iters: 1, PCBase: pc}
}

// dctPhase is a row/column pass of the 8x8 DCT/IDCT: multiply-add
// against cosine coefficients with widening, shift and re-pack. The
// MMX form needs explicit unpack/pack and a cosine-table load per
// iteration; the MOM form splats the coefficients once and uses wide
// stream multiplies.
func dctPhase(k core.ISAKind, pc uint64, mmxIters int64, src, dst, tbl region) trace.Phase {
	if k == core.ISAMMX {
		body := []trace.Slot{
			{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
			{Op: isa.MOVQLD, Dst: mr(0), Src1: rr(11), Addr: winAddr(src, 2048, 16, 0, 512)},
			{Op: isa.MOVQLD, Dst: mr(1), Src1: rr(11), Addr: winAddr(src, 2048, 16, 8, 512)},
			{Op: isa.MOVQLD, Dst: mr(2), Src1: rr(12), Addr: seqAddr(tbl, 8, 0, 0)},
			{Op: isa.PUNPCKLWD, Dst: mr(3), Src1: mr(0), Src2: mr(1)},
			{Op: isa.PUNPCKHWD, Dst: mr(4), Src1: mr(0), Src2: mr(1)},
			{Op: isa.PMADDWD, Dst: mr(5), Src1: mr(3), Src2: mr(2)},
			{Op: isa.PMADDWD, Dst: mr(6), Src1: mr(4), Src2: mr(2)},
			{Op: isa.PADDD, Dst: mr(7), Src1: mr(5), Src2: mr(6)},
			{Op: isa.PADDSW, Dst: mr(7), Src1: mr(7), Src2: mr(2)}, // rounding bias
			{Op: isa.PSRAD, Dst: mr(7), Src1: mr(7), Src2: mr(2)},
			{Op: isa.PSLLW, Dst: mr(9), Src1: mr(7), Src2: mr(2)}, // rescale
			{Op: isa.PACKSSDW, Dst: mr(8), Src1: mr(7), Src2: mr(9)},
			{Op: isa.POR, Dst: mr(8), Src1: mr(8), Src2: mr(9)}, // merge halves
			{Op: isa.MOVQST, Src1: mr(8), Src2: rr(13), Addr: winAddr(dst, 2048, 16, 0, 512)},
		}
		return trace.Phase{Name: "dct", Body: mmxTail(body), Iters: mmxIters, PCBase: pc}
	}
	body := []trace.Slot{
		{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
		{Op: isa.VLD, Dst: vr(0), Src1: rr(11), Addr: winAddr(src, 2048, 256, 0, 512)},
		{Op: isa.VLD, Dst: vr(1), Src1: rr(11), Addr: winAddr(src, 2048, 256, 128, 512)},
		{Op: isa.VSPLATW, Dst: vr(2), Src1: rr(12)},
		{Op: isa.VPMULLW, Dst: vr(3), Src1: vr(0), Src2: vr(2)},
		{Op: isa.VPMULHW, Dst: vr(4), Src1: vr(1), Src2: vr(2)},
		{Op: isa.VPADDSW, Dst: vr(5), Src1: vr(3), Src2: vr(4)},
		{Op: isa.VPSRAWI, Dst: vr(5), Src1: vr(5)},
		{Op: isa.VST, Src1: vr(5), Src2: rr(13), Addr: winAddr(dst, 2048, 256, 0, 512)},
	}
	return trace.Phase{Name: "dct", Body: loopTail(body), Iters: momIters(mmxIters), VL: 16, PCBase: pc}
}

// quantPhase scales coefficients by a quantization table with rounding
// and saturation.
func quantPhase(k core.ISAKind, pc uint64, mmxIters int64, coef, qtbl region) trace.Phase {
	if k == core.ISAMMX {
		body := []trace.Slot{
			{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
			{Op: isa.MOVQLD, Dst: mr(0), Src1: rr(11), Addr: winAddr(coef, 2048, 16, 0, 512)},
			{Op: isa.MOVQLD, Dst: mr(1), Src1: rr(12), Addr: seqAddr(qtbl, 8, 0, 0)},
			// Sign-magnitude trick: |x| via xor/sub, then scale and clamp.
			{Op: isa.PXOR, Dst: mr(4), Src1: mr(0), Src2: mr(1)},
			{Op: isa.PSUBW, Dst: mr(5), Src1: mr(4), Src2: mr(1)},
			{Op: isa.PMULHW, Dst: mr(2), Src1: mr(5), Src2: mr(1)},
			{Op: isa.PADDUSW, Dst: mr(3), Src1: mr(2), Src2: mr(1)},
			{Op: isa.PSRAW, Dst: mr(3), Src1: mr(3), Src2: mr(1)},
			{Op: isa.PMINSW, Dst: mr(3), Src1: mr(3), Src2: mr(1)},
			{Op: isa.MOVQST, Src1: mr(3), Src2: rr(11), Addr: winAddr(coef, 2048, 16, 0, 512)},
		}
		return trace.Phase{Name: "quant", Body: mmxTail(body), Iters: mmxIters, PCBase: pc}
	}
	body := []trace.Slot{
		{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
		{Op: isa.VLD, Dst: vr(0), Src1: rr(11), Addr: winAddr(coef, 2048, 256, 0, 512)},
		{Op: isa.VPABSW, Dst: vr(2), Src1: vr(0)},
		{Op: isa.VPMULHWS, Dst: vr(1), Src1: vr(2), Src2: rr(12)},
		{Op: isa.VPSRAWI, Dst: vr(1), Src1: vr(1)},
		{Op: isa.VST, Src1: vr(1), Src2: rr(11), Addr: winAddr(coef, 2048, 256, 0, 512)},
	}
	return trace.Phase{Name: "quant", Body: loopTail(body), Iters: momIters(mmxIters), VL: 16, PCBase: pc}
}

// firPhase is a multiply-accumulate filter (GSM short/long term
// prediction): MMX needs pmaddwd plus a merge chain; MOM accumulates
// the whole stream into the packed accumulator.
func firPhase(k core.ISAKind, pc uint64, mmxIters int64, smp, coef region) trace.Phase {
	if k == core.ISAMMX {
		body := []trace.Slot{
			{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
			{Op: isa.MOVQLD, Dst: mr(0), Src1: rr(11), Addr: winAddr(smp, 1024, 8, 0, 128)},
			{Op: isa.MOVQLD, Dst: mr(1), Src1: rr(12), Addr: seqAddr(coef, 8, 0, 0)},
			{Op: isa.PMADDWD, Dst: mr(2), Src1: mr(0), Src2: mr(1)},
			{Op: isa.PADDSW, Dst: mr(3), Src1: mr(2), Src2: mr(1)}, // saturate partial sums
			{Op: isa.PADDD, Dst: mr(7), Src1: mr(7), Src2: mr(3)},
		}
		return trace.Phase{Name: "fir", Body: mmxTail(body), Iters: mmxIters, PCBase: pc}
	}
	body := []trace.Slot{
		{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
		{Op: isa.VLD, Dst: vr(0), Src1: rr(11), Addr: winAddr(smp, 1024, 128, 0, 128)},
		{Op: isa.VLD, Dst: vr(1), Src1: rr(12), Addr: seqAddr(coef, 128, 0, 0)},
		{Op: isa.VMADDW, Dst: ar(0), Src1: vr(0), Src2: vr(1), Src3: ar(0)},
	}
	return trace.Phase{Name: "fir", Body: loopTail(body), Iters: momIters(mmxIters), VL: 16, PCBase: pc}
}

// firFlush drains the filter accumulator.
func firFlush(k core.ISAKind, pc uint64) trace.Phase {
	if k == core.ISAMMX {
		body := []trace.Slot{
			{Op: isa.PSHUFW, Dst: mr(3), Src1: mr(7), Src2: mr(7)},
			{Op: isa.PADDD, Dst: mr(7), Src1: mr(7), Src2: mr(3)},
			{Op: isa.PSUMD, Dst: mr(4), Src1: mr(7)},
			{Op: isa.PEXTRW, Dst: mr(5), Src1: mr(4)},
			{Op: isa.PXOR, Dst: mr(7), Src1: mr(7), Src2: mr(7)},
		}
		return trace.Phase{Name: "firflush", Body: body, Iters: 1, PCBase: pc}
	}
	body := []trace.Slot{
		{Op: isa.RACD, Dst: vr(6), Src1: ar(0)},
		{Op: isa.VSUMD, Dst: vr(5), Src1: vr(6), SLen: 1},
		{Op: isa.WACW, Dst: ar(0), Src1: vr(7)},
	}
	return trace.Phase{Name: "firflush", Body: body, Iters: 1, PCBase: pc}
}

// interpPhase is half-pel pixel interpolation / color reconstruction:
// byte averages with widening fix-up under MMX, a single stream
// average under MOM.
func interpPhase(k core.ISAKind, pc uint64, mmxIters int64, src1, src2, dst region) trace.Phase {
	if k == core.ISAMMX {
		body := []trace.Slot{
			{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
			{Op: isa.MOVQLD, Dst: mr(0), Src1: rr(11), Addr: winAddr(src1, 2048, 8, 0, 512)},
			{Op: isa.MOVQLD, Dst: mr(1), Src1: rr(12), Addr: winAddr(src2, 2048, 8, 0, 512)},
			{Op: isa.PAVGB, Dst: mr(2), Src1: mr(0), Src2: mr(1)},
			{Op: isa.PUNPCKLBW, Dst: mr(3), Src1: mr(2), Src2: mr(2)},
			{Op: isa.PUNPCKHBW, Dst: mr(4), Src1: mr(2), Src2: mr(2)},
			{Op: isa.PADDUSW, Dst: mr(5), Src1: mr(3), Src2: mr(4)},
			{Op: isa.PSUBUSW, Dst: mr(7), Src1: mr(5), Src2: mr(3)}, // rounding fix-up
			{Op: isa.PSLLW, Dst: mr(7), Src1: mr(7), Src2: mr(4)},
			{Op: isa.PACKUSWB, Dst: mr(6), Src1: mr(5), Src2: mr(7)},
			{Op: isa.MOVQST, Src1: mr(6), Src2: rr(13), Addr: winAddr(dst, 2048, 8, 0, 512)},
		}
		return trace.Phase{Name: "interp", Body: mmxTail(body), Iters: mmxIters, PCBase: pc}
	}
	body := []trace.Slot{
		{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
		{Op: isa.VLD, Dst: vr(0), Src1: rr(11), Addr: winAddr(src1, 2048, 128, 0, 512)},
		{Op: isa.VLD, Dst: vr(1), Src1: rr(12), Addr: winAddr(src2, 2048, 128, 0, 512)},
		{Op: isa.VPAVGB, Dst: vr(2), Src1: vr(0), Src2: vr(1)},
		{Op: isa.VST, Src1: vr(2), Src2: rr(13), Addr: winAddr(dst, 2048, 128, 0, 512)},
	}
	return trace.Phase{Name: "interp", Body: loopTail(body), Iters: momIters(mmxIters), VL: 16, PCBase: pc}
}

// momIters converts an MMX iteration count into the MOM iteration
// count doing the same work with stream length 16.
func momIters(mmxIters int64) int64 {
	n := (mmxIters + 15) / 16
	if n < 1 {
		n = 1
	}
	return n
}

// protoParams parameterizes a scalar protocol-overhead phase.
type protoParams struct {
	name   string
	pc     uint64
	iters  int64
	jitter int64 // content-dependent iteration spread (trace.Phase.Jitter)
	slots  int
	seed   uint64
	tbl    region // lookup tables (random access)
	strm   region // bitstream (slowly advancing sequential access)
	local  region // stack-like high-locality scratch
}

// protocolPhase generates the integer-dominated code that wraps media
// kernels in real programs: table lookups, bitstream extraction, ALU
// chains, biased data-dependent branches, occasional multiplies and
// stores. The static body is generated deterministically from the
// seed; the dynamic address and branch behaviour is drawn from the
// script's RNG at run time, as each slot's Addr and Taken describe.
func protocolPhase(p protoParams) trace.Phase {
	rng := trace.NewRNG(p.seed)
	regs := []isa.Reg{
		rr(1), rr(2), rr(3), rr(4), rr(5), rr(6), rr(7),
		rr(16), rr(17), rr(18), rr(19), rr(20), rr(21), rr(22),
	}
	ri := 0
	next := func() isa.Reg { r := regs[ri%len(regs)]; ri++; return r }
	prev := func(k int) isa.Reg { return regs[(ri-1-k+3*len(regs))%len(regs)] }
	// rd picks a source register: mostly recent values (real dependence
	// chains) but often older ones, so several chains run in parallel
	// and the out-of-order core finds ILP comparable to compiled code.
	rd := func() isa.Reg {
		if rng.Bool(0.5) {
			return prev(1 + rng.Intn(3))
		}
		return prev(4 + rng.Intn(6))
	}

	alu := []isa.Opcode{isa.ADDQ, isa.SUBQ, isa.AND, isa.BIS, isa.XOR, isa.SRA, isa.SLL, isa.S4ADDQ, isa.CMPULT, isa.ZAPNOT}
	// The loop below overshoots p.slots-3 by at most two slots and
	// loopTail appends three more; sizing the body up front spares the
	// doubling reallocations on every protocol phase of every program
	// launch (several hundred slots each).
	body := make([]trace.Slot, 0, p.slots+4)
	for len(body) < p.slots-3 {
		switch rng.Intn(10) {
		case 0: // table lookup and field extraction
			d1, d2 := next(), next()
			body = append(body,
				trace.Slot{Op: isa.LDQ, Dst: d1, Src1: rd(), Addr: randAddr(p.tbl, 8)},
				trace.Slot{Op: isa.EXTBL, Dst: d2, Src1: d1, Src2: rd()},
			)
		case 1: // longer ALU chain
			d1, d2, d3 := next(), next(), next()
			body = append(body,
				trace.Slot{Op: alu[rng.Intn(len(alu))], Dst: d1, Src1: rd(), Src2: rd()},
				trace.Slot{Op: alu[rng.Intn(len(alu))], Dst: d2, Src1: rd(), Src2: rd()},
				trace.Slot{Op: alu[rng.Intn(len(alu))], Dst: d3, Src1: d1, Src2: rd()},
			)
		case 2: // bitstream byte plus merge into the bit window
			d1, d2, d3 := next(), next(), next()
			off := uint32(rng.Intn(64))
			body = append(body,
				trace.Slot{Op: isa.LDBU, Dst: d1, Src1: rd(), Addr: seqAddr(p.strm, 3, off, 509)},
				trace.Slot{Op: isa.SLL, Dst: d2, Src1: d1, Src2: rd()},
				trace.Slot{Op: isa.BIS, Dst: d3, Src1: rd(), Src2: rd()},
			)
		case 3: // ALU pair
			d1, d2 := next(), next()
			body = append(body,
				trace.Slot{Op: alu[rng.Intn(len(alu))], Dst: d1, Src1: rd(), Src2: rd()},
				trace.Slot{Op: alu[rng.Intn(len(alu))], Dst: d2, Src1: rd(), Src2: rd()},
			)
		case 4, 5: // compare and biased data-dependent forward branch
			d := next()
			prob := [...]float64{0.02, 0.05, 0.2, 0.96}[rng.Intn(4)]
			body = append(body,
				trace.Slot{Op: isa.CMPEQ, Dst: d, Src1: rd(), Src2: rd()},
				trace.Slot{Op: isa.BEQ, Src1: d, TargetOff: 2, Taken: prob},
			)
		case 6: // store a result into the output stream
			body = append(body,
				trace.Slot{Op: isa.STL, Src1: rd(), Src2: rd(),
					Addr: seqAddr(p.strm, 5, uint32(rng.Intn(256)), 1021)},
			)
		case 7: // conditional move and mask (branchless coding)
			d1, d2 := next(), next()
			body = append(body,
				trace.Slot{Op: isa.CMOVNE, Dst: d1, Src1: rd(), Src2: rd()},
				trace.Slot{Op: isa.ZAP, Dst: d2, Src1: d1, Src2: rd()},
			)
		case 8: // occasional multiply (rate control arithmetic)
			d := next()
			body = append(body,
				trace.Slot{Op: isa.MULL, Dst: d, Src1: rd(), Src2: rd()},
			)
		case 9: // high-locality scratch access
			d := next()
			body = append(body,
				trace.Slot{Op: isa.LDL, Dst: d, Src1: rd(), Addr: randAddr(p.local, 8)},
				trace.Slot{Op: isa.ADDL, Dst: next(), Src1: d, Src2: rd()},
			)
		}
	}
	return trace.Phase{Name: p.name, Body: loopTail(body), Iters: p.iters, Jitter: p.jitter, PCBase: p.pc}
}

// fpPhase is floating-point geometry code (mesa's transform pipeline).
func fpPhase(name string, pc uint64, iters int64, src, dst region) trace.Phase {
	body := []trace.Slot{
		{Op: isa.LDA, Dst: rr(11), Src1: rr(8)},
		{Op: isa.LDT, Dst: fr(1), Src1: rr(11), Addr: winAddr(src, 4096, 32, 0, 1024)},
		{Op: isa.LDT, Dst: fr(2), Src1: rr(11), Addr: winAddr(src, 4096, 32, 8, 1024)},
		{Op: isa.LDT, Dst: fr(3), Src1: rr(11), Addr: winAddr(src, 4096, 32, 16, 1024)},
		{Op: isa.MULT, Dst: fr(4), Src1: fr(1), Src2: fr(2)},
		{Op: isa.MULT, Dst: fr(5), Src1: fr(2), Src2: fr(3)},
		{Op: isa.ADDT, Dst: fr(6), Src1: fr(4), Src2: fr(5)},
		{Op: isa.MULT, Dst: fr(7), Src1: fr(6), Src2: fr(1)},
		{Op: isa.ADDT, Dst: fr(8), Src1: fr(7), Src2: fr(3)},
		{Op: isa.CPYS, Dst: fr(9), Src1: fr(8), Src2: fr(8)},
		{Op: isa.STT, Src1: fr(9), Src2: rr(12), Addr: winAddr(dst, 4096, 32, 0, 1024)},
	}
	return trace.Phase{Name: name, Body: loopTail(body), Iters: iters, PCBase: pc}
}

// fpDivPhase is the perspective division part of the geometry pipeline:
// rare but long-latency.
func fpDivPhase(name string, pc uint64, iters int64, src region) trace.Phase {
	body := []trace.Slot{
		{Op: isa.LDT, Dst: fr(10), Src1: rr(11), Addr: winAddr(src, 4096, 32, 24, 1024)},
		{Op: isa.DIVT, Dst: fr(11), Src1: fr(8), Src2: fr(10)},
		{Op: isa.MULT, Dst: fr(12), Src1: fr(11), Src2: fr(1)},
		{Op: isa.CMPTLT, Dst: fr(13), Src1: fr(12), Src2: fr(2)},
		{Op: isa.FBNE, Src1: fr(13), TargetOff: 1, Taken: 0.3},
	}
	return trace.Phase{Name: name, Body: loopTail(body), Iters: iters, PCBase: pc}
}

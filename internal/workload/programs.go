package workload

import (
	"mediasmt/internal/core"
	"mediasmt/internal/trace"
)

// buildMPEG2Enc models the MPEG-2 encoder: motion estimation (SAD),
// forward DCT and quantization kernels dominate, wrapped in motion
// decision, VLC entropy coding and rate-control protocol code. It is
// the most vectorizable program of the workload (Table 3: 642.7 M
// MMX instructions versus 364.9 M MOM instructions).
func buildMPEG2Enc(k core.ISAKind, seed, base uint64, rounds int64) *trace.Script {
	a := newArena(base)
	cur := a.alloc(32 << 10)
	ref := a.alloc(32 << 10)
	coef := a.alloc(16 << 10)
	out := a.alloc(16 << 10)
	tbl := a.alloc(4 << 10)
	local := a.alloc(1 << 10)

	pc := func(i int) uint64 { return codeAt(base, i) }
	var ph []trace.Phase
	if k == core.ISAMOM {
		ph = append(ph, momPrelude(pc(0)), sadLoadCur(pc(10), cur))
	}
	ph = append(ph,
		sadPhase(k, pc(1), 200, cur, ref),
		sadFlush(k, pc(2)),
		dctPhase(k, pc(3), 80, cur, coef, tbl),
		quantPhase(k, pc(4), 56, coef, tbl),
	)
	ph = append(ph,
		protocolPhase(protoParams{name: "mvdecide", pc: pc(5), iters: 3, slots: 440, seed: seed*11 + 1, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "vlc0", pc: pc(6), iters: 3, jitter: 1, slots: 440, seed: seed*11 + 2, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "vlc1", pc: pc(7), iters: 3, jitter: 1, slots: 440, seed: seed*11 + 3, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "ratectl", pc: pc(8), iters: 2, slots: 400, seed: seed*11 + 4, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "hdr", pc: pc(9), iters: 2, slots: 360, seed: seed*11 + 5, tbl: tbl, strm: out, local: local}),
	)
	return trace.MustScript("mpeg2enc."+k.String(), seed, rounds, ph)
}

// buildMPEG2Dec models the MPEG-2 decoder: VLD/entropy decoding
// dominates, with IDCT and half-pel motion-compensation interpolation
// kernels (Table 3: 69.8 M vs 59.8 M).
func buildMPEG2Dec(k core.ISAKind, seed, base uint64, rounds int64) *trace.Script {
	a := newArena(base)
	bits := a.alloc(16 << 10)
	coef := a.alloc(16 << 10)
	fwd := a.alloc(32 << 10)
	frame := a.alloc(32 << 10)
	tbl := a.alloc(4 << 10)
	local := a.alloc(1 << 10)

	pc := func(i int) uint64 { return codeAt(base, i) }
	var ph []trace.Phase
	if k == core.ISAMOM {
		ph = append(ph, momPrelude(pc(0)))
	}
	ph = append(ph,
		dctPhase(k, pc(1), 36, coef, frame, tbl), // IDCT pass
		interpPhase(k, pc(2), 36, fwd, frame, frame),
	)
	ph = append(ph,
		protocolPhase(protoParams{name: "vld0", pc: pc(3), iters: 3, jitter: 1, slots: 420, seed: seed*13 + 1, tbl: tbl, strm: bits, local: local}),
		protocolPhase(protoParams{name: "vld1", pc: pc(4), iters: 3, slots: 420, seed: seed*13 + 2, tbl: tbl, strm: bits, local: local}),
		protocolPhase(protoParams{name: "hdr", pc: pc(5), iters: 2, slots: 380, seed: seed*13 + 3, tbl: tbl, strm: bits, local: local}),
		protocolPhase(protoParams{name: "mcctl", pc: pc(6), iters: 2, slots: 360, seed: seed*13 + 4, tbl: tbl, strm: bits, local: local}),
	)
	return trace.MustScript("mpeg2dec."+k.String(), seed, rounds, ph)
}

// buildJPEGEnc models cjpeg: color conversion and forward DCT plus
// quantization, then Huffman entropy coding (Table 3: 160.3 M vs
// 135.8 M).
func buildJPEGEnc(k core.ISAKind, seed, base uint64, rounds int64) *trace.Script {
	a := newArena(base)
	img := a.alloc(32 << 10)
	coef := a.alloc(16 << 10)
	out := a.alloc(16 << 10)
	tbl := a.alloc(4 << 10)
	local := a.alloc(1 << 10)

	pc := func(i int) uint64 { return codeAt(base, i) }
	var ph []trace.Phase
	if k == core.ISAMOM {
		ph = append(ph, momPrelude(pc(0)))
	}
	ph = append(ph,
		dctPhase(k, pc(1), 56, img, coef, tbl),
		quantPhase(k, pc(2), 48, coef, tbl),
	)
	ph = append(ph,
		protocolPhase(protoParams{name: "huffenc0", pc: pc(3), iters: 4, jitter: 1, slots: 440, seed: seed*17 + 1, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "huffenc1", pc: pc(4), iters: 4, slots: 440, seed: seed*17 + 2, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "marker", pc: pc(5), iters: 2, slots: 400, seed: seed*17 + 3, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "colorctl", pc: pc(6), iters: 2, slots: 360, seed: seed*17 + 4, tbl: tbl, strm: out, local: local}),
	)
	return trace.MustScript("jpegenc."+k.String(), seed, rounds, ph)
}

// buildJPEGDec models djpeg: Huffman decoding dominates; the IDCT and
// upsampling kernels are a small share, so the MOM build barely
// shrinks (Table 3: 109.4 M vs 106.4 M).
func buildJPEGDec(k core.ISAKind, seed, base uint64, rounds int64) *trace.Script {
	a := newArena(base)
	bits := a.alloc(16 << 10)
	coef := a.alloc(16 << 10)
	img := a.alloc(32 << 10)
	tbl := a.alloc(4 << 10)
	local := a.alloc(1 << 10)

	pc := func(i int) uint64 { return codeAt(base, i) }
	var ph []trace.Phase
	if k == core.ISAMOM {
		ph = append(ph, momPrelude(pc(0)))
	}
	ph = append(ph,
		dctPhase(k, pc(1), 12, coef, img, tbl),
		interpPhase(k, pc(2), 10, img, img, img),
	)
	ph = append(ph,
		protocolPhase(protoParams{name: "huffdec0", pc: pc(3), iters: 5, jitter: 1, slots: 460, seed: seed*19 + 1, tbl: tbl, strm: bits, local: local}),
		protocolPhase(protoParams{name: "huffdec1", pc: pc(4), iters: 5, slots: 460, seed: seed*19 + 2, tbl: tbl, strm: bits, local: local}),
		protocolPhase(protoParams{name: "dequant", pc: pc(5), iters: 3, slots: 440, seed: seed*19 + 3, tbl: tbl, strm: bits, local: local}),
		protocolPhase(protoParams{name: "upsctl", pc: pc(6), iters: 3, slots: 400, seed: seed*19 + 4, tbl: tbl, strm: bits, local: local}),
	)
	return trace.MustScript("jpegdec."+k.String(), seed, rounds, ph)
}

// buildGSMEnc models the GSM 06.10 full-rate encoder: LPC analysis and
// long-term prediction are multiply-accumulate filters (FIR kernels);
// the rest is fixed-point scalar DSP control code (Table 3: 177.9 M
// vs 161.3 M).
func buildGSMEnc(k core.ISAKind, seed, base uint64, rounds int64) *trace.Script {
	a := newArena(base)
	smp := a.alloc(8 << 10)
	coefs := a.alloc(2 << 10)
	out := a.alloc(4 << 10)
	tbl := a.alloc(4 << 10)
	local := a.alloc(1 << 10)

	pc := func(i int) uint64 { return codeAt(base, i) }
	var ph []trace.Phase
	if k == core.ISAMOM {
		ph = append(ph, momPrelude(pc(0)))
	}
	ph = append(ph,
		firPhase(k, pc(1), 72, smp, coefs),
		firFlush(k, pc(2)),
	)
	ph = append(ph,
		protocolPhase(protoParams{name: "lpc", pc: pc(3), iters: 3, slots: 440, seed: seed*23 + 1, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "ltp", pc: pc(4), iters: 3, slots: 440, seed: seed*23 + 2, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "rpe", pc: pc(5), iters: 3, slots: 420, seed: seed*23 + 3, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "pack", pc: pc(6), iters: 2, slots: 400, seed: seed*23 + 4, tbl: tbl, strm: out, local: local}),
	)
	return trace.MustScript("gsmenc."+k.String(), seed, rounds, ph)
}

// buildGSMDec models the GSM decoder: short filters over tiny frames
// leave almost nothing to vectorize (Table 3: 105.2 M vs 105.0 M).
func buildGSMDec(k core.ISAKind, seed, base uint64, rounds int64) *trace.Script {
	a := newArena(base)
	smp := a.alloc(8 << 10)
	coefs := a.alloc(2 << 10)
	out := a.alloc(4 << 10)
	tbl := a.alloc(4 << 10)
	local := a.alloc(1 << 10)

	pc := func(i int) uint64 { return codeAt(base, i) }
	var ph []trace.Phase
	if k == core.ISAMOM {
		ph = append(ph, momPrelude(pc(0)))
	}
	ph = append(ph,
		firPhase(k, pc(1), 6, smp, coefs),
		firFlush(k, pc(2)),
	)
	ph = append(ph,
		protocolPhase(protoParams{name: "unpack", pc: pc(3), iters: 3, slots: 440, seed: seed*29 + 1, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "synth", pc: pc(4), iters: 3, slots: 440, seed: seed*29 + 2, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "postproc", pc: pc(5), iters: 3, slots: 420, seed: seed*29 + 3, tbl: tbl, strm: out, local: local}),
		protocolPhase(protoParams{name: "ctl", pc: pc(6), iters: 2, slots: 400, seed: seed*29 + 4, tbl: tbl, strm: out, local: local}),
	)
	return trace.MustScript("gsmdec."+k.String(), seed, rounds, ph)
}

// buildMesa models the Mesa OpenGL pipeline (gears): floating-point
// vertex transform and perspective division plus integer rasterizer
// setup and span protocol code. It is not vectorized for either media
// ISA (the paper's emulation libraries had no FP μ-SIMD), so both
// variants run the identical script (Table 3: 93.8 M for both).
func buildMesa(k core.ISAKind, seed, base uint64, rounds int64) *trace.Script {
	a := newArena(base)
	verts := a.alloc(32 << 10)
	xformed := a.alloc(32 << 10)
	fb := a.alloc(32 << 10)
	tbl := a.alloc(4 << 10)
	local := a.alloc(1 << 10)

	pc := func(i int) uint64 { return codeAt(base, i) }
	ph := []trace.Phase{
		fpPhase("xform", pc(0), 72, verts, xformed),
		fpDivPhase("persp", pc(1), 16, xformed),
		protocolPhase(protoParams{name: "rastsetup", pc: pc(2), iters: 2, slots: 440, seed: seed*31 + 1, tbl: tbl, strm: fb, local: local}),
		protocolPhase(protoParams{name: "span", pc: pc(3), iters: 3, slots: 440, seed: seed*31 + 2, tbl: tbl, strm: fb, local: local}),
		protocolPhase(protoParams{name: "state", pc: pc(4), iters: 2, slots: 360, seed: seed*31 + 3, tbl: tbl, strm: fb, local: local}),
	}
	return trace.MustScript("mesa."+k.String(), seed, rounds, ph)
}

// Package workload models the paper's multiprogrammed media workload:
// seven Mediabench-style programs covering the four MPEG-4 profiles
// (video: mpeg2enc/mpeg2dec; still image: jpegenc/jpegdec; audio:
// gsmenc/gsmdec; 3D: mesa), each expressed for both media ISAs.
//
// The original study ran hand-vectorized Alpha binaries under a
// cycle-level simulator. This reproduction substitutes parameterized
// program models: every benchmark is a trace.Script whose vectorizable
// kernels (SAD motion estimation, DCT, quantization, FIR filtering,
// pixel interpolation) exist in an MMX form and a MOM form doing the
// same work, interleaved with scalar "protocol overhead" phases (table
// lookups, bitstream handling, branchy control). The models are
// calibrated against the paper's Table 3 instruction breakdown; the
// calibration is enforced by tests in this package.
//
// A built program is plain data: each memory slot's address is a
// trace.Addr over one of the program's regions (seqAddr, winAddr,
// randAddr), each data-dependent branch a probability and each
// content-dependent phase a jitter. Two builds with the same arguments
// are equal values, and the collector never scans their bodies.
package workload

import (
	"fmt"
	"sync"

	"mediasmt/internal/core"
	"mediasmt/internal/trace"
)

// Benchmark describes one program of the workload.
type Benchmark struct {
	Name        string
	Description string // Table 2 description
	DataSet     string // Table 2 data set
	Profile     string // MPEG-4 profile the program represents

	// PaperMMX and PaperMOM are the paper's Table 3 dynamic instruction
	// counts in millions (MOM counts are raw, not stream-expanded).
	PaperMMX float64
	PaperMOM float64

	build func(k core.ISAKind, seed, base uint64, rounds int64) *trace.Script

	mu         sync.Mutex
	perRound   int64   // raw MMX instructions per round (measured lazily)
	eipcFactor float64 // raw-count ratio MMX/MOM (measured lazily)
}

// Registry lists the seven programs.
var Registry = []*Benchmark{
	{
		Name:        "mpeg2enc",
		Description: "MPEG-2 video encoder",
		DataSet:     "4 CIF frames (rec.mpg)",
		Profile:     "MPEG-4 video",
		PaperMMX:    642.7, PaperMOM: 364.9,
		build: buildMPEG2Enc,
	},
	{
		Name:        "mpeg2dec",
		Description: "MPEG-2 video decoder",
		DataSet:     "4 CIF frames (rec.mpg)",
		Profile:     "MPEG-4 video",
		PaperMMX:    69.8, PaperMOM: 59.8,
		build: buildMPEG2Dec,
	},
	{
		Name:        "jpegenc",
		Description: "JPEG still-image encoder",
		DataSet:     "512x512 RGB (testimg.ppm)",
		Profile:     "MPEG-4 still image (2D)",
		PaperMMX:    160.3, PaperMOM: 135.8,
		build: buildJPEGEnc,
	},
	{
		Name:        "jpegdec",
		Description: "JPEG still-image decoder",
		DataSet:     "512x512 JPEG (testimg.jpg)",
		Profile:     "MPEG-4 still image (2D)",
		PaperMMX:    109.4, PaperMOM: 106.4,
		build: buildJPEGDec,
	},
	{
		Name:        "gsmenc",
		Description: "GSM 06.10 speech encoder",
		DataSet:     "clinton.pcm",
		Profile:     "MPEG-4 audio (speech)",
		PaperMMX:    177.9, PaperMOM: 161.3,
		build: buildGSMEnc,
	},
	{
		Name:        "gsmdec",
		Description: "GSM 06.10 speech decoder",
		DataSet:     "clinton.pcm.gsm",
		Profile:     "MPEG-4 audio (speech)",
		PaperMMX:    105.2, PaperMOM: 105.0,
		build: buildGSMDec,
	},
	{
		Name:        "mesa",
		Description: "Mesa OpenGL 3D rendering (not vectorized: no FP u-SIMD)",
		DataSet:     "gears demo",
		Profile:     "MPEG-4 still image (3D)",
		PaperMMX:    93.8, PaperMOM: 93.8,
		build: buildMesa,
	},
}

// RunOrder is the paper's §5.1 program order: "MPEG-2 encoder, GSM
// decoder, MPEG-2 decoder, GSM encoder, JPEG decoder, JPEG encoder,
// mesa and MPEG-2 decoder (2nd time)".
var RunOrder = []string{
	"mpeg2enc", "gsmdec", "mpeg2dec", "gsmenc",
	"jpegdec", "jpegenc", "mesa", "mpeg2dec",
}

// Get returns a registered benchmark by name.
func Get(name string) (*Benchmark, error) {
	for _, b := range Registry {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// MustGet is Get for known-constant names.
func MustGet(name string) *Benchmark {
	b, err := Get(name)
	if err != nil {
		panic(err)
	}
	return b
}

// instTargetScale converts the paper's millions of instructions into
// the simulated default: 1/1000 of the original run (scale 1.0 ≈ 1.4 M
// simulated instructions for the whole 8-program workload).
const instTargetScale = 1e6 / 1000

// measure fills the lazily computed per-round instruction count and
// the EIPC factor.
func (b *Benchmark) measure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.perRound > 0 {
		return
	}
	mmx := trace.CountMix(b.build(core.ISAMMX, 1, 0, 1))
	mom := trace.CountMix(b.build(core.ISAMOM, 1, 0, 1))
	b.perRound = mmx.Total
	if mom.Total > 0 {
		b.eipcFactor = float64(mmx.Total) / float64(mom.Total)
	} else {
		b.eipcFactor = 1
	}
}

// Rounds returns the round count that makes the MMX build emit about
// scale/1000 of the paper's dynamic instruction count.
func (b *Benchmark) Rounds(scale float64) int64 {
	b.measure()
	target := b.PaperMMX * instTargetScale * scale
	r := int64(target / float64(b.perRound))
	if r < 1 {
		r = 1
	}
	return r
}

// Program builds the benchmark for one hardware context, compiled for
// the media ISA k. base is the context's address-space offset (programs
// are independent processes, so different contexts must not share
// addresses); seed randomizes the dynamic behaviour deterministically.
func (b *Benchmark) Program(k core.ISAKind, seed, base uint64, scale float64) *trace.Script {
	return b.build(k, seed, base, b.Rounds(scale))
}

// EIPCFactor is the per-benchmark conversion factor of the paper's
// Equivalent IPC: the ratio of raw dynamic instruction counts between
// the MMX and MOM builds of the same work. Crediting this factor per
// committed MOM instruction makes EIPC = (N_mmx / N_mom) x IPC_mom.
func (b *Benchmark) EIPCFactor(k core.ISAKind) float64 {
	if k == core.ISAMMX {
		return 1
	}
	b.measure()
	return b.eipcFactor
}

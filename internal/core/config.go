// Package core implements the paper's SMT out-of-order processor: an
// 8-way MIPS R10000-like superscalar extended with simultaneous
// multithreading (shared physical register pools, per-thread rename
// tables, per-thread retirement) and one of two media ISAs: the
// MMX-like extension (two 64-bit media units, SIMD issue width 2) or
// the MOM streaming extension (one media unit with two vector pipes,
// SIMD issue width 1).
package core

import (
	"fmt"

	"mediasmt/internal/isa"
	"mediasmt/internal/mem"
)

// ISAKind selects which media extension the processor implements.
type ISAKind uint8

const (
	// ISAMMX is the conventional packed-SIMD extension.
	ISAMMX ISAKind = iota
	// ISAMOM is the streaming vector packed-SIMD extension.
	ISAMOM
)

func (k ISAKind) String() string {
	if k == ISAMOM {
		return "mom"
	}
	return "mmx"
}

// Policy selects the SMT fetch policy (paper §5.3).
type Policy uint8

const (
	// PolicyRR is classic round-robin.
	PolicyRR Policy = iota
	// PolicyICOUNT prioritizes threads with the fewest instructions
	// decoded but not issued (Tullsen et al.).
	PolicyICOUNT
	// PolicyOCOUNT is ICOUNT weighted by the stream-length register:
	// threads are charged per pending operation, not per instruction.
	PolicyOCOUNT
	// PolicyBALANCE mixes scalar and vector fetch: when the vector
	// pipeline is empty, threads that fetched vector instructions last
	// time get priority, otherwise threads that did not.
	PolicyBALANCE
)

func (p Policy) String() string {
	switch p {
	case PolicyRR:
		return "RR"
	case PolicyICOUNT:
		return "IC"
	case PolicyOCOUNT:
		return "OC"
	case PolicyBALANCE:
		return "BL"
	}
	return "policy?"
}

// Config holds the architectural parameters. ConfigForThreads
// reproduces the paper's Table 1 scaling of physical registers and
// window sizes with the number of hardware contexts.
type Config struct {
	Threads int
	ISA     ISAKind
	Policy  Policy

	// Front end: up to FetchGroups groups of GroupSize instructions
	// per cycle (the paper fetches two groups of four), a per-thread
	// fetch queue, and an 8-wide decode/rename stage.
	FetchGroups int
	GroupSize   int
	FetchQCap   int
	DecodeWidth int
	CommitWidth int

	// Issue widths per queue.
	IssueInt  int
	IssueMem  int
	IssueFP   int
	IssueSIMD int

	// Functional units.
	IntALUs    int
	IntMuls    int
	FPAdds     int
	FPMuls     int
	FPDivs     int
	MediaUnits int // MMX: 2 independent units; MOM: 1 unit
	MediaPipes int // MOM: 2 parallel vector pipes within the unit

	// Window sizes.
	IQSize       int
	MQSize       int
	FQSize       int
	SQSize       int
	ROBPerThread int

	// Shared physical register pools.
	PhysInt int
	PhysFP  int
	PhysMMX int
	PhysMOM int
	PhysAcc int

	// Branch handling.
	BranchPenalty int
	PredTableBits int
	PredHistBits  int
}

// robSizes is the per-thread graduation-window size for 1/2/4/8
// contexts (total window grows sub-linearly, as in the paper's Table 1).
var robSizes = map[int]int{1: 128, 2: 96, 4: 64, 8: 48}

// CheckThreads returns an error naming Threads unless ConfigForThreads
// can build a machine of n hardware contexts: the paper's 1, 2, 4 or 8.
func CheckThreads(n int) error {
	if _, ok := robSizes[n]; !ok {
		return fmt.Errorf("core: Threads is %d, want 1, 2, 4 or 8", n)
	}
	return nil
}

// ConfigForThreads returns the architectural parameters used by every
// experiment, sized for near-saturation performance at the given
// thread count (the paper's Table 1 methodology).
func ConfigForThreads(kind ISAKind, threads int) Config {
	if err := CheckThreads(threads); err != nil {
		panic(err)
	}
	c := Config{
		Threads:     threads,
		ISA:         kind,
		Policy:      PolicyRR,
		FetchGroups: 2,
		GroupSize:   4,
		FetchQCap:   16,
		DecodeWidth: 8,
		CommitWidth: 8,

		IssueInt: 4,
		IssueMem: 4,
		IssueFP:  4,

		IntALUs: 4,
		IntMuls: 1,
		FPAdds:  2,
		FPMuls:  2,
		FPDivs:  1,

		IQSize:       32,
		MQSize:       32,
		FQSize:       32,
		SQSize:       24,
		ROBPerThread: robSizes[threads],

		PhysInt: 32*threads + 64,
		PhysFP:  32*threads + 32,
		PhysAcc: 2*threads + 2,

		BranchPenalty: 4,
		PredTableBits: 14,
		PredHistBits:  0,
	}
	switch kind {
	case ISAMMX:
		c.IssueSIMD = 2
		c.MediaUnits = 2
		c.MediaPipes = 1
		c.PhysMMX = 32*threads + 64
		c.PhysMOM = 16*threads + 8 // architected state only: MMX code never renames streams
	case ISAMOM:
		c.IssueSIMD = 1
		c.MediaUnits = 1
		c.MediaPipes = 2
		c.PhysMMX = 32*threads + 16 // MOM code barely touches the MMX file
		c.PhysMOM = 16*threads + 32
	}
	return c
}

// Bounds Validate enforces, so one core's structures stay small enough
// to allocate at once and to scan every cycle: a width or unit count
// in the tens, a queue, window or register file in the thousands, a
// predictor table of at most 1 M two-bit counters.
const (
	maxWidth     = 64
	maxQueue     = 1024
	maxPhysRegs  = 8192
	maxPenalty   = 4096
	maxTableBits = 20
	maxHistBits  = 63
)

// Validate reports the first field of c the pipeline cannot model,
// naming it: an ISA or fetch policy past its last constant, or any
// other field outside its bounds. Every register file must back the
// architected registers of every thread plus one rename register,
// whatever the ISA. Rows are checked in order, so Threads is in range
// before the register bounds that depend on it are compared.
func (c *Config) Validate() error {
	regs := func(f isa.RegFile) int { return isa.LogicalRegs(f)*c.Threads + 1 }
	for _, f := range []struct {
		name           string
		v, least, most int
	}{
		{"ISA", int(c.ISA), 0, int(ISAMOM)},
		{"Policy", int(c.Policy), 0, int(PolicyBALANCE)},
		{"Threads", c.Threads, 1, mem.MaxHWContexts},
		{"FetchGroups", c.FetchGroups, 1, maxWidth},
		{"GroupSize", c.GroupSize, 1, maxWidth},
		{"FetchQCap", c.FetchQCap, 1, maxQueue},
		{"DecodeWidth", c.DecodeWidth, 1, maxWidth},
		{"CommitWidth", c.CommitWidth, 1, maxWidth},
		{"IssueInt", c.IssueInt, 1, maxWidth},
		{"IssueMem", c.IssueMem, 1, maxWidth},
		{"IssueFP", c.IssueFP, 1, maxWidth},
		{"IssueSIMD", c.IssueSIMD, 1, maxWidth},
		{"IntALUs", c.IntALUs, 1, maxWidth},
		{"IntMuls", c.IntMuls, 1, maxWidth},
		{"FPAdds", c.FPAdds, 1, maxWidth},
		{"FPMuls", c.FPMuls, 1, maxWidth},
		{"FPDivs", c.FPDivs, 1, maxWidth},
		{"MediaUnits", c.MediaUnits, 1, maxWidth},
		{"MediaPipes", c.MediaPipes, 1, maxWidth},
		{"IQSize", c.IQSize, 1, maxQueue},
		{"MQSize", c.MQSize, 1, maxQueue},
		{"FQSize", c.FQSize, 1, maxQueue},
		{"SQSize", c.SQSize, 1, maxQueue},
		{"ROBPerThread", c.ROBPerThread, 8, maxQueue},
		{"PhysInt", c.PhysInt, regs(isa.RFInt), maxPhysRegs},
		{"PhysFP", c.PhysFP, regs(isa.RFFP), maxPhysRegs},
		{"PhysMMX", c.PhysMMX, regs(isa.RFMMX), maxPhysRegs},
		{"PhysMOM", c.PhysMOM, regs(isa.RFMOM), maxPhysRegs},
		{"PhysAcc", c.PhysAcc, regs(isa.RFAcc), maxPhysRegs},
		{"BranchPenalty", c.BranchPenalty, 0, maxPenalty},
		{"PredTableBits", c.PredTableBits, 1, maxTableBits},
		{"PredHistBits", c.PredHistBits, 0, maxHistBits},
	} {
		if f.v < f.least || f.v > f.most {
			return fmt.Errorf("core: %s is %d, want %d..%d", f.name, f.v, f.least, f.most)
		}
	}
	return nil
}

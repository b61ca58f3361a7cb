package mem

import "fmt"

// Config describes the memory system. DefaultConfig returns the paper's
// parameters (§3, "Architectural Parameters"); experiments override
// only Mode and, for ablations, the queue depths.
type Config struct {
	Mode Mode

	// L1 data cache: 32 KB, direct mapped, write-through, 32-byte
	// lines, interleaved among 8 banks, 1 cycle latency, 8 MSHRs,
	// 8-deep coalescing write buffer with selective flush.
	L1Size   int
	L1Line   int
	L1Assoc  int
	L1Banks  int
	L1MSHRs  int
	L1HitLat int
	WBDepth  int

	// Instruction cache: 64 KB, 2-way, 32-byte lines, 4 banks.
	ISize  int
	ILine  int
	IAssoc int
	IBanks int
	IMSHRs int

	// L2: 1 MB, 2-way, write-back, 128-byte lines, 12 cycles, 8 MSHRs.
	L2Size    int
	L2Line    int
	L2Assoc   int
	L2Banks   int
	L2MSHRs   int
	L2HitLat  int
	L2BankOcc int // cycles a bank stays busy per access

	// Ports. Conventional: GeneralPorts shared by everything.
	// Decoupled: ScalarPorts into L1 (double-pumped single bank) and
	// VectorPorts into L2.
	GeneralPorts int
	ScalarPorts  int
	VectorPorts  int

	DRAM DRAMConfig

	// MSHRTargets bounds how many loads can merge on one miss line.
	MSHRTargets int
}

// DRAMConfig models the Direct Rambus channel: 8 RDRAM chips on a
// 128-bit, bi-directional 200 MHz bus feeding an 800 MHz processor
// (16 bytes per bus beat, one beat every 4 CPU cycles, 3.2 GB/s peak).
type DRAMConfig struct {
	Banks         int   // device banks across the channel
	RowBytes      int   // row (page) size per bank
	RowHitLat     int   // CAS-only access, CPU cycles
	RowMissLat    int   // precharge + activate + CAS, CPU cycles
	BeatBytes     int   // bytes per bus beat
	CyclesPerBeat int   // CPU cycles per bus beat
	QueueCap      int   // controller queue entries
	SizeBytes     int64 // total capacity (128 MB)
}

// DefaultConfig returns the paper's memory system parameters.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:     mode,
		L1Size:   32 << 10,
		L1Line:   32,
		L1Assoc:  1,
		L1Banks:  8,
		L1MSHRs:  8,
		L1HitLat: 1,
		WBDepth:  8,

		ISize:  64 << 10,
		ILine:  32,
		IAssoc: 2,
		IBanks: 4,
		IMSHRs: 4,

		L2Size:    1 << 20,
		L2Line:    128,
		L2Assoc:   2,
		L2Banks:   2,
		L2MSHRs:   8,
		L2HitLat:  12,
		L2BankOcc: 2,

		GeneralPorts: 4,
		ScalarPorts:  2,
		VectorPorts:  2,

		DRAM: DRAMConfig{
			Banks:         32,
			RowBytes:      2 << 10,
			RowHitLat:     16,
			RowMissLat:    48,
			BeatBytes:     16,
			CyclesPerBeat: 4,
			QueueCap:      16,
			SizeBytes:     128 << 20,
		},

		MSHRTargets: 4,
	}
}

// Bounds Validate enforces, so one simulation's heap and per-access
// scans stay small: a cache holds at most 16 MB in lines of at least 8
// bytes (about 40 MB of tag state), and every port, bank, queue and
// MSHR count stays in the hundreds.
const (
	maxCacheBytes = 16 << 20
	maxLineBytes  = 4096
	maxWays       = 32
	maxEntries    = 256
	maxLatency    = 1 << 12
	maxDRAMBytes  = 1 << 40
)

// Validate reports the first field of c the memory system cannot
// model, naming it: a size, count, latency or DRAM divisor below one,
// which would panic or stall a run; a line, set or bank count that is
// not a power of two, which addresses index by mask; or a value past
// the bounds above. Every field is checked whatever the mode.
func (c Config) Validate() error {
	if c.Mode > ModeDecoupled {
		return fmt.Errorf("mem: Mode %d names no memory organization", c.Mode)
	}
	for _, f := range []struct {
		name          string
		v, least, max int
		pow2          bool
	}{
		{"L1Line", c.L1Line, 8, maxLineBytes, true},
		{"L1Assoc", c.L1Assoc, 1, maxWays, false},
		{"L1Banks", c.L1Banks, 1, maxEntries, true},
		{"L1MSHRs", c.L1MSHRs, 1, maxEntries, false},
		{"L1HitLat", c.L1HitLat, 1, maxLatency, false},
		{"WBDepth", c.WBDepth, 1, maxEntries, false},
		{"ILine", c.ILine, 8, maxLineBytes, true},
		{"IAssoc", c.IAssoc, 1, maxWays, false},
		{"IBanks", c.IBanks, 1, maxEntries, true},
		{"IMSHRs", c.IMSHRs, 1, maxEntries, false},
		{"L2Line", c.L2Line, 8, maxLineBytes, true},
		{"L2Assoc", c.L2Assoc, 1, maxWays, false},
		{"L2Banks", c.L2Banks, 1, maxEntries, true},
		{"L2MSHRs", c.L2MSHRs, 1, maxEntries, false},
		{"L2HitLat", c.L2HitLat, 1, maxLatency, false},
		{"L2BankOcc", c.L2BankOcc, 1, maxLatency, false},
		{"GeneralPorts", c.GeneralPorts, 1, maxEntries, false},
		{"ScalarPorts", c.ScalarPorts, 1, maxEntries, false},
		{"VectorPorts", c.VectorPorts, 1, maxEntries, false},
		{"DRAM.Banks", c.DRAM.Banks, 1, maxEntries, false},
		{"DRAM.RowBytes", c.DRAM.RowBytes, 1, maxCacheBytes, false},
		{"DRAM.RowHitLat", c.DRAM.RowHitLat, 1, maxLatency, false},
		{"DRAM.RowMissLat", c.DRAM.RowMissLat, 1, maxLatency, false},
		{"DRAM.BeatBytes", c.DRAM.BeatBytes, 1, maxLineBytes, false},
		{"DRAM.CyclesPerBeat", c.DRAM.CyclesPerBeat, 1, maxLatency, false},
		{"DRAM.QueueCap", c.DRAM.QueueCap, 1, maxEntries, false},
		{"MSHRTargets", c.MSHRTargets, 1, maxEntries, false},
	} {
		switch {
		case f.v < f.least || f.v > f.max:
			return fmt.Errorf("mem: %s is %d, want %d..%d", f.name, f.v, f.least, f.max)
		case f.pow2 && f.v&(f.v-1) != 0:
			return fmt.Errorf("mem: %s is %d, want a power of two", f.name, f.v)
		}
	}
	for _, a := range []struct {
		name              string
		size, line, assoc int
	}{
		{"L1Size", c.L1Size, c.L1Line, c.L1Assoc},
		{"ISize", c.ISize, c.ILine, c.IAssoc},
		{"L2Size", c.L2Size, c.L2Line, c.L2Assoc},
	} {
		sets := a.size / (a.line * a.assoc)
		if a.size > maxCacheBytes || sets < 1 || sets&(sets-1) != 0 || sets*a.line*a.assoc != a.size {
			return fmt.Errorf("mem: %s is %d, want at most %d bytes in a power-of-two number of %d-way sets of %d-byte lines",
				a.name, a.size, maxCacheBytes, a.assoc, a.line)
		}
	}
	if c.DRAM.SizeBytes < 1 || c.DRAM.SizeBytes > maxDRAMBytes {
		return fmt.Errorf("mem: DRAM.SizeBytes is %d, want 1..%d", c.DRAM.SizeBytes, int64(maxDRAMBytes))
	}
	return nil
}

func log2(n int) uint {
	var s uint
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

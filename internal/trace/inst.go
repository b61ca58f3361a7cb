// Package trace defines the dynamic instruction-stream representation
// consumed by the SMT pipeline simulator, and a small "script" engine
// used by package workload to model media programs for both the
// MMX-like and the MOM instruction sets. A script is plain data: phases
// of static basic blocks whose slots describe their dynamic behaviour —
// an address pattern (Addr), a branch probability (Slot.Taken) and an
// iteration jitter (Phase.Jitter) — which Script.Next evaluates from
// the iteration, the round and the script's RNG.
package trace

import "mediasmt/internal/isa"

// Inst is one dynamic instruction as produced by a Script. It carries
// everything the timing model needs: opcode, logical registers, the
// effective address of memory operations, the MOM stream length and
// stride, the branch outcome and the instruction's PC.
type Inst struct {
	Op     isa.Opcode
	Dst    isa.Reg
	Src1   isa.Reg
	Src2   isa.Reg
	Src3   isa.Reg
	Addr   uint64 // first element address for memory operations
	Target uint64 // branch target
	PC     uint64
	Stride int32 // byte distance between stream elements (memory ops: isa.VecElemBytes)
	SLen   uint8 // stream length (1 for scalar and MMX operations)
	Taken  bool  // branch outcome
}

// Equiv returns the instruction's equivalent-instruction count: a MOM
// stream instruction of length L counts as L instructions (paper §4.2),
// everything else counts as one. For a memory instruction it is also
// the number of elements accessed.
func (in *Inst) Equiv() int {
	if in.Op.Info().Stream && in.SLen > 1 {
		return int(in.SLen)
	}
	return 1
}
